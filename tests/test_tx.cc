// Unit tests for the transaction layer: MGL-RX lock manager, MVCC version
// store, WAL, and the transaction manager.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hw/disk.h"
#include "hw/network.h"
#include "tx/lock_manager.h"
#include "tx/log_manager.h"
#include "tx/transaction_manager.h"
#include "tx/version_store.h"

namespace wattdb::tx {
namespace {

// ------------------------------------------------------------ LockManager

TEST(LockCompatibility, StandardMglMatrix) {
  using M = LockMode;
  EXPECT_TRUE(LockCompatible(M::kIS, M::kIS));
  EXPECT_TRUE(LockCompatible(M::kIS, M::kIX));
  EXPECT_TRUE(LockCompatible(M::kIS, M::kS));
  EXPECT_FALSE(LockCompatible(M::kIS, M::kX));
  EXPECT_TRUE(LockCompatible(M::kIX, M::kIX));
  EXPECT_FALSE(LockCompatible(M::kIX, M::kS));
  EXPECT_TRUE(LockCompatible(M::kS, M::kS));
  EXPECT_FALSE(LockCompatible(M::kS, M::kIX));
  EXPECT_FALSE(LockCompatible(M::kX, M::kIS));
  EXPECT_FALSE(LockCompatible(M::kX, M::kX));
}

TEST(LockManager, GrantWithoutConflict) {
  LockManager lm;
  auto g = lm.Acquire(LockResource::Record(PartitionId(1), 5), LockMode::kX,
                      TxnId(1), 100, 200);
  EXPECT_EQ(g.granted_at, 100);
  EXPECT_EQ(g.waited_us, 0);
}

TEST(LockManager, ConflictWaitsUntilRelease) {
  LockManager lm;
  const auto res = LockResource::Record(PartitionId(1), 5);
  lm.Acquire(res, LockMode::kX, TxnId(1), 100, 300);
  auto g = lm.Acquire(res, LockMode::kX, TxnId(2), 150, 500);
  EXPECT_EQ(g.granted_at, 300);
  EXPECT_EQ(g.waited_us, 150);
}

TEST(LockManager, SharedReadersDoNotWait) {
  LockManager lm;
  const auto res = LockResource::Record(PartitionId(1), 5);
  lm.Acquire(res, LockMode::kS, TxnId(1), 100, 300);
  auto g = lm.Acquire(res, LockMode::kS, TxnId(2), 150, 400);
  EXPECT_EQ(g.waited_us, 0);
}

TEST(LockManager, IntentionLocksCoexist) {
  LockManager lm;
  const auto res = LockResource::Partition(PartitionId(1));
  lm.Acquire(res, LockMode::kIX, TxnId(1), 0, 1000);
  auto g = lm.Acquire(res, LockMode::kIX, TxnId(2), 0, 1000);
  EXPECT_EQ(g.waited_us, 0);
}

TEST(LockManager, MigrationDrainSemantics) {
  // §4.3: the mover's partition S lock waits for writers (IX) to finish and
  // blocks new writers, but IS readers pass.
  LockManager lm;
  const auto part = LockResource::Partition(PartitionId(7));
  lm.Acquire(part, LockMode::kIX, TxnId(1), 0, 250);  // In-flight writer.
  auto mover = lm.Acquire(part, LockMode::kS, TxnId(2), 100, 100 + 5000);
  EXPECT_EQ(mover.granted_at, 250);  // Drained.
  auto writer = lm.Acquire(part, LockMode::kIX, TxnId(3), 300, 600);
  EXPECT_EQ(writer.granted_at, 5100);  // Blocked until copy ends.
  auto reader = lm.Acquire(part, LockMode::kIS, TxnId(4), 300, 400);
  EXPECT_EQ(reader.waited_us, 0);  // Readers unaffected.
}

TEST(LockManager, SettleTruncatesHold) {
  LockManager lm;
  const auto res = LockResource::Record(PartitionId(1), 5);
  lm.Acquire(res, LockMode::kX, TxnId(1), 100, 100 + kUsPerSec);
  lm.SettleAll(TxnId(1), 180);  // Actually committed at 180.
  auto g = lm.Acquire(res, LockMode::kX, TxnId(2), 150, 400);
  EXPECT_EQ(g.granted_at, 180);
}

TEST(LockManager, ReacquireExtendsOwnGrant) {
  LockManager lm;
  const auto res = LockResource::Record(PartitionId(1), 5);
  lm.Acquire(res, LockMode::kX, TxnId(1), 100, 200);
  auto again = lm.Acquire(res, LockMode::kX, TxnId(1), 150, 400);
  EXPECT_EQ(again.waited_us, 0);
  auto other = lm.Acquire(res, LockMode::kX, TxnId(2), 150, 600);
  EXPECT_EQ(other.granted_at, 400);  // Extended hold observed.
}

TEST(LockManager, UpgradeWaitsForPeers) {
  LockManager lm;
  const auto res = LockResource::Record(PartitionId(1), 5);
  lm.Acquire(res, LockMode::kS, TxnId(1), 0, 500);
  lm.Acquire(res, LockMode::kS, TxnId(2), 0, 300);
  auto up = lm.Acquire(res, LockMode::kX, TxnId(1), 100, 600);
  EXPECT_EQ(up.granted_at, 300);  // Waits for the other reader only.
}

TEST(LockManager, ReleaseAllRemovesGrants) {
  LockManager lm;
  const auto res = LockResource::Record(PartitionId(1), 5);
  lm.Acquire(res, LockMode::kX, TxnId(1), 0, 10000);
  lm.ReleaseAll(TxnId(1));
  auto g = lm.Acquire(res, LockMode::kX, TxnId(2), 0, 100);
  EXPECT_EQ(g.waited_us, 0);
  EXPECT_EQ(lm.GrantCount(), 1u);
}

TEST(LockManager, PruneDropsExpired) {
  LockManager lm;
  lm.Acquire(LockResource::Record(PartitionId(1), 1), LockMode::kS, TxnId(1),
             0, 100);
  lm.Acquire(LockResource::Record(PartitionId(1), 2), LockMode::kS, TxnId(2),
             0, 900);
  lm.Prune(500);
  EXPECT_EQ(lm.GrantCount(), 1u);
}

int Strength(LockMode m) {
  return m == LockMode::kIS ? 0 : m == LockMode::kX ? 2 : 1;
}

// Reference model for the differential test: the plain linear-scan lock
// table that `LockManager` must match grant for grant. Every search walks
// the whole grant vector front to back.
class RefLockManager {
 public:
  LockGrant Acquire(const LockResource& res, LockMode mode, TxnId txn,
                    SimTime now, SimTime release_at) {
    auto& grants = table_[res];
    for (Grant& g : grants) {
      if (g.txn != txn) continue;
      if (Strength(mode) > Strength(g.mode)) {
        const SimTime t = EarliestGrant(res, mode, txn, now);
        g.mode = mode;
        g.until = std::max(g.until, release_at);
        return LockGrant{t, t - now};
      }
      g.until = std::max(g.until, release_at);
      return LockGrant{now, 0};
    }
    const SimTime t = EarliestGrant(res, mode, txn, now);
    grants.push_back(Grant{txn, mode, t, std::max(release_at, t)});
    by_txn_[txn].push_back(res);
    return LockGrant{t, t - now};
  }

  SimTime EarliestGrant(const LockResource& res, LockMode mode, TxnId txn,
                        SimTime now) const {
    auto it = table_.find(res);
    if (it == table_.end()) return now;
    SimTime t = now;
    for (const Grant& g : it->second) {
      if (g.txn == txn || g.until <= t) continue;
      if (!LockCompatible(g.mode, mode)) t = std::max(t, g.until);
    }
    return t;
  }

  void SettleAll(TxnId txn, SimTime at) {
    auto it = by_txn_.find(txn);
    if (it == by_txn_.end()) return;
    for (const LockResource& res : it->second) {
      auto tit = table_.find(res);
      if (tit == table_.end()) continue;
      for (Grant& g : tit->second) {
        if (g.txn == txn) g.until = std::max(g.from, at);
      }
    }
    by_txn_.erase(it);
  }

  void ReleaseAll(TxnId txn) {
    auto it = by_txn_.find(txn);
    if (it == by_txn_.end()) return;
    for (const LockResource& res : it->second) {
      auto tit = table_.find(res);
      if (tit == table_.end()) continue;
      EraseIf(tit->second, [&](const Grant& g) { return g.txn == txn; });
      if (tit->second.empty()) table_.erase(tit);
    }
    by_txn_.erase(it);
  }

  void Prune(SimTime before) {
    for (auto it = table_.begin(); it != table_.end();) {
      EraseIf(it->second, [&](const Grant& g) { return g.until <= before; });
      it = it->second.empty() ? table_.erase(it) : std::next(it);
    }
  }

  size_t GrantCount() const {
    size_t n = 0;
    for (const auto& [res, grants] : table_) n += grants.size();
    return n;
  }

  std::optional<LockMode> HeldMode(const LockResource& res, TxnId txn) const {
    auto it = table_.find(res);
    if (it == table_.end()) return std::nullopt;
    for (const Grant& g : it->second) {
      if (g.txn == txn) return g.mode;
    }
    return std::nullopt;
  }

 private:
  struct Grant {
    TxnId txn;
    LockMode mode;
    SimTime from;
    SimTime until;
  };

  template <typename Pred>
  static void EraseIf(std::vector<Grant>& grants, Pred pred) {
    grants.erase(std::remove_if(grants.begin(), grants.end(), pred),
                 grants.end());
  }

  std::unordered_map<LockResource, std::vector<Grant>, LockResourceHash> table_;
  std::unordered_map<TxnId, std::vector<LockResource>> by_txn_;
};

// Seeded random workload over three partitions of eight records each plus
// their table. Partitions mostly see intention modes (so their grant
// vectors grow long and mostly compatible), with occasional S/X as the
// mover and scans take them; records see all four modes. Transactions come
// from a slowly sliding id window, so the same transaction re-acquires
// after its own SettleAll, after ReleaseAll and after Prune dropped its
// grant, and upgrades in place.
class LockDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockDifferentialTest, MatchesLinearScanReference) {
  std::mt19937_64 rng(GetParam());
  auto pick = [&](uint64_t n) { return rng() % n; };
  LockManager lm;
  RefLockManager ref;
  std::set<std::pair<uint64_t, size_t>> acquired;  // (txn, resource index)
  std::set<uint64_t> settled;
  std::vector<LockResource> resources;
  resources.push_back(LockResource::Table(TableId(1)));
  for (uint64_t p = 1; p <= 3; ++p) {
    resources.push_back(LockResource::Partition(PartitionId(p)));
    for (Key k = 0; k < 8; ++k) {
      resources.push_back(LockResource::Record(PartitionId(p), k));
    }
  }
  SimTime clock = 0;
  SimTime horizon = 0;
  uint64_t txn_base = 1;
  int after_settle = 0, after_drop = 0, upgrades = 0;
  size_t max_grants = 0;
  for (int step = 0; step < 40000; ++step) {
    clock += static_cast<SimTime>(pick(20));
    if (pick(200) == 0) ++txn_base;
    const uint64_t t = txn_base + pick(24);
    const TxnId txn(t);
    const uint64_t op = pick(100);
    if (op < 70) {
      const size_t r = pick(resources.size());
      const LockResource& res = resources[r];
      const bool coarse = res.kind != LockResource::Kind::kRecord;
      LockMode mode = static_cast<LockMode>(pick(4));
      if (coarse && pick(50) != 0) {
        mode = pick(2) == 0 ? LockMode::kIS : LockMode::kIX;
      }
      const SimTime now = clock + static_cast<SimTime>(pick(100));
      const SimTime release =
          now + static_cast<SimTime>(pick(coarse ? 400 : 150));
      const std::optional<LockMode> held = ref.HeldMode(res, txn);
      if (acquired.count({t, r}) != 0 && !held) ++after_drop;
      if (held && settled.count(t) != 0) ++after_settle;
      if (held && Strength(mode) > Strength(*held)) ++upgrades;
      acquired.insert({t, r});
      const LockGrant want = ref.Acquire(res, mode, txn, now, release);
      const LockGrant got = lm.Acquire(res, mode, txn, now, release);
      ASSERT_EQ(got.granted_at, want.granted_at) << "step " << step;
      ASSERT_EQ(got.waited_us, want.waited_us) << "step " << step;
    } else if (op < 80) {
      const LockResource& res = resources[pick(resources.size())];
      const LockMode mode = static_cast<LockMode>(pick(4));
      ASSERT_EQ(lm.EarliestGrant(res, mode, txn, clock),
                ref.EarliestGrant(res, mode, txn, clock))
          << "step " << step;
    } else if (op < 92) {
      const SimTime at = clock + static_cast<SimTime>(pick(60));
      ref.SettleAll(txn, at);
      lm.SettleAll(txn, at);
      settled.insert(t);
    } else if (op < 95) {
      ref.ReleaseAll(txn);
      lm.ReleaseAll(txn);
    } else {
      horizon = std::max(horizon, clock - static_cast<SimTime>(pick(300)));
      ref.Prune(horizon);
      lm.Prune(horizon);
    }
    ASSERT_EQ(lm.GrantCount(), ref.GrantCount()) << "step " << step;
    max_grants = std::max(max_grants, ref.GrantCount());
  }
  // The mix reached every path the fast table special-cases.
  EXPECT_GT(after_settle, 100);
  EXPECT_GT(after_drop, 100);
  EXPECT_GT(upgrades, 100);
  EXPECT_GT(max_grants, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockDifferentialTest,
                         ::testing::Values(1, 7, 42, 12345, 999983));

// ------------------------------------------------------------ VersionStore

Txn MakeTxn(uint64_t id, SimTime now = 0) {
  Txn t;
  t.id = TxnId(id);
  t.begin_ts = id;
  t.start_time = now;
  t.now = now;
  return t;
}

std::vector<uint8_t> Payload(uint8_t v) { return std::vector<uint8_t>(16, v); }

TEST(VersionStore, BulkLoadedReadsFromPage) {
  VersionStore vs;
  auto view = vs.Read(TableId(1), 42, 100, TxnId(5));
  EXPECT_EQ(view.source, VersionStore::ReadView::Source::kPage);
}

TEST(VersionStore, ProvisionalVisibleOnlyToWriter) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(vs.Write(TableId(1), 42, w, Payload(1), Payload(2), false).ok());
  // Writer sees its own provisional version (materialized in the page).
  EXPECT_EQ(vs.Read(TableId(1), 42, 10, w.id).source,
            VersionStore::ReadView::Source::kPage);
  // A concurrent reader resolves to the pre-image from the chain.
  auto other = vs.Read(TableId(1), 42, 9, TxnId(9));
  EXPECT_EQ(other.source, VersionStore::ReadView::Source::kChain);
  ASSERT_NE(other.payload, nullptr);
  EXPECT_EQ((*other.payload)[0], 1);
}

TEST(VersionStore, CommitMakesVersionVisible) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(vs.Write(TableId(1), 42, w, Payload(1), Payload(2), false).ok());
  w.commit_ts = 20;
  vs.Commit(w);
  // Snapshot after commit reads the page (newest version).
  EXPECT_EQ(vs.Read(TableId(1), 42, 25, TxnId(25)).source,
            VersionStore::ReadView::Source::kPage);
  // Snapshot before commit still reads the old version from the chain.
  auto old_view = vs.Read(TableId(1), 42, 15, TxnId(15));
  EXPECT_EQ(old_view.source, VersionStore::ReadView::Source::kChain);
  EXPECT_EQ((*old_view.payload)[0], 1);
}

TEST(VersionStore, DeleteKeepsOldVersionForOldReaders) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(
      vs.Write(TableId(1), 42, w, Payload(1), std::nullopt, true).ok());
  w.commit_ts = 20;
  vs.Commit(w);
  EXPECT_EQ(vs.Read(TableId(1), 42, 25, TxnId(25)).source,
            VersionStore::ReadView::Source::kDeleted);
  auto old_view = vs.Read(TableId(1), 42, 15, TxnId(15));
  EXPECT_EQ(old_view.source, VersionStore::ReadView::Source::kChain);
  EXPECT_EQ((*old_view.payload)[0], 1);
}

TEST(VersionStore, FreshInsertInvisibleToOlderSnapshots) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(
      vs.Write(TableId(1), 42, w, std::nullopt, Payload(3), false).ok());
  w.commit_ts = 20;
  vs.Commit(w);
  EXPECT_EQ(vs.Read(TableId(1), 42, 15, TxnId(15)).source,
            VersionStore::ReadView::Source::kInvisible);
  EXPECT_EQ(vs.Read(TableId(1), 42, 21, TxnId(21)).source,
            VersionStore::ReadView::Source::kPage);
}

TEST(VersionStore, WriteWriteConflictRejected) {
  VersionStore vs;
  Txn a = MakeTxn(10), b = MakeTxn(11);
  ASSERT_TRUE(vs.Write(TableId(1), 42, a, Payload(1), Payload(2), false).ok());
  EXPECT_TRUE(vs.Write(TableId(1), 42, b, std::nullopt, Payload(3), false)
                  .IsBusy());
  EXPECT_TRUE(vs.HasConflictingWriter(TableId(1), 42, b.id));
  EXPECT_FALSE(vs.HasConflictingWriter(TableId(1), 42, a.id));
}

TEST(VersionStore, AbortRestoresPreImage) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(vs.Write(TableId(1), 42, w, Payload(1), Payload(2), false).ok());
  auto undo = vs.Abort(w);
  ASSERT_EQ(undo.size(), 1u);
  ASSERT_TRUE(undo[0].pre_image.has_value());
  EXPECT_EQ((*undo[0].pre_image)[0], 1);
  // Chain rolled back to the pre-image; new readers see the page again.
  EXPECT_EQ(vs.Read(TableId(1), 42, 20, TxnId(20)).source,
            VersionStore::ReadView::Source::kPage);
}

TEST(VersionStore, AbortOfInsertDemandsDeletion) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(
      vs.Write(TableId(1), 42, w, std::nullopt, Payload(2), false).ok());
  auto undo = vs.Abort(w);
  ASSERT_EQ(undo.size(), 1u);
  EXPECT_FALSE(undo[0].pre_image.has_value());
}

TEST(VersionStore, GcReclaimsOldVersions) {
  VersionStore vs;
  for (uint64_t i = 0; i < 5; ++i) {
    Txn w = MakeTxn(10 + i);
    ASSERT_TRUE(vs.Write(TableId(1), 42, w, i == 0 ? std::make_optional(Payload(0)) : std::nullopt,
                         Payload(static_cast<uint8_t>(i)), false)
                    .ok());
    w.commit_ts = 100 + i;
    vs.Commit(w);
  }
  const size_t before = vs.OverheadBytes();
  vs.Gc(/*min_active=*/1000);
  EXPECT_LT(vs.OverheadBytes(), before);
  EXPECT_EQ(vs.ChainCount(), 0u);  // Fully mirrored by the page.
  EXPECT_EQ(vs.OverheadBytes(), 0u);
}

TEST(VersionStore, GcKeepsVersionsForActiveSnapshots) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(vs.Write(TableId(1), 42, w, Payload(1), Payload(2), false).ok());
  w.commit_ts = 20;
  vs.Commit(w);
  vs.Gc(/*min_active=*/15);  // A snapshot at 15 still needs the pre-image.
  auto view = vs.Read(TableId(1), 42, 15, TxnId(15));
  EXPECT_EQ(view.source, VersionStore::ReadView::Source::kChain);
  EXPECT_EQ((*view.payload)[0], 1);
}

TEST(VersionStore, RangeResolution) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(vs.Write(TableId(1), 5, w, Payload(1), std::nullopt, true).ok());
  ASSERT_TRUE(vs.Write(TableId(1), 7, w, std::nullopt, Payload(2), false).ok());
  ASSERT_TRUE(vs.Write(TableId(2), 6, w, std::nullopt, Payload(3), false).ok());
  w.commit_ts = 20;
  vs.Commit(w);
  int seen = 0;
  vs.ForEachResolvedInRange(TableId(1), 0, 10, 25, TxnId(25),
                            [&](Key k, const VersionStore::ReadView& view) {
                              ++seen;
                              if (k == 5) {
                                EXPECT_EQ(view.source,
                                          VersionStore::ReadView::Source::kDeleted);
                              }
                            });
  EXPECT_EQ(seen, 2);  // Table 2's chain not visited.
}

TEST(VersionStore, WriteSetSurvivesGcAndOtherTransactions) {
  // A transaction's write set must still reach its own chains when, between
  // its writes and its Commit/Abort, Gc sweeps and other transactions
  // commit and abort (one of them erasing its own chain).
  using Source = VersionStore::ReadView::Source;
  VersionStore vs;
  Txn a = MakeTxn(10), e = MakeTxn(11);
  ASSERT_TRUE(vs.Write(TableId(1), 1, a, Payload(1), Payload(2), false).ok());
  ASSERT_TRUE(
      vs.Write(TableId(1), 2, a, std::nullopt, Payload(3), false).ok());
  ASSERT_TRUE(vs.Write(TableId(1), 3, a, Payload(4), std::nullopt, true).ok());
  ASSERT_TRUE(vs.Write(TableId(1), 20, e, Payload(5), Payload(6), false).ok());
  ASSERT_TRUE(
      vs.Write(TableId(1), 21, e, std::nullopt, Payload(7), false).ok());
  for (uint64_t i = 0; i < 50; ++i) {
    Txn other = MakeTxn(100 + i);
    const Key k = 1000 + i;
    ASSERT_TRUE(vs.Write(TableId(1), k, other,
                         i % 2 ? std::make_optional(Payload(8)) : std::nullopt,
                         Payload(9), false)
                    .ok());
    if (i % 3 == 0) {
      vs.Abort(other);  // Fresh inserts erase their chain here.
    } else {
      other.commit_ts = 200 + i;
      vs.Commit(other);
    }
    vs.Gc(/*min_active=*/10);
  }
  vs.Gc(/*min_active=*/1000);

  a.commit_ts = 300;
  vs.Commit(a);
  EXPECT_EQ(vs.Read(TableId(1), 1, 300, TxnId(300)).source, Source::kPage);
  EXPECT_EQ(vs.Read(TableId(1), 2, 300, TxnId(300)).source, Source::kPage);
  EXPECT_EQ(vs.Read(TableId(1), 3, 300, TxnId(300)).source, Source::kDeleted);
  auto old = vs.Read(TableId(1), 1, 299, TxnId(299));
  ASSERT_EQ(old.source, Source::kChain);
  EXPECT_EQ((*old.payload)[0], 1);
  EXPECT_EQ(vs.Read(TableId(1), 2, 299, TxnId(299)).source,
            Source::kInvisible);

  auto undo = vs.Abort(e);
  ASSERT_EQ(undo.size(), 2u);
  EXPECT_EQ(undo[0].key, 20u);
  ASSERT_TRUE(undo[0].pre_image.has_value());
  EXPECT_EQ((*undo[0].pre_image)[0], 5);
  EXPECT_EQ(undo[1].key, 21u);
  EXPECT_FALSE(undo[1].pre_image.has_value());
  EXPECT_EQ(vs.Read(TableId(1), 21, 400, TxnId(400)).source, Source::kPage);
}

TEST(VersionStore, AbortThatEmptiesTheChainDropsIt) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(
      vs.Write(TableId(1), 42, w, std::nullopt, Payload(2), false).ok());
  EXPECT_EQ(vs.ChainCount(), 1u);
  vs.Abort(w);
  EXPECT_EQ(vs.ChainCount(), 0u);
  EXPECT_EQ(vs.VersionCount(), 0u);
  EXPECT_EQ(vs.OverheadBytes(), 0u);
  // The key is writable again, by a later transaction, from a fresh chain.
  Txn again = MakeTxn(11);
  ASSERT_TRUE(
      vs.Write(TableId(1), 42, again, std::nullopt, Payload(3), false).ok());
  again.commit_ts = 20;
  vs.Commit(again);
  EXPECT_EQ(vs.VersionCount(), 1u);
  EXPECT_EQ(vs.Read(TableId(1), 42, 20, TxnId(20)).source,
            VersionStore::ReadView::Source::kPage);
}

TEST(VersionStore, SameTxnOverwriteKeepsOneWriteSetEntry) {
  VersionStore vs;
  Txn w = MakeTxn(10);
  ASSERT_TRUE(vs.Write(TableId(1), 42, w, Payload(1), Payload(2), false).ok());
  ASSERT_TRUE(
      vs.Write(TableId(1), 42, w, std::nullopt, Payload(3), false).ok());
  ASSERT_TRUE(
      vs.Write(TableId(1), 42, w, std::nullopt, std::nullopt, true).ok());
  EXPECT_EQ(vs.VersionCount(), 2u);  // The pre-image and one provisional.
  auto undo = vs.Abort(w);
  ASSERT_EQ(undo.size(), 1u);
  ASSERT_TRUE(undo[0].pre_image.has_value());
  EXPECT_EQ((*undo[0].pre_image)[0], 1);
  EXPECT_EQ(vs.VersionCount(), 1u);

  Txn c = MakeTxn(11);
  ASSERT_TRUE(
      vs.Write(TableId(1), 7, c, std::nullopt, Payload(4), false).ok());
  ASSERT_TRUE(
      vs.Write(TableId(1), 7, c, std::nullopt, Payload(5), false).ok());
  c.commit_ts = 20;
  vs.Commit(c);
  EXPECT_EQ(vs.VersionCount(), 2u);  // Key 42's pre-image, key 7's commit.
  EXPECT_EQ(vs.Read(TableId(1), 7, 19, TxnId(19)).source,
            VersionStore::ReadView::Source::kInvisible);
}

// -------------------------------------------------------------- LogManager

struct LogRig {
  hw::Network network;
  hw::Disk disk{DiskId(0), NodeId(0), hw::DiskSpec::Hdd(), "wal"};
  hw::Disk helper_disk{DiskId(1), NodeId(1), hw::DiskSpec::Hdd(), "helper"};
  LogManager log{NodeId(0), &disk, &network};

  LogRig() {
    network.AddNode(NodeId(0));
    network.AddNode(NodeId(1));
  }
};

LogRecord MakeRecord(LogRecordType type, Key key = 1) {
  LogRecord r;
  r.type = type;
  r.txn = TxnId(1);
  r.table = TableId(1);
  r.partition = PartitionId(1);
  r.key = key;
  r.after_image = {1, 2, 3};
  return r;
}

TEST(LogManager, AppendsAssignLsnsAndTakeTime) {
  LogRig rig;
  const SimTime d1 = rig.log.Append(0, MakeRecord(LogRecordType::kInsert));
  const SimTime d2 = rig.log.Append(d1, MakeRecord(LogRecordType::kCommit));
  EXPECT_GT(d1, 0);
  EXPECT_GT(d2, d1);
  ASSERT_EQ(rig.log.records().size(), 2u);
  EXPECT_EQ(rig.log.records()[0].lsn + 1, rig.log.records()[1].lsn);
  EXPECT_GT(rig.log.bytes_written(), 0);
}

TEST(LogManager, HelperShipsOverNetwork) {
  LogRig rig;
  rig.log.AttachHelper(NodeId(1), &rig.helper_disk);
  EXPECT_TRUE(rig.log.HasHelper());
  rig.log.Append(0, MakeRecord(LogRecordType::kInsert));
  EXPECT_GT(rig.network.messages_sent(), 0);
  EXPECT_EQ(rig.disk.bytes_transferred(), 0);   // Local WAL disk untouched.
  EXPECT_GT(rig.helper_disk.bytes_transferred(), 0);
  rig.log.DetachHelper(500);
  rig.log.Append(1000, MakeRecord(LogRecordType::kInsert));
  EXPECT_GT(rig.disk.bytes_transferred(), 0);
}

// Regression for the mid-shipping attach/detach transition: records
// appended while a helper is attached are durable only on the helper's
// disk. A graceful detach must read that tail back and re-append it
// locally (costing real simulated time) before dropping the redirect —
// otherwise powering the helper off silently discards acknowledged
// commits.
TEST(LogManager, GracefulDetachRelocalizesShippedTail) {
  LogRig rig;
  rig.log.AttachHelper(NodeId(1), &rig.helper_disk);
  SimTime t = 0;
  for (int i = 0; i < 10; ++i) {
    t = rig.log.Append(t, MakeRecord(LogRecordType::kInsert, i));
  }
  const int64_t held = rig.log.helper_held_bytes();
  EXPECT_GT(held, 0);
  EXPECT_EQ(rig.disk.bytes_transferred(), 0);

  // Detach while the last append's durability time is still in the
  // future ("append in flight"): the held tail covers it regardless.
  const SimTime detach_at = t / 2;
  const SimTime durable_at = rig.log.DetachHelper(detach_at);
  EXPECT_FALSE(rig.log.HasHelper());
  EXPECT_EQ(rig.log.helper_held_bytes(), 0);
  // Re-localization charged: helper read + network hop + local append.
  EXPECT_GT(durable_at, detach_at);
  EXPECT_GE(rig.disk.bytes_transferred(), held);
  // The in-memory record stream is intact for later redo.
  EXPECT_EQ(rig.log.records().size(), 10u);

  // After detach, replay reads come from the local disk again.
  const int64_t local_before = rig.disk.bytes_transferred();
  rig.log.ChargeReplayRead(durable_at, 1024);
  EXPECT_GT(rig.disk.bytes_transferred(), local_before);
}

// A crashed helper takes the shipped tail's only durable copy with it:
// DetachHelperLost must re-force the tail from the in-memory log buffer
// to the local disk immediately.
TEST(LogManager, LostHelperReforcesTailLocally) {
  LogRig rig;
  rig.log.AttachHelper(NodeId(1), &rig.helper_disk);
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) {
    t = rig.log.Append(t, MakeRecord(LogRecordType::kInsert, i));
  }
  const int64_t held = rig.log.helper_held_bytes();
  ASSERT_GT(held, 0);
  const int64_t helper_messages = rig.network.messages_sent();

  const SimTime durable_at = rig.log.DetachHelperLost(t);
  EXPECT_FALSE(rig.log.HasHelper());
  EXPECT_GT(durable_at, t);
  // Re-force is local-only: the helper (and the network path to it) is gone.
  EXPECT_GE(rig.disk.bytes_transferred(), held);
  EXPECT_EQ(rig.network.messages_sent(), helper_messages);
  EXPECT_EQ(rig.log.records().size(), 5u);

  // Re-attach starts a fresh held-tail epoch: only post-attach appends
  // count against the new helper.
  rig.log.AttachHelper(NodeId(1), &rig.helper_disk);
  EXPECT_EQ(rig.log.helper_held_bytes(), 0);
  rig.log.Append(durable_at, MakeRecord(LogRecordType::kInsert, 99));
  EXPECT_GT(rig.log.helper_held_bytes(), 0);
  EXPECT_LT(rig.log.helper_held_bytes(), held);
}

TEST(LogManager, TailAndTruncate) {
  LogRig rig;
  for (int i = 0; i < 5; ++i) {
    rig.log.Append(i, MakeRecord(LogRecordType::kInsert, i));
  }
  EXPECT_EQ(rig.log.Tail(2).size(), 3u);
  rig.log.TruncateUpTo(3);
  EXPECT_EQ(rig.log.records().size(), 2u);
  EXPECT_EQ(rig.log.Tail(0).size(), 2u);
}

TEST(LogManager, TailAfterHonorsLastCheckpoint) {
  LogRig rig;
  rig.log.Append(0, MakeRecord(LogRecordType::kInsert, 1));   // lsn 1
  rig.log.Append(1, MakeRecord(LogRecordType::kInsert, 2));   // lsn 2
  rig.log.Append(2, MakeRecord(LogRecordType::kCheckpoint));  // lsn 3
  rig.log.Append(3, MakeRecord(LogRecordType::kUpdate, 2));   // lsn 4
  rig.log.Append(4, MakeRecord(LogRecordType::kDelete, 1));   // lsn 5
  // Another partition's record is not part of partition 1's redo tail.
  LogRecord other = MakeRecord(LogRecordType::kInsert, 9);
  other.partition = PartitionId(2);
  rig.log.Append(5, other);  // lsn 6

  EXPECT_EQ(rig.log.LastCheckpointLsn(PartitionId(1)), 3u);
  const auto tail = rig.log.TailAfter(PartitionId(1));
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].type, LogRecordType::kUpdate);
  EXPECT_EQ(tail[1].type, LogRecordType::kDelete);

  // A never-checkpointed partition replays from the log's beginning.
  EXPECT_EQ(rig.log.LastCheckpointLsn(PartitionId(2)), 0u);
  ASSERT_EQ(rig.log.TailAfter(PartitionId(2)).size(), 1u);
  EXPECT_EQ(rig.log.TailAfter(PartitionId(2))[0].key, 9u);
}

TEST(LogManager, TailAfterEmptyWhenNothingFollowsCheckpoint) {
  LogRig rig;
  // Empty log: empty tail.
  EXPECT_TRUE(rig.log.TailAfter(PartitionId(1)).empty());
  // Everything before the checkpoint is already durable in the moved
  // segment (§4.3): the tail right after a move completes is empty.
  rig.log.Append(0, MakeRecord(LogRecordType::kInsert, 1));
  rig.log.Append(1, MakeRecord(LogRecordType::kCheckpoint));
  EXPECT_TRUE(rig.log.TailAfter(PartitionId(1)).empty());
}

TEST(LogManager, ChargeReplayReadCostsDiskTime) {
  LogRig rig;
  EXPECT_EQ(rig.log.ChargeReplayRead(42, 0), 42);
  const SimTime done = rig.log.ChargeReplayRead(0, 1 << 20);
  EXPECT_GT(done, 0);
  EXPECT_GT(rig.disk.bytes_transferred(), 0);
}

// ------------------------------------------------------ TransactionManager

TEST(TransactionManager, BeginAssignsMonotoneTimestamps) {
  TransactionManager tm;
  Txn* a = tm.Begin(0);
  Txn* b = tm.Begin(10);
  EXPECT_LT(a->begin_ts, b->begin_ts);
  EXPECT_EQ(tm.active_count(), 2u);
}

TEST(TransactionManager, CommitStampsAndCounts) {
  TransactionManager tm;
  Txn* t = tm.Begin(0);
  t->AdvanceTo(500);
  const Timestamp cts = tm.Commit(t);
  EXPECT_GT(cts, t->begin_ts);
  EXPECT_EQ(t->state, TxnState::kCommitted);
  EXPECT_EQ(tm.committed(), 1);
  tm.Release(t->id);
  EXPECT_EQ(tm.active_count(), 0u);
}

TEST(TransactionManager, MinActiveIgnoresFinished) {
  TransactionManager tm;
  Txn* a = tm.Begin(0);
  Txn* b = tm.Begin(0);
  const Timestamp a_ts = a->begin_ts;
  tm.Commit(a);
  EXPECT_GT(tm.MinActiveTs(), a_ts);
  EXPECT_EQ(tm.MinActiveTs(), b->begin_ts);
  tm.Commit(b);
  tm.Release(a->id);
  tm.Release(b->id);
}

TEST(TransactionManager, AbortReturnsUndo) {
  TransactionManager tm;
  Txn* t = tm.Begin(0);
  ASSERT_TRUE(tm.versions()
                  .Write(TableId(1), 9, *t, Payload(1), Payload(2), false)
                  .ok());
  auto undo = tm.Abort(t);
  EXPECT_EQ(undo.size(), 1u);
  EXPECT_EQ(tm.aborted(), 1);
}

TEST(TransactionManager, VacuumShrinksVersionStore) {
  TransactionManager tm;
  for (int i = 0; i < 3; ++i) {
    Txn* t = tm.Begin(0);
    ASSERT_TRUE(tm.versions()
                    .Write(TableId(1), 9, *t,
                           i == 0 ? std::make_optional(Payload(0)) : std::nullopt,
                           Payload(static_cast<uint8_t>(i)), false)
                    .ok());
    tm.Commit(t);
    tm.Release(t->id);
  }
  EXPECT_GT(tm.versions().OverheadBytes(), 0u);
  tm.Vacuum();
  EXPECT_EQ(tm.versions().OverheadBytes(), 0u);
}

TEST(Txn, ComponentAccounting) {
  Txn t = MakeTxn(1, 1000);
  t.AdvanceTo(1500);
  t.cpu_us = 100;
  t.disk_us = 200;
  EXPECT_EQ(t.Elapsed(), 500);
  EXPECT_EQ(t.OtherUs(), 200);
  t.AdvanceTo(1400);  // Monotone: no-op.
  EXPECT_EQ(t.now, 1500);
}

}  // namespace
}  // namespace wattdb::tx
