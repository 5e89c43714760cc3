// Unit tests for the per-key register linearizability checker
// (src/chaos/linearize.cc) on hand-built histories: known-linearizable
// shapes must pass, known-broken shapes must fail with the right named
// anomaly and a minimal failing sub-history, and the indeterminate /
// replica-read relaxations must neither over- nor under-report.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "chaos/history.h"
#include "common/rng.h"
#include "linearize_reference.h"

namespace wattdb::chaos {
namespace {

HistoryOp Op(OpKind kind, Key key, uint64_t seq, SimTime inv, SimTime resp,
             OpOutcome outcome = OpOutcome::kOk, int client = 0) {
  HistoryOp op;
  op.kind = kind;
  op.key = key;
  op.seq = seq;
  op.invoked_at = inv;
  op.responded_at = resp;
  op.outcome = outcome;
  op.client = client;
  return op;
}

TEST(Linearize, EmptyHistoryPasses) {
  HistoryRecorder rec;
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.keys_checked, 0);
}

TEST(Linearize, SequentialRegisterPasses) {
  HistoryRecorder rec;
  rec.RecordInitial(7, 1);
  rec.Record(Op(OpKind::kRead, 7, 1, 10, 20));
  rec.Record(Op(OpKind::kWrite, 7, 2, 30, 40));
  rec.Record(Op(OpKind::kRead, 7, 2, 50, 60));
  rec.Record(Op(OpKind::kWrite, 7, 3, 70, 80));
  rec.Record(Op(OpKind::kRead, 7, 3, 90, 100));
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front().anomaly;
  EXPECT_EQ(r.keys_checked, 1);
  EXPECT_EQ(r.keys_over_budget, 0);
}

TEST(Linearize, ConcurrentOverlapMayOrderEitherWay) {
  // Two overlapping writes and a read that observed the one invoked
  // second: legal — the linearization point of the second write may fall
  // before the read.
  HistoryRecorder rec;
  rec.Record(Op(OpKind::kWrite, 1, 10, 0, 100, OpOutcome::kOk, 1));
  rec.Record(Op(OpKind::kWrite, 1, 11, 50, 150, OpOutcome::kOk, 2));
  rec.Record(Op(OpKind::kRead, 1, 11, 60, 90, OpOutcome::kOk, 3));
  EXPECT_TRUE(CheckHistory(rec).violations.empty());
}

TEST(Linearize, StaleReadIsCaught) {
  // seq 2 committed strictly before the read began, yet the read observed
  // the older seq 1 — a stale read, no legal linearization order exists.
  HistoryRecorder rec;
  rec.RecordInitial(3, 1);
  rec.Record(Op(OpKind::kWrite, 3, 2, 10, 20));
  rec.Record(Op(OpKind::kRead, 3, 1, 30, 40));
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("stale read"), std::string::npos)
      << r.violations[0].anomaly;
  EXPECT_EQ(r.violations[0].key, 3u);
}

TEST(Linearize, LostReadIsCaught) {
  // The key was loaded and then written, yet a later read observed it
  // absent (seq 0) — a lost read.
  HistoryRecorder rec;
  rec.RecordInitial(5, 1);
  rec.Record(Op(OpKind::kWrite, 5, 2, 10, 20));
  rec.Record(Op(OpKind::kRead, 5, 0, 30, 40));
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("lost read"), std::string::npos)
      << r.violations[0].anomaly;
}

TEST(Linearize, NeverWrittenValueIsCaught) {
  HistoryRecorder rec;
  rec.RecordInitial(9, 1);
  rec.Record(Op(OpKind::kRead, 9, 42, 10, 20));
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("no recorded write"),
            std::string::npos)
      << r.violations[0].anomaly;
}

TEST(Linearize, FailedWriteMustNotBeObserved) {
  // A kFailed write was deliberately rolled back; observing its value is
  // a refused-write resurfacing.
  HistoryRecorder rec;
  rec.RecordInitial(2, 1);
  rec.Record(Op(OpKind::kWrite, 2, 7, 10, 20, OpOutcome::kFailed));
  rec.Record(Op(OpKind::kRead, 2, 7, 30, 40));
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
}

TEST(Linearize, IndeterminateWriteMayLandOrNot) {
  // Either reading the indeterminate value or never seeing it is legal.
  for (const uint64_t observed : {uint64_t{1}, uint64_t{5}}) {
    HistoryRecorder rec;
    rec.RecordInitial(4, 1);
    rec.Record(Op(OpKind::kWrite, 4, 5, 10, 20, OpOutcome::kIndeterminate));
    rec.Record(Op(OpKind::kRead, 4, observed, 30, 40));
    EXPECT_TRUE(CheckHistory(rec).violations.empty())
        << "observed=" << observed << ": "
        << CheckHistory(rec).violations.front().anomaly;
  }
}

TEST(Linearize, IndeterminateWriteTakesEffectWithoutResponseOrdering) {
  // An indeterminate write whose effect surfaced long after the client
  // gave up: its response is lifted to infinity, so a much later read of
  // its value is still legal...
  HistoryRecorder rec;
  rec.RecordInitial(6, 1);
  rec.Record(Op(OpKind::kWrite, 6, 2, 10, 20, OpOutcome::kIndeterminate));
  rec.Record(Op(OpKind::kRead, 6, 1, 30, 40));
  rec.Record(Op(OpKind::kRead, 6, 2, 50, 60));
  EXPECT_TRUE(CheckHistory(rec).violations.empty());
  // ...but flipping BACK to the old value after the new one was observed
  // is not: no register order serves 1, then 2, then 1 again.
  rec.Record(Op(OpKind::kRead, 6, 1, 70, 80));
  EXPECT_FALSE(CheckHistory(rec).violations.empty());
}

TEST(Linearize, ReplicaReadMayBeBoundedStale) {
  // A replica read lagging behind a committed write is within the bounded-
  // staleness contract — the relaxed check must not flag it.
  HistoryRecorder rec;
  rec.RecordInitial(8, 1);
  rec.Record(Op(OpKind::kWrite, 8, 2, 10, 20));
  HistoryOp stale = Op(OpKind::kRead, 8, 1, 30, 40);
  stale.from_replica = true;
  rec.Record(stale);
  EXPECT_TRUE(CheckHistory(rec).violations.empty());
}

TEST(Linearize, ReplicaReadOfAbsentLoadedKeyIsCaught) {
  // Staleness never explains absence of a key that predates the window
  // and was never deleted: the replica simply never had it (the wrong-
  // NotFound shape the routing fix closed).
  HistoryRecorder rec;
  rec.RecordInitial(8, 1);
  HistoryOp absent = Op(OpKind::kRead, 8, 0, 30, 40);
  absent.from_replica = true;
  rec.Record(absent);
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("replica"), std::string::npos);
}

TEST(Linearize, TxnMarkersAreSkipped) {
  HistoryRecorder rec;
  rec.Record(Op(OpKind::kTxn, 0, 0, 10, 20));
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.keys_checked, 0);
}

TEST(Linearize, MinimalSubHistoryEndsAtTheOffendingRead) {
  // A long healthy tail after the violation must be truncated away: the
  // sub-history ends at the earliest cut that already fails, i.e. the
  // offending read's response, not the full key history.
  HistoryRecorder rec;
  rec.RecordInitial(1, 1);
  rec.Record(Op(OpKind::kWrite, 1, 2, 10, 20));
  rec.Record(Op(OpKind::kRead, 1, 1, 30, 40));  // Stale: the violation.
  for (int i = 0; i < 50; ++i) {
    rec.Record(Op(OpKind::kWrite, 1, 3 + i, 100 + 20 * i, 110 + 20 * i));
    rec.Record(Op(OpKind::kRead, 1, 3 + i, 112 + 20 * i, 118 + 20 * i));
  }
  const HistoryCheckResult r = CheckHistory(rec);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_LE(r.violations[0].sub_history.size(), 3u)
      << "sub-history kept the healthy tail";
  SimTime max_resp = 0;
  for (const HistoryOp& op : r.violations[0].sub_history) {
    if (op.responded_at > max_resp && op.outcome == OpOutcome::kOk) {
      max_resp = op.responded_at;
    }
  }
  EXPECT_LE(max_resp, SimTime{40});
}

TEST(Linearize, PerKeyIsolationReportsEveryBrokenKey) {
  HistoryRecorder rec;
  for (Key k = 0; k < 4; ++k) {
    rec.RecordInitial(k, 1);
    rec.Record(Op(OpKind::kWrite, k, 2, 10, 20));
    // Keys 1 and 3 get a stale read; 0 and 2 stay healthy.
    rec.Record(Op(OpKind::kRead, k, (k % 2 == 1) ? 1 : 2, 30, 40));
  }
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_EQ(r.keys_checked, 4);
  ASSERT_EQ(r.violations.size(), 2u);
  EXPECT_EQ(r.violations[0].key, 1u);
  EXPECT_EQ(r.violations[1].key, 3u);
}

// ------------------------------------------------- brute-force oracle

/// Register linearizability by exhaustive enumeration, independent of the
/// checker's search: for every subset of the indeterminate writes/deletes
/// that took effect, try every order of the participating ops that
/// respects real time (an indeterminate op has no response, so it never
/// has to precede anything) and replay the register along it.
bool BruteForceLinearizable(const std::vector<HistoryOp>& ops,
                            uint64_t initial) {
  std::vector<HistoryOp> strict;
  std::vector<size_t> optional;
  for (const HistoryOp& op : ops) {
    if (op.outcome == OpOutcome::kFailed) continue;  // Definitely no effect.
    if (op.kind == OpKind::kRead && op.outcome != OpOutcome::kOk) continue;
    if (op.outcome == OpOutcome::kIndeterminate) {
      optional.push_back(strict.size());
    }
    strict.push_back(op);
  }
  const auto precedes = [](const HistoryOp& a, const HistoryOp& b) {
    return a.outcome == OpOutcome::kOk && a.responded_at < b.invoked_at;
  };
  for (uint32_t taken = 0; taken < (1u << optional.size()); ++taken) {
    std::vector<size_t> order;
    for (size_t i = 0, o = 0; i < strict.size(); ++i) {
      const bool is_optional = o < optional.size() && optional[o] == i;
      if (is_optional && ((taken >> o++) & 1) == 0) continue;
      order.push_back(i);
    }
    do {
      bool ok = true;
      uint64_t value = initial;
      for (size_t p = 0; ok && p < order.size(); ++p) {
        const HistoryOp& op = strict[order[p]];
        for (size_t q = p + 1; ok && q < order.size(); ++q) {
          if (precedes(strict[order[q]], op)) ok = false;
        }
        if (op.kind == OpKind::kRead) {
          ok = ok && op.seq == value;
        } else {
          value = op.kind == OpKind::kWrite ? op.seq : 0;
        }
      }
      if (ok) return true;
    } while (std::next_permutation(order.begin(), order.end()));
  }
  return false;
}

TEST(Linearize, MatchesBruteForceOnRandomSmallHistories) {
  // Seeded random one-key histories of up to 8 ops on a short clock (so
  // most ops overlap): ok, failed and indeterminate writes and deletes,
  // reads of written, rolled-back and absent values, and indeterminate
  // writes no read observes. The checker's verdict must equal the
  // exhaustive one on every history.
  Rng rng(20150413);
  int linearizable = 0, broken = 0, with_unobserved = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const bool loaded = rng.UniformInt(0, 1) == 1;
    const int n = static_cast<int>(rng.UniformInt(1, 8));
    std::vector<HistoryOp> ops;
    std::vector<uint64_t> values = {0};
    if (loaded) values.push_back(1);
    uint64_t next_seq = 2;
    for (int i = 0; i < n; ++i) {
      const SimTime inv = rng.UniformInt(0, 30);
      const SimTime resp = inv + rng.UniformInt(1, 10);
      const int64_t pick = rng.UniformInt(0, 9);
      const OpOutcome outcome = pick < 6   ? OpOutcome::kOk
                                : pick < 8 ? OpOutcome::kIndeterminate
                                           : OpOutcome::kFailed;
      const int64_t shape = rng.UniformInt(0, 9);
      if (shape < 4) {
        const uint64_t seq = next_seq++;
        values.push_back(seq);
        ops.push_back(Op(OpKind::kWrite, 1, seq, inv, resp, outcome));
      } else if (shape < 5) {
        ops.push_back(Op(OpKind::kDelete, 1, 0, inv, resp, outcome));
      } else {
        // Reads are decided once every value is known; mark the slot.
        ops.push_back(Op(OpKind::kRead, 1, 0, inv, resp, outcome));
      }
    }
    const int64_t last_value = static_cast<int64_t>(values.size()) - 1;
    for (HistoryOp& op : ops) {
      if (op.kind != OpKind::kRead) continue;
      op.seq = values[rng.UniformInt(0, last_value)];
    }
    for (const HistoryOp& w : ops) {
      if (w.outcome != OpOutcome::kIndeterminate || w.kind == OpKind::kRead) {
        continue;
      }
      const bool observed = std::any_of(
          ops.begin(), ops.end(), [&](const HistoryOp& r) {
            return r.kind == OpKind::kRead && r.outcome == OpOutcome::kOk &&
                   r.seq == (w.kind == OpKind::kWrite ? w.seq : 0);
          });
      if (!observed) {
        ++with_unobserved;
        break;
      }
    }

    HistoryRecorder rec;
    if (loaded) rec.RecordInitial(1, 1);
    for (const HistoryOp& op : ops) rec.Record(op);
    const HistoryCheckResult r = CheckHistory(rec);
    const bool expected = BruteForceLinearizable(rec.ops(), loaded ? 1 : 0);
    ASSERT_EQ(r.keys_over_budget, 0) << "trial " << trial;
    ASSERT_EQ(r.violations.empty(), expected)
        << "trial " << trial << ": checker says "
        << (r.violations.empty() ? "linearizable" : r.violations[0].anomaly)
        << ", brute force says "
        << (expected ? "linearizable" : "not linearizable");
    (expected ? linearizable : broken) += 1;
  }
  // Not vacuous: both verdicts, and many histories the pruning touches.
  EXPECT_GT(linearizable, 300);
  EXPECT_GT(broken, 300);
  EXPECT_GT(with_unobserved, 300);
}

TEST(Linearize, ManyUnobservedIndeterminateWritesStayWithinBudget) {
  // A client that keeps timing out: 40 indeterminate writes nobody ever
  // reads, interleaved with a healthy committed write/read chain. Each
  // unobserved write would double the search space; pruned, the key is
  // decided within budget. The chain ends in a stale read, so the search
  // must explore everything before it may report the violation.
  HistoryRecorder rec;
  rec.RecordInitial(1, 1);
  for (int i = 0; i < 40; ++i) {
    const SimTime t = 100 * i;
    rec.Record(Op(OpKind::kWrite, 1, 1000 + i, t, t + 5,
                  OpOutcome::kIndeterminate, 1));
    rec.Record(Op(OpKind::kWrite, 1, 2 + i, t + 10, t + 20));
    rec.Record(Op(OpKind::kRead, 1, 2 + i, t + 30, t + 40));
  }
  HistoryRecorder healthy = rec;
  const HistoryCheckResult ok = CheckHistory(healthy);
  EXPECT_EQ(ok.keys_over_budget, 0);
  EXPECT_TRUE(ok.violations.empty()) << ok.violations.front().anomaly;

  rec.Record(Op(OpKind::kRead, 1, 40, 5000, 5010));  // Seq 41 is current.
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_EQ(r.keys_over_budget, 0);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_NE(r.violations[0].anomaly.find("stale read"), std::string::npos)
      << r.violations[0].anomaly;
}

TEST(Linearize, ObservedIndeterminateWriteIsKept) {
  // Seq 3's write is indeterminate but a read observed it, so it stays in
  // the search: that read passes. A later read of seq 3 after seq 4
  // committed is still a stale read, named exactly as before. The
  // unobserved indeterminate seq 9 is pruned from the search only — the
  // reported sub-history still carries it.
  HistoryRecorder rec;
  rec.RecordInitial(2, 1);
  rec.Record(Op(OpKind::kWrite, 2, 2, 10, 20));
  rec.Record(Op(OpKind::kWrite, 2, 3, 25, 30, OpOutcome::kIndeterminate));
  rec.Record(Op(OpKind::kWrite, 2, 9, 32, 34, OpOutcome::kIndeterminate));
  rec.Record(Op(OpKind::kRead, 2, 3, 40, 50));
  EXPECT_TRUE(CheckHistory(rec).violations.empty());

  rec.Record(Op(OpKind::kWrite, 2, 4, 60, 70));
  rec.Record(Op(OpKind::kRead, 2, 3, 80, 90));
  const HistoryCheckResult r = CheckHistory(rec);
  EXPECT_EQ(r.keys_over_budget, 0);
  ASSERT_EQ(r.violations.size(), 1u);
  EXPECT_EQ(r.violations[0].anomaly,
            "stale read on key 2: read (op 6, t=[80,90]us) observed seq 3 "
            "although seq 4 had committed before the read began");
  const std::vector<HistoryOp>& sub = r.violations[0].sub_history;
  ASSERT_FALSE(sub.empty());
  EXPECT_EQ(sub.back().id, 6u);
  EXPECT_TRUE(std::any_of(sub.begin(), sub.end(), [](const HistoryOp& op) {
    return op.seq == 9;
  })) << "the pruned write must stay in the reported sub-history";
}

// ------------------------------------- differential against the reference

/// One key's op before it is recorded, with where it takes effect.
struct PlannedOp {
  HistoryOp op;
  bool lands = false;  ///< Takes effect (ok, or indeterminate and landed).
  SimTime point = 0;   ///< Linearization point, when it lands.
  uint64_t tie = 0;    ///< Random order among equal times.
  size_t held_before = 0;  ///< Values the key held up to a read's point.
};

/// A seeded random history of `keys` keys with 100-400 ops each, built by
/// replaying a register along random linearization points, so most keys
/// are linearizable, and then breaking some. Two to four clients per key
/// run their ops back to back, which bounds the overlap; a 5 us clock makes
/// one op's response and another's invocation coincide often. Ops are
/// recorded in response order, out of invocation order. Indeterminate
/// writes and deletes land or not (and may land after the client gave up),
/// so some are observed and some never are; failed writes never land; a
/// few reads are served by replicas. Half of the keys get one bad read:
/// stale, lost, of a rolled-back write, or of a value nobody wrote.
HistoryRecorder RandomLongHistory(Rng* rng, Key keys, uint64_t* next_seq) {
  HistoryRecorder rec;
  std::vector<PlannedOp> all;
  for (Key key = 1; key <= keys; ++key) {
    uint64_t value = 0;
    if (rng->UniformInt(0, 1) == 1) {
      value = (*next_seq)++;
      rec.RecordInitial(key, value);
    }
    const int clients = static_cast<int>(rng->UniformInt(2, 4));
    std::vector<SimTime> clock(static_cast<size_t>(clients), 0);
    std::vector<PlannedOp> plan;
    std::vector<uint64_t> failed;
    const int64_t n = rng->UniformInt(100, 400);
    for (int64_t i = 0; i < n; ++i) {
      PlannedOp p;
      p.op.key = key;
      p.op.client = static_cast<int>(rng->UniformInt(0, clients - 1));
      SimTime& clock_of_client = clock[static_cast<size_t>(p.op.client)];
      p.op.invoked_at = clock_of_client + 5 * rng->UniformInt(0, 2);
      p.op.responded_at = p.op.invoked_at + 5 * rng->UniformInt(0, 4);
      clock_of_client = p.op.responded_at;
      const int64_t shape = rng->UniformInt(0, 19);
      const int64_t fate = rng->UniformInt(0, 19);
      SimTime latest = p.op.responded_at;
      if (shape < 11) {
        p.op.kind = shape < 9 ? OpKind::kWrite : OpKind::kDelete;
        p.op.seq = p.op.kind == OpKind::kWrite ? (*next_seq)++ : 0;
        p.op.outcome = fate < 17   ? OpOutcome::kOk
                       : fate < 18 ? OpOutcome::kIndeterminate
                                   : OpOutcome::kFailed;
        p.lands = p.op.outcome == OpOutcome::kOk ||
                  (p.op.outcome == OpOutcome::kIndeterminate &&
                   rng->UniformInt(0, 1) == 1);
        if (p.op.outcome == OpOutcome::kIndeterminate) latest += 20;
        if (p.op.outcome == OpOutcome::kFailed && p.op.seq != 0) {
          failed.push_back(p.op.seq);  // A rolled-back write's value.
        }
      } else {
        p.op.kind = OpKind::kRead;
        p.op.outcome = fate < 18 ? OpOutcome::kOk : OpOutcome::kFailed;
        p.op.from_replica = shape == 19;
        p.lands = true;
      }
      p.point = rng->UniformInt(p.op.invoked_at, latest);
      p.tie = rng->Next();
      plan.push_back(p);
    }

    // Replay the register along the linearization points: each read
    // observes the value current at its point.
    std::vector<PlannedOp*> order;
    for (PlannedOp& p : plan) {
      if (p.lands) order.push_back(&p);
    }
    std::sort(order.begin(), order.end(),
              [](const PlannedOp* a, const PlannedOp* b) {
                return a->point != b->point ? a->point < b->point
                                            : a->tie < b->tie;
              });
    std::vector<uint64_t> held = {value};
    for (PlannedOp* p : order) {
      if (p->op.kind == OpKind::kRead) {
        p->op.seq = value;
        p->held_before = held.size();
      } else {
        value = p->op.kind == OpKind::kWrite ? p->op.seq : 0;
        held.push_back(value);
      }
    }

    if (rng->UniformInt(0, 1) == 0) {
      std::vector<PlannedOp*> reads;
      for (PlannedOp& p : plan) {
        if (p.op.kind == OpKind::kRead && p.op.outcome == OpOutcome::kOk) {
          reads.push_back(&p);
        }
      }
      PlannedOp* read = reads[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(reads.size()) - 1))];
      HistoryOp& bad = read->op;
      const int64_t how = rng->UniformInt(0, 9);
      if (how < 6) {  // A value the key held before the read.
        bad.seq = held[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(read->held_before) - 1))];
      } else if (how < 7) {
        bad.seq = 0;
      } else if (how < 8 && !failed.empty()) {
        bad.seq = failed[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(failed.size()) - 1))];
      } else {
        bad.seq = (*next_seq)++;
      }
    }
    all.insert(all.end(), plan.begin(), plan.end());
  }
  std::sort(all.begin(), all.end(),
            [](const PlannedOp& a, const PlannedOp& b) {
              return a.op.responded_at != b.op.responded_at
                         ? a.op.responded_at < b.op.responded_at
                         : a.tie < b.tie;
            });
  for (const PlannedOp& p : all) rec.Record(p.op);
  return rec;
}

TEST(Linearize, MatchesReferenceOnLongRandomHistories) {
  // The checker against its pre-window self (linearize_reference.h) on
  // seeded random long histories: the same violations, with the same
  // anomaly text and the same minimal failing sub-history, and no key
  // over budget on either side.
  Rng rng(20260418);
  uint64_t next_seq = 1;
  int searched_broken = 0, healthy = 0, long_keys = 0, out_of_order = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const HistoryRecorder rec = RandomLongHistory(&rng, 4, &next_seq);
    const HistoryCheckResult got = CheckHistory(rec);
    const HistoryCheckResult want = reference::CheckHistory(rec);
    ASSERT_EQ(want.keys_over_budget, 0) << "trial " << trial;
    ASSERT_EQ(got.keys_over_budget, 0) << "trial " << trial;
    EXPECT_EQ(got.search_states, want.search_states) << "trial " << trial;
    EXPECT_EQ(got.keys_checked, want.keys_checked);
    EXPECT_EQ(got.ops_checked, want.ops_checked);
    ASSERT_EQ(got.violations.size(), want.violations.size())
        << "trial " << trial;
    for (size_t v = 0; v < want.violations.size(); ++v) {
      const HistoryViolation& g = got.violations[v];
      const HistoryViolation& w = want.violations[v];
      EXPECT_EQ(g.key, w.key) << "trial " << trial;
      EXPECT_EQ(g.anomaly, w.anomaly) << "trial " << trial;
      std::vector<uint64_t> got_ids, want_ids;
      for (const HistoryOp& op : g.sub_history) got_ids.push_back(op.id);
      for (const HistoryOp& op : w.sub_history) want_ids.push_back(op.id);
      EXPECT_EQ(got_ids, want_ids) << "trial " << trial << " key " << w.key;
      for (const char* named : {"stale read", "lost read", "non-lin"}) {
        if (w.anomaly.rfind(named, 0) == 0) ++searched_broken;
      }
    }
    healthy += want.keys_checked - static_cast<int>(want.violations.size());

    std::map<Key, std::vector<const HistoryOp*>> by_key;
    for (const HistoryOp& op : rec.ops()) by_key[op.key].push_back(&op);
    for (const auto& [key, ops] : by_key) {
      if (ops.size() > 64) ++long_keys;
      for (size_t i = 1; i < ops.size(); ++i) {
        if (ops[i]->invoked_at < ops[i - 1]->invoked_at) ++out_of_order;
      }
    }
  }
  // Not vacuous: keys the search must reject and keys it must pass, masks
  // past one word, and ops the search has to relabel.
  EXPECT_GT(searched_broken, 40);
  EXPECT_GT(healthy, 150);
  EXPECT_EQ(long_keys, 400);
  EXPECT_GT(out_of_order, 10000);
}

TEST(Linearize, SpendsTheReferenceSearchStatesPerKey) {
  // The budget decides whether a key is reported at all: a key that runs
  // out of search states is counted over budget, not failed. The checker
  // visits the same states in the same order as its reference, so every
  // key, a broken one searched exhaustively and cut down to its minimal
  // failing sub-history included, spends exactly the reference's states.
  // One key per history, so the counts are that key's.
  Rng rng(20261018);
  uint64_t next_seq = 1;
  int broken = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const HistoryRecorder rec = RandomLongHistory(&rng, 1, &next_seq);
    const HistoryCheckResult got = CheckHistory(rec);
    const HistoryCheckResult want = reference::CheckHistory(rec);
    EXPECT_EQ(got.search_states, want.search_states) << "trial " << trial;
    ASSERT_EQ(got.violations.size(), want.violations.size());
    for (const HistoryViolation& v : want.violations) {
      for (const char* named : {"stale read", "lost read", "non-lin"}) {
        if (v.anomaly.rfind(named, 0) == 0) ++broken;  // The search's names.
      }
    }
  }
  EXPECT_GT(broken, 40);
}

}  // namespace
}  // namespace wattdb::chaos
