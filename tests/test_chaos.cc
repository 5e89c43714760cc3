// Tests for the chaos harness (src/chaos): the PR-blocking smoke tier over
// a FIXED seed list (the nightly soak explores fresh seeds; this list never
// changes, so a failure here is a regression, not flake), bit-identical
// replay of a seed, the acceptance check that the deliberately injected
// bug (--no-fencing) is caught deterministically, and a directed test of
// the partition/fencing path: a partitioned owner keeps committing, is
// deposed by promotion, stale routes are refused by the epoch check, the
// node reconnects, and no write is lost or doubly served.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "api/db.h"
#include "chaos/chaos.h"
#include "cluster/master.h"

namespace wattdb {
namespace {

std::string Joined(const std::vector<std::string>& violations) {
  std::string out;
  for (const auto& v : violations) out += "\n  " + v;
  return out;
}

// ------------------------------------------------------------- smoke tier

// The fixed smoke list. 40/44/47/92/127 are seeds that historically caught
// real engine bugs (stale-plan route steal, a heat move targeting a
// declared-dead partitioned node, a mid-move abort-undo restore landing on
// a segmentless partition) — they stay on the list as regression anchors.
constexpr uint64_t kSmokeSeeds[] = {1,  2,  3,  7,  19, 40,  44, 47,
                                    66, 92, 101, 127, 150, 173, 200};

TEST(ChaosSmoke, FixedSeedListPasses) {
  for (uint64_t seed : kSmokeSeeds) {
    chaos::ChaosConfig config;
    config.seed = seed;
    const chaos::ScenarioResult result = chaos::RunScenario(config);
    EXPECT_TRUE(result.passed)
        << "seed " << seed << " violated invariants (replay with "
        << "chaos_soak --seed=" << seed << "):" << Joined(result.violations);
    EXPECT_GT(result.committed_txns, 0u)
        << "seed " << seed << " committed nothing — the scenario is vacuous";
  }
}

TEST(ChaosSmoke, SameSeedReplaysBitIdentically) {
  chaos::ChaosConfig config;
  config.seed = 47;
  const chaos::ScenarioResult a = chaos::RunScenario(config);
  const chaos::ScenarioResult b = chaos::RunScenario(config);
  // ToJson covers the verdict, every violation, the whole fault/control
  // timeline, and all counters — identical JSON means identical runs.
  EXPECT_EQ(chaos::ToJson(a), chaos::ToJson(b));
  EXPECT_GT(a.crashes_injected, 0) << "seed 47 is expected to inject faults";
}

// The acceptance check for the harness itself: disabling epoch fencing is
// a deliberately injected ownership bug (a partitioned owner keeps serving
// routes a promotion sealed), and the invariant checker must catch it —
// deterministically, with a replayable seed.
TEST(ChaosSmoke, FencingOffIsCaughtDeterministically) {
  bool caught = false;
  for (uint64_t seed : {40u, 44u}) {
    chaos::ChaosConfig config;
    config.seed = seed;
    config.epoch_fencing = false;
    const chaos::ScenarioResult first = chaos::RunScenario(config);
    if (first.passed) continue;
    caught = true;
    bool lost_write = false;
    for (const auto& v : first.violations) {
      if (v.find("lost write") != std::string::npos ||
          v.find("wrong value") != std::string::npos) {
        lost_write = true;
      }
    }
    EXPECT_TRUE(lost_write)
        << "seed " << seed << " failed without fencing, but not with the "
        << "expected lost/stale write shape:" << Joined(first.violations);
    // The catch replays: same seed, same violations, same timeline.
    const chaos::ScenarioResult again = chaos::RunScenario(config);
    EXPECT_FALSE(again.passed);
    EXPECT_EQ(first.violations, again.violations);
    EXPECT_EQ(chaos::ToJson(first), chaos::ToJson(again));
  }
  EXPECT_TRUE(caught)
      << "neither known-failing seed caught the missing epoch check — the "
      << "invariant checker has lost its teeth";
}

// ------------------------------------------------------ history checking

// History mode on the PR-blocking tier: the whole fixed smoke list re-run
// with the per-operation recorder and the per-key linearizability checker
// armed. Every key must be decided — a key left over budget is unchecked.
TEST(ChaosHistory, HistorySmokeSeedsPass) {
  for (uint64_t seed : kSmokeSeeds) {
    chaos::ChaosConfig config;
    config.seed = seed;
    config.record_history = true;
    const chaos::ScenarioResult result = chaos::RunScenario(config);
    EXPECT_TRUE(result.passed)
        << "seed " << seed << " (replay with chaos_soak --seed=" << seed
        << " --history):" << Joined(result.violations);
    EXPECT_GT(result.history_ops, 0)
        << "seed " << seed << " recorded no operations — history mode is "
        << "vacuous";
    EXPECT_GT(result.history_keys_checked, 0);
    EXPECT_EQ(result.history_keys_over_budget, 0)
        << "seed " << seed << " left keys unchecked over the search budget";
  }
}

TEST(ChaosHistory, HistoryAndElasticityReplayBitIdentically) {
  chaos::ChaosConfig config;
  config.seed = 3;
  config.record_history = true;
  config.elasticity = true;
  const chaos::ScenarioResult a = chaos::RunScenario(config);
  const chaos::ScenarioResult b = chaos::RunScenario(config);
  EXPECT_EQ(chaos::ToJson(a), chaos::ToJson(b))
      << "history + elasticity must replay bit-identically from the seed";
  EXPECT_GT(a.elastic_actions, 0)
      << "seed 3 is expected to draw elastic actions";
  EXPECT_GT(a.history_ops, 0);
}

// The acceptance check for the *history* tier: with epoch fencing off, the
// linearizability checker catches anomalies the final-state audit cannot
// (a stale read served mid-handoff is invisible once later writes repair
// the key). Seeds 317 and 419 are soak-found anchors: both fail with a
// named stale-read anomaly, deterministically, and pass with fencing on.
TEST(ChaosHistory, FencingOffIsCaughtByHistoryChecker) {
  for (uint64_t seed : {317u, 419u}) {
    chaos::ChaosConfig config;
    config.seed = seed;
    config.record_history = true;
    config.epoch_fencing = false;
    const chaos::ScenarioResult first = chaos::RunScenario(config);
    ASSERT_FALSE(first.passed)
        << "seed " << seed << " no longer catches the missing epoch check";
    ASSERT_FALSE(first.history_violations.empty())
        << "seed " << seed << " failed, but not through the history "
        << "checker:" << Joined(first.violations);
    const chaos::HistoryViolation& v = first.history_violations.front();
    EXPECT_NE(v.anomaly.find("stale read"), std::string::npos)
        << "seed " << seed << ": expected a named stale-read anomaly, got: "
        << v.anomaly;
    EXPECT_FALSE(v.sub_history.empty())
        << "a violation must carry its minimal failing sub-history";
    // The sub-history ends at the offending read (healthy tail truncated).
    EXPECT_EQ(v.sub_history.back().key, v.key);

    // Deterministic: the same seed re-draws the same anomaly verbatim.
    const chaos::ScenarioResult again = chaos::RunScenario(config);
    ASSERT_FALSE(again.history_violations.empty());
    EXPECT_EQ(v.anomaly, again.history_violations.front().anomaly);
    EXPECT_EQ(first.violations, again.violations);

    // And the anomaly is the injected bug's, not the harness's: fencing
    // back on, the identical schedule passes the same checker.
    chaos::ChaosConfig fenced = config;
    fenced.epoch_fencing = true;
    const chaos::ScenarioResult clean = chaos::RunScenario(fenced);
    EXPECT_TRUE(clean.passed)
        << "seed " << seed << " fails even with fencing on:"
        << Joined(clean.violations);
  }
}

// ------------------------------------------- directed partition + fencing

/// Same master policy as the replica tests: 1s control ticks, replica
/// maintenance + failure detection on, elasticity off, auto-heal off (the
/// test owns the heal), and a long cold-drop clock so the standby survives
/// the failover window.
DbOptions FencingOptions() {
  cluster::MasterPolicy mp;
  mp.check_period = kUsPerSec;
  mp.stats_window = kUsPerSec;
  mp.enable_scale_out = false;
  mp.enable_scale_in = false;
  mp.recovery.auto_heal = false;
  mp.replica.enabled = true;
  mp.replica.replicas_per_segment = 1;
  mp.replica.heat_threshold = 20.0;
  mp.replica.max_replicated_segments = 2;
  mp.replica.max_lag_records = 64;
  mp.replica.drop_cold_after = 120 * kUsPerSec;
  return DbOptions()
      .WithNodes(4)
      .WithActiveNodes(3)
      .WithoutTpccLoad()
      .WithMasterLoop(mp);
}

int CountEvents(Db& db, cluster::ControlEventType type) {
  return db.master().event_count(type);
}

NodeId OwnerOf(Db& db, TableId table, Key key) {
  auto e = db.cluster().catalog().Route(table, key);
  if (!e.has_value()) return NodeId::Invalid();
  catalog::Partition* p = db.cluster().catalog().GetPartition(e->primary);
  return p == nullptr ? NodeId::Invalid() : p->owner();
}

// A fenced route entry (epoch bumped past the owner's claim token — exactly
// what promotion stamps before reading the deposed owner's final tail) must
// refuse BOTH reads and writes with Unavailable and count the refusal;
// healing the fence (the owner reclaims under its token, as a full redo
// does) makes the same route serve again.
TEST(PartitionFencing, FencedRouteRefusesUntilReclaimed) {
  auto opened = Db::Open(FencingOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session.Put(*table, 600, std::vector<uint8_t>(16, 0xA0)).ok());

  catalog::GlobalPartitionTable& cat = db.cluster().catalog();
  const auto entry = cat.Route(*table, 600);
  ASSERT_TRUE(entry.has_value());
  catalog::Partition* owner = cat.GetPartition(entry->primary);
  ASSERT_NE(owner, nullptr);
  const uint64_t claim_token = owner->route_epoch();

  const uint64_t fence = cat.FenceRange(*table, {512, 1024});
  ASSERT_GT(fence, claim_token);
  const uint64_t refusals_before = db.cluster().stale_route_refusals();
  EXPECT_TRUE(
      session.Put(*table, 600, std::vector<uint8_t>(16, 0xB0)).IsUnavailable())
      << "a write served through a sealed route defeats the fence";
  EXPECT_TRUE(session.Get(*table, 600).status().IsUnavailable())
      << "a read served through a sealed route defeats the fence";
  EXPECT_GT(db.cluster().stale_route_refusals(), refusals_before)
      << "the epoch check never fired";

  // The owner reclaims under the token it last held the range at — the
  // orphaned-fence restamp (no promotion ever flipped) heals the route.
  ASSERT_TRUE(
      cat.ReclaimRange(*table, {512, 1024}, owner->id(), claim_token).ok());
  StatusOr<storage::Record> rec = session.Get(*table, 600);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->payload, std::vector<uint8_t>(16, 0xA0))
      << "the fenced write must not have landed";
  EXPECT_TRUE(session.Put(*table, 600, std::vector<uint8_t>(16, 0xC0)).ok());
  EXPECT_TRUE(cat.CheckInvariants());
}

// The full deposed-owner arc: a node partitioned from the master keeps
// committing (the data plane is alive — only the control plane lost it),
// the master declares it dead and promotes its caught-up standby, the
// flipped route serves writes at the new owner, and after the partition
// heals the rejoining node drops its stale copy instead of serving it.
// Ground truth is tracked with the chaos payload format so the chaos
// invariant checker itself can audit the end state: nothing lost, nothing
// doubly served, no resurrections.
TEST(PartitionFencing, PartitionedOwnerDeposedThenRejoinsClean) {
  auto opened = Db::Open(FencingOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());

  // PartitionNode argument screens: the master cannot be partitioned from
  // itself, a powered-down node has no link to cut, and cutting the same
  // link twice is reported, not double-counted.
  EXPECT_TRUE(db.PartitionNode(NodeId(0)).IsInvalidArgument());
  EXPECT_TRUE(db.PartitionNode(NodeId(3)).IsFailedPrecondition())
      << "node 3 is a standby; partitioning it should be refused";
  EXPECT_TRUE(db.HealPartition(NodeId(1)).IsNotFound())
      << "healing an intact link should be refused";

  chaos::GroundTruth truth;
  uint64_t next_seq = 1;
  std::vector<Key> keys;
  for (Key k = 520; k < 584; ++k) keys.push_back(k);
  auto put = [&](Key k) {
    const uint64_t seq = next_seq++;
    const Status s =
        session.Put(*table, k, chaos::EncodePayload(k, seq));
    if (s.ok()) {
      truth.committed[k] = seq;
      ++truth.committed_txns;
    } else {
      EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    }
    return s.ok();
  };
  for (Key k : keys) ASSERT_TRUE(put(k));

  // Hammer node 1's segment until its standby is caught up and serving.
  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp) == 0 &&
         db.Now() < t0 + 30 * kUsPerSec) {
    for (int i = 0; i < 50; ++i) {
      (void)session.Get(*table, 520 + (i % 64));
    }
    db.RunFor(kUsPerSec);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp), 1)
      << "no standby caught up";
  ASSERT_FALSE(db.replicas().replicas().empty());
  const NodeId standby_host = db.replicas().replicas().front()->host;
  ASSERT_NE(standby_host, NodeId(1));

  // Cut the control link. The owner is alive and still commits: these are
  // exactly the writes a promotion must not strand.
  ASSERT_TRUE(db.PartitionNode(NodeId(1)).ok());
  EXPECT_TRUE(db.PartitionNode(NodeId(1)).IsAlreadyExists());
  EXPECT_TRUE(db.cluster().node_state(NodeId(1)).partitioned);
  for (Key k : keys) {
    EXPECT_TRUE(put(k)) << "partitioned owner refused a write pre-fence";
  }

  // Keep writing while heartbeats lapse, the master declares the node
  // dead, and promotion fences + flips. A put either commits (and the new
  // owner must serve it) or is refused Unavailable by the epoch check
  // mid-handoff (and must never surface).
  const SimTime w0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaPromoted) == 0 &&
         db.Now() < w0 + 30 * kUsPerSec) {
    for (Key k : keys) (void)put(k);
    db.RunFor(kUsPerSec / 4);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaPromoted), 1)
      << "partitioned owner was never deposed";
  EXPECT_EQ(OwnerOf(db, *table, 520), standby_host);
  EXPECT_GE(CountEvents(db, cluster::ControlEventType::kNodeDeclaredDead), 1);

  // Post-flip writes land on the new owner.
  for (Key k : keys) {
    EXPECT_TRUE(put(k)) << "write refused after the flip settled";
  }

  // Reconnect. The rejoining node must drop its stale copy of the promoted
  // range (serving it would doubly serve every post-flip write) and the
  // link state machine must agree the partition is gone.
  ASSERT_TRUE(db.HealPartition(NodeId(1)).ok());
  EXPECT_FALSE(db.cluster().node_state(NodeId(1)).partitioned);
  EXPECT_TRUE(db.HealPartition(NodeId(1)).IsNotFound());
  db.RunFor(5 * kUsPerSec);

  // Final audit with the chaos invariant checker: routes disjoint and
  // live, no orphaned fence, every committed (key, seq) present exactly
  // once with its exact payload, nothing resurrected.
  const std::vector<std::string> violations =
      chaos::CheckInvariants(db, *table, 1536, truth);
  EXPECT_TRUE(violations.empty()) << Joined(violations);
}

// The race satellite: the partition heals AFTER the master declared the
// owner dead and started promotion (the fence is stamped, the flip is
// scheduled behind the standby's final catch-up) but possibly BEFORE the
// flip lands. Two legal outcomes — the flip wins and the rejoining owner
// is deposed, or the owner's reclaim wins and the conditional flip is
// refused — and in both the audit must hold: nothing lost, nothing doubly
// served, no route left permanently fenced.
TEST(PartitionFencing, HealRacingPromotionFlipSettlesClean) {
  auto opened = Db::Open(FencingOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());

  chaos::GroundTruth truth;
  uint64_t next_seq = 1;
  std::vector<Key> keys;
  for (Key k = 520; k < 584; ++k) keys.push_back(k);
  auto put = [&](Key k) {
    const uint64_t seq = next_seq++;
    const Status s = session.Put(*table, k, chaos::EncodePayload(k, seq));
    if (s.ok()) {
      truth.committed[k] = seq;
      ++truth.committed_txns;
    } else {
      EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    }
    return s.ok();
  };
  for (Key k : keys) ASSERT_TRUE(put(k));

  // Warm a standby of node 1's segment, as in the deposed-owner test.
  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp) == 0 &&
         db.Now() < t0 + 30 * kUsPerSec) {
    for (int i = 0; i < 50; ++i) {
      (void)session.Get(*table, 520 + (i % 64));
    }
    db.RunFor(kUsPerSec);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp), 1)
      << "no standby caught up";

  // Cut the control link and wait for the death declaration — promotion
  // starts here (fence stamped, flip pending) — in small steps so the heal
  // lands inside the fence-to-flip window rather than after it.
  ASSERT_TRUE(db.PartitionNode(NodeId(1)).ok());
  const SimTime w0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kNodeDeclaredDead) == 0 &&
         db.Now() < w0 + 30 * kUsPerSec) {
    for (Key k : keys) (void)put(k);
    db.RunFor(kUsPerSec / 8);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kNodeDeclaredDead), 1)
      << "partitioned owner was never declared dead";
  const int promoted_at_heal =
      CountEvents(db, cluster::ControlEventType::kReplicaPromoted);

  // Heal immediately: the owner reclaims while the flip may still be in
  // flight. Keep the writers hammering through the race.
  ASSERT_TRUE(db.HealPartition(NodeId(1)).ok());
  for (int step = 0; step < 40; ++step) {
    for (Key k : keys) (void)put(k);
    db.RunFor(kUsPerSec / 4);
  }
  db.RunFor(10 * kUsPerSec);

  // Whichever side won, the routes must serve again...
  bool served = false;
  for (int attempt = 0; attempt < 20 && !served; ++attempt) {
    served = put(keys[0]);
    if (!served) db.RunFor(kUsPerSec);
  }
  EXPECT_TRUE(served) << "route still refusing writes long after the heal "
                      << "settled — a fence was left orphaned";
  // ...and the audit must hold under either interleaving. (Whether the
  // flip landed is the seedless race's outcome, not an assertion target:
  // promoted_at_heal only documents where the race began.)
  (void)promoted_at_heal;
  const std::vector<std::string> violations =
      chaos::CheckInvariants(db, *table, 1536, truth);
  EXPECT_TRUE(violations.empty()) << Joined(violations);
}

}  // namespace
}  // namespace wattdb
