// Tests for the warm-replica subsystem (src/replica): catalog replica
// routes and ownership-epoch fencing, the ReplicaManager lifecycle driven
// from the master's control ticks (bootstrap -> catch-up -> serving ->
// cold drop), read fan-out over owner + standbys, catch-up-and-flip
// failover on owner death, exactly-once apply across an owner crash at
// mid catch-up, and replica invalidation when a rebalance moves the
// source range.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "api/db.h"
#include "catalog/global_partition_table.h"
#include "replica/replica_manager.h"
#include "storage/segment.h"

namespace wattdb {
namespace {

// ------------------------------------------------------------ catalog unit

TEST(Catalog, ReplicaRoutesAndEpochFencing) {
  catalog::GlobalPartitionTable cat;
  catalog::TableSchema s;
  s.name = "t";
  s.columns = {{"v", catalog::ColumnType::kString, 64}};
  const TableId t = cat.CreateTable(std::move(s));
  catalog::Partition* owner = cat.CreatePartition(t, NodeId(1));
  ASSERT_TRUE(cat.AssignRange(t, {0, 100}, owner->id()).ok());
  const uint64_t owner_epoch = cat.EpochOf(t, 50);
  EXPECT_GT(owner_epoch, 0u) << "AssignRange stamps an ownership epoch";
  EXPECT_EQ(owner->route_epoch(), owner_epoch);

  // A replica route never shows up in Route() but is listed by ReplicasFor.
  catalog::Partition* standby = cat.CreatePartition(t, NodeId(2));
  standby->set_is_replica(true);
  ASSERT_TRUE(cat.AddReplicaRoute(t, {0, 100}, standby->id()).ok());
  EXPECT_TRUE(cat.AddReplicaRoute(t, {0, 100}, standby->id()).IsAlreadyExists())
      << "one partition holds at most one replica route";
  EXPECT_TRUE(cat.HasReplicas(t));
  EXPECT_EQ(cat.Route(t, 50)->primary, owner->id());
  ASSERT_EQ(cat.ReplicasFor(t, 50).size(), 1u);
  EXPECT_FALSE(cat.ReplicasFor(t, 50)[0].serving) << "not serving until set";
  ASSERT_TRUE(cat.SetReplicaServing(t, standby->id(), true).ok());
  EXPECT_TRUE(cat.ReplicasFor(t, 50)[0].serving);
  EXPECT_TRUE(cat.CheckInvariants());

  // Promotion flips ownership under a fresh epoch and retires the replica
  // route; the partition is a first-class owner afterwards.
  ASSERT_TRUE(cat.PromoteReplica(t, {0, 100}, standby->id()).ok());
  EXPECT_EQ(cat.Route(t, 50)->primary, standby->id());
  EXPECT_FALSE(standby->is_replica());
  EXPECT_FALSE(cat.HasReplicas(t));
  const uint64_t promoted_epoch = cat.EpochOf(t, 50);
  EXPECT_GT(promoted_epoch, owner_epoch);

  // The deposed owner coming back from redo must not steal the route: its
  // claim carries the epoch it last held the range at, which is stale now.
  const Status stale =
      cat.ReclaimRange(t, {0, 100}, owner->id(), owner_epoch);
  EXPECT_TRUE(stale.IsFailedPrecondition()) << stale.ToString();
  EXPECT_EQ(cat.Route(t, 50)->primary, standby->id());

  // An orphaned range (nothing routes it) is reclaimed like a fresh
  // assignment, whatever the claimed epoch.
  ASSERT_TRUE(cat.ReclaimRange(t, {100, 200}, owner->id(), owner_epoch).ok());
  EXPECT_EQ(cat.Route(t, 150)->primary, owner->id());
  EXPECT_TRUE(cat.CheckInvariants());
}

// ------------------------------------------------------------- Db fixtures

/// Master loop at 1s ticks with the replica policy on and elasticity off,
/// so ticks do exactly replica maintenance + failure detection.
DbOptions ReplicaOptions() {
  cluster::MasterPolicy mp;
  mp.check_period = kUsPerSec;
  mp.stats_window = kUsPerSec;
  mp.enable_scale_out = false;
  mp.enable_scale_in = false;
  mp.replica.enabled = true;
  mp.replica.replicas_per_segment = 1;
  mp.replica.heat_threshold = 20.0;
  mp.replica.max_replicated_segments = 2;
  mp.replica.max_lag_records = 64;
  mp.replica.drop_cold_after = 5 * kUsPerSec;
  return DbOptions()
      .WithNodes(4)
      .WithActiveNodes(3)
      .WithoutTpccLoad()
      .WithMasterLoop(mp);
}

int CountEvents(Db& db, cluster::ControlEventType type) {
  return db.master().event_count(type);
}

/// Simulated time of the first event of `type`, or -1 when absent.
SimTime FirstEventAt(Db& db, cluster::ControlEventType type) {
  for (const auto& e : db.control_events()) {
    if (e.type == type) return e.at;
  }
  return -1;
}

NodeId OwnerOf(Db& db, TableId table, Key key) {
  auto e = db.cluster().catalog().Route(table, key);
  if (!e.has_value()) return NodeId::Invalid();
  catalog::Partition* p = db.cluster().catalog().GetPartition(e->primary);
  return p == nullptr ? NodeId::Invalid() : p->owner();
}

// ------------------------------------------------------- lifecycle + reads

TEST(Replica, HotSegmentGetsServingReplicaThenColdDrop) {
  auto opened = Db::Open(ReplicaOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  // Three active nodes -> [0,512) master, [512,1024) node 1,
  // [1024,1536) node 2; two segments per partition.
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());
  for (Key k = 520; k < 584; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xA0)).ok());
  }

  // Hammer one segment of node 1 across control ticks until its heat EWMA
  // crosses the threshold and the standby bootstraps and catches up.
  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp) == 0 &&
         db.Now() < t0 + 30 * kUsPerSec) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(session.Get(*table, 520 + (i % 64)).ok());
    }
    db.RunFor(kUsPerSec);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaCreated), 1)
      << "no replica bootstrapped";
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp), 1)
      << "no replica caught up";
  EXPECT_GT(db.replicas().replication_bytes(), 0);
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());

  ASSERT_FALSE(db.replicas().replicas().empty());
  const auto rep = db.replicas().replicas().front();
  EXPECT_EQ(rep->src_node, NodeId(1));
  EXPECT_NE(rep->host, NodeId(1)) << "standby must live on another node";
  EXPECT_NE(rep->host, NodeId(0)) << "the master hosts no standbys";
  EXPECT_TRUE(rep->range.Contains(520));
  const auto routes = db.cluster().catalog().ReplicaRoutes(*table);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_TRUE(routes[0].serving);

  // Read fan-out: with one serving standby, round-robin sends about half
  // the reads to the replica segment — and every value is the committed one.
  storage::Segment* copy = db.cluster().segments().Get(rep->replica_segment);
  ASSERT_NE(copy, nullptr);
  const int64_t reads_before = copy->reads();
  for (int i = 0; i < 40; ++i) {
    StatusOr<storage::Record> rec = session.Get(*table, 520 + (i % 64));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0xA0));
  }
  EXPECT_GT(copy->reads(), reads_before) << "no read ever hit the standby";

  // A write through the normal path lands on the owner and ships to the
  // replica on the next tick — reads stay consistent wherever they land.
  ASSERT_TRUE(session.Put(*table, 521, std::vector<uint8_t>(64, 0xB1)).ok());
  db.RunFor(2 * kUsPerSec);
  for (int i = 0; i < 4; ++i) {
    StatusOr<storage::Record> rec = session.Get(*table, 521);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0xB1));
  }

  // Stop the workload: the EWMA decays, the segment stays cold past the
  // hysteresis window, and the replica is dropped.
  db.RunFor(15 * kUsPerSec);
  EXPECT_GE(CountEvents(db, cluster::ControlEventType::kReplicaDropped), 1);
  EXPECT_TRUE(db.replicas().replicas().empty());
  EXPECT_TRUE(db.cluster().catalog().ReplicaRoutes(*table).empty());
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());
  // Data plane unaffected by the drop.
  EXPECT_TRUE(session.Get(*table, 521).ok());
}

// ----------------------------------------------------------------- failover

TEST(Replica, OwnerDeathPromotesCaughtUpReplicaAndFencesRedo) {
  DbOptions options = ReplicaOptions();
  // Let the fault plan's restart drive recovery; the master only detects
  // and promotes.
  options.master.recovery.auto_heal = false;
  // Keep the replica alive while the owner is down (no workload then, so
  // the EWMA decays — the cold-drop clock must not beat the promotion).
  options.master.replica.drop_cold_after = 120 * kUsPerSec;
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());
  for (Key k = 520; k < 584; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xA0)).ok());
  }
  ASSERT_TRUE(session.Put(*table, 900, std::vector<uint8_t>(64, 0xC0)).ok());

  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp) == 0 &&
         db.Now() < t0 + 30 * kUsPerSec) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(session.Get(*table, 520 + (i % 64)).ok());
    }
    db.RunFor(kUsPerSec);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp), 1);
  ASSERT_FALSE(db.replicas().replicas().empty());
  const NodeId host = db.replicas().replicas().front()->host;

  // One more committed write the promotion's final catch-up must carry
  // over from the dead owner's surviving WAL.
  ASSERT_TRUE(session.Put(*table, 530, std::vector<uint8_t>(64, 0xD0)).ok());

  const SimTime crash_at = db.Now();
  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());

  // During the failover gap the serving standby keeps absorbing reads of
  // the replicated range; un-replicated ranges of the dead owner are out.
  StatusOr<storage::Record> during = session.Get(*table, 520);
  ASSERT_TRUE(during.ok()) << "standby should serve while the owner is down";
  EXPECT_EQ(during->payload, std::vector<uint8_t>(64, 0xA0));
  EXPECT_TRUE(session.Get(*table, 900).status().IsUnavailable());

  // Heartbeat detection -> promotion flips ownership to the standby.
  const SimTime wait0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaPromoted) == 0 &&
         db.Now() < wait0 + 20 * kUsPerSec) {
    db.RunFor(kUsPerSec / 2);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaPromoted), 1)
      << "no promotion happened";
  const SimTime promoted_at =
      FirstEventAt(db, cluster::ControlEventType::kReplicaPromoted);
  ASSERT_GT(promoted_at, 0);
  // The gap is detection-dominated (2 heartbeat windows at 1s ticks) plus
  // the final tail — far under the multi-second full-redo restart path.
  EXPECT_LT(promoted_at - crash_at, 5 * kUsPerSec);
  EXPECT_EQ(OwnerOf(db, *table, 520), host);
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());

  // The new owner serves reads (including the final-tail write) and
  // accepts writes.
  StatusOr<storage::Record> carried = session.Get(*table, 530);
  ASSERT_TRUE(carried.ok());
  EXPECT_EQ(carried->payload, std::vector<uint8_t>(64, 0xD0));
  ASSERT_TRUE(session.Put(*table, 520, std::vector<uint8_t>(64, 0xE0)).ok());

  // The deposed owner restarts, replays its WAL — and is fenced off the
  // promoted range by the ownership epoch instead of resurrecting it.
  const StatusOr<fault::RecoveryReport> report =
      db.RestartNodeAndWait(NodeId(1));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->routes_superseded, 1)
      << "the promoted range must not be reclaimed by the deposed owner";
  EXPECT_EQ(OwnerOf(db, *table, 520), host) << "route stolen back after redo";
  StatusOr<storage::Record> after = session.Get(*table, 520);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->payload, std::vector<uint8_t>(64, 0xE0));
  // Un-replicated ranges of the restarted node recover normally.
  StatusOr<storage::Record> other = session.Get(*table, 900);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->payload, std::vector<uint8_t>(64, 0xC0));
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());
}

// ---------------------------------------------- exactly-once across crash

TEST(Replica, ExactlyOnceWhenOwnerCrashesMidCatchUp) {
  DbOptions options = ReplicaOptions();
  options.master.recovery.auto_heal = false;
  options.master.replica.drop_cold_after = 120 * kUsPerSec;
  // Crash the owner the moment the standby enters catch-up (progress
  // crosses 0.5 when the bootstrap stream completes; 0.75 while the log
  // tail is being applied), restart it 8s later. The standby's base copy
  // plus the dead owner's surviving WAL must reconstruct every committed
  // write exactly once.
  options.fault_plan =
      fault::FaultPlan().CrashAtReplicaProgress(NodeId(1), 0.6,
                                                8 * kUsPerSec);
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());

  std::vector<Key> keys;
  for (Key k = 520; k < 584; ++k) keys.push_back(k);
  std::map<Key, uint8_t> expected;
  for (Key k : keys) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 1)).ok());
    expected[k] = 1;
  }

  // Keep writing rounds while the replica bootstraps, the crash fires, and
  // the promotion flips ownership. A put either commits (new expected
  // value) or fails Unavailable on the dead owner and changes nothing.
  uint8_t round = 1;
  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaPromoted) == 0 &&
         db.Now() < t0 + 60 * kUsPerSec) {
    ++round;
    for (Key k : keys) {
      const Status put =
          session.Put(*table, k, std::vector<uint8_t>(64, round));
      ASSERT_TRUE(put.ok() || put.IsUnavailable()) << put.ToString();
      if (put.ok()) expected[k] = round;
      // Reads drive the heat that makes the segment worth replicating.
      StatusOr<storage::Record> rec = session.Get(*table, k);
      ASSERT_TRUE(rec.ok() || rec.status().IsUnavailable());
    }
    db.RunFor(kUsPerSec / 2);
  }
  ASSERT_EQ(db.fault().crashes_injected(), 1)
      << "replica-progress trigger never fired";
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaPromoted), 1)
      << "no promotion happened";

  // A couple of post-promotion rounds must commit against the new owner.
  for (int extra = 0; extra < 2; ++extra) {
    ++round;
    for (Key k : keys) {
      ASSERT_TRUE(
          session.Put(*table, k, std::vector<uint8_t>(64, round)).ok())
          << "write refused after ownership flipped";
      expected[k] = round;
    }
    db.RunFor(kUsPerSec / 2);
  }

  // Let the fault plan's delayed restart run the deposed owner's redo.
  db.RunFor(15 * kUsPerSec);
  ASSERT_GE(db.recovery().recoveries(), 1) << "owner never restarted";
  EXPECT_GE(db.recovery().reports().back().routes_superseded, 1);

  // Exactly once: every key carries its last committed value, and a scan
  // of the range sees each key a single time (no resurrected duplicates).
  for (Key k : keys) {
    StatusOr<storage::Record> rec = session.Get(*table, k);
    ASSERT_TRUE(rec.ok()) << "key " << k << ": " << rec.status().ToString();
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, expected[k]))
        << "key " << k << " lost its last committed write";
  }
  std::map<Key, int> seen;
  const StatusOr<int64_t> visited =
      session.Scan(*table, {520, 584}, [&](const storage::Record& r) {
        ++seen[r.key];
        return true;
      });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(*visited, static_cast<int64_t>(keys.size()));
  for (Key k : keys) {
    EXPECT_EQ(seen[k], 1) << "key " << k << " applied twice or lost";
  }
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());
}

// ------------------------------------------------------- moves invalidate

TEST(Replica, RebalanceMovingSourceRangeDropsTheReplica) {
  DbOptions options = ReplicaOptions();
  options.master.replica.drop_cold_after = 120 * kUsPerSec;
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());
  for (Key k = 520; k < 584; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xA0)).ok());
  }
  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp) == 0 &&
         db.Now() < t0 + 30 * kUsPerSec) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(session.Get(*table, 520 + (i % 64)).ok());
    }
    db.RunFor(kUsPerSec);
  }
  ASSERT_FALSE(db.replicas().replicas().empty());

  // Move everything onto the standby node 3 (the planner must never pick
  // the replica partition itself as a move source). Once the source range
  // changes owners the stale standby is discarded, not chased.
  const StatusOr<SimTime> moved = db.RebalanceAndWait({NodeId(3)}, 1.0);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  db.RunFor(3 * kUsPerSec);  // One tick of replica validation.
  EXPECT_GE(CountEvents(db, cluster::ControlEventType::kReplicaDropped), 1);
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());
  // Reads keep returning committed values wherever the range landed.
  for (Key k = 520; k < 584; ++k) {
    StatusOr<storage::Record> rec = session.Get(*table, k);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0xA0));
  }
}

// --------------------------------------------------- placement anti-affinity

TEST(Replica, PlanRebalanceAvoidsNodesHostingTheSegmentsReplica) {
  DbOptions options = ReplicaOptions();
  options.master.replica.drop_cold_after = 120 * kUsPerSec;
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  // Three active nodes: [0,512) master, [512,1024) node 1, [1024,1536)
  // node 2; two segments per partition, so node 1 holds [512,768) and
  // [768,1024).
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());
  for (Key k = 520; k < 584; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xA0)).ok());
  }
  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp) == 0 &&
         db.Now() < t0 + 30 * kUsPerSec) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(session.Get(*table, 520 + (i % 64)).ok());
    }
    db.RunFor(kUsPerSec);
  }
  ASSERT_FALSE(db.replicas().replicas().empty());
  // The only eligible standby host among 3 active nodes (not the master,
  // not the source) is node 2.
  const NodeId host = db.replicas().replicas().front()->host;
  ASSERT_EQ(host, NodeId(2));
  ASSERT_EQ(OwnerOf(db, *table, 520), NodeId(1));

  // Rebalance everything onto the replica's host: every segment may move
  // EXCEPT the replicated one — landing the authoritative copy next to its
  // own standby would silently void the fan-out. The guard drops that move
  // instead of redirecting it (the host is the only target).
  const StatusOr<SimTime> moved = db.RebalanceAndWait({host}, 1.0);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(OwnerOf(db, *table, 520), NodeId(1))
      << "replicated segment moved onto its replica's host";
  EXPECT_EQ(OwnerOf(db, *table, 800), host)
      << "anti-affinity must only protect the replicated range";
  // The standby survives (its source range never changed owners) and the
  // data plane is intact.
  db.RunFor(3 * kUsPerSec);
  EXPECT_EQ(CountEvents(db, cluster::ControlEventType::kReplicaDropped), 0);
  EXPECT_FALSE(db.cluster().catalog().ReplicaRoutes(*table).empty());
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());
  for (Key k = 520; k < 584; ++k) {
    StatusOr<storage::Record> rec = session.Get(*table, k);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0xA0));
  }

  // Control: a target NOT hosting the replica is still a legal destination
  // for the same segment — the guard is replica-specific, not a blanket
  // pin.
  const StatusOr<SimTime> moved2 = db.RebalanceAndWait({NodeId(3)}, 1.0);
  ASSERT_TRUE(moved2.ok()) << moved2.status().ToString();
  EXPECT_EQ(OwnerOf(db, *table, 520), NodeId(3));
}

// ------------------------------------------------- promotion tie-breaking

TEST(Replica, PromotionTieBreakPicksColdestHost) {
  DbOptions options = ReplicaOptions().WithNodes(5).WithActiveNodes(4);
  options.master.recovery.auto_heal = false;
  options.master.replica.drop_cold_after = 120 * kUsPerSec;
  // Two standbys of the hot segment -> the failover has a real choice.
  options.master.replica.replicas_per_segment = 2;
  // One replicated segment only: the heating phase below makes another
  // segment hot on purpose and must not grow standbys of it.
  options.master.replica.max_replicated_segments = 1;
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  // Four active nodes: [0,512) master, [512,1024) node 1, [1024,1536)
  // node 2, [1536,2048) node 3. Node 1 owns the range we replicate; nodes
  // 2 and 3 are the only eligible standby hosts.
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 2048, 2);
  ASSERT_TRUE(table.ok());
  for (Key k = 520; k < 584; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xA0)).ok());
  }
  // Seed the ranges of both candidate hosts for the heating phase below.
  for (Key k = 1040; k < 1104; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xB0)).ok());
  }
  for (Key k = 1560; k < 1624; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xB0)).ok());
  }

  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp) < 2 &&
         db.Now() < t0 + 40 * kUsPerSec) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(session.Get(*table, 520 + (i % 64)).ok());
    }
    db.RunFor(kUsPerSec);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaCaughtUp), 2)
      << "need two standbys";
  const auto reps = db.replicas().replicas();
  ASSERT_EQ(reps.size(), 2u);
  ASSERT_NE(reps[0]->host, reps[1]->host);
  // The tie the heat rule breaks must be real: both standbys applied the
  // same source-log prefix (no writes since catch-up).
  ASSERT_EQ(reps[0]->applied_lsn, reps[1]->applied_lsn);

  // Make one host hot by hammering its *own* range; promotion freshness is
  // tied, so the colder of the two hosts must win the flip.
  const NodeId hot = reps[0]->host;
  const NodeId cold = reps[1]->host;
  const Key hot_base = hot == NodeId(2) ? 1040 : 1560;
  for (int tick = 0; tick < 4; ++tick) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(session.Get(*table, hot_base + (i % 64)).ok());
    }
    db.RunFor(kUsPerSec / 2);
  }
  const auto heats = db.monitor().NodeHeats();
  ASSERT_GT(heats.at(hot), heats.at(cold))
      << "heating phase failed to skew the monitor's node heat";

  const SimTime crash_at = db.Now();
  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
  const SimTime wait0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kReplicaPromoted) == 0 &&
         db.Now() < wait0 + 20 * kUsPerSec) {
    // Keep the hot host hot across detection ticks so the EWMA cannot
    // decay back into a coin flip before the promotion runs.
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(session.Get(*table, hot_base + (i % 64)).ok());
    }
    db.RunFor(kUsPerSec / 2);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kReplicaPromoted), 1)
      << "no promotion happened";
  EXPECT_GT(FirstEventAt(db, cluster::ControlEventType::kReplicaPromoted),
            crash_at);
  EXPECT_EQ(OwnerOf(db, *table, 520), cold)
      << "equally fresh standbys: the flip must land on the colder host";
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());
}

}  // namespace
}  // namespace wattdb
