// Tests for the cluster layer: power state machine, node lifecycle roles,
// §3.1 power accounting, sampling, routing, and the master's elasticity
// controller + helpers.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/master.h"
#include "cluster/monitor.h"
#include "fault/recovery_manager.h"
#include "partition/physiological.h"
#include "workload/client.h"
#include "workload/tpcc_loader.h"

namespace wattdb::cluster {
namespace {

ClusterConfig SmallConfig(int nodes = 4, int active = 2) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.initially_active = active;
  cfg.buffer.capacity_pages = 1000;
  return cfg;
}

TEST(Cluster, InitialPowerStates) {
  Cluster c(SmallConfig(4, 2));
  EXPECT_TRUE(c.node(NodeId(0))->IsActive());
  EXPECT_TRUE(c.node(NodeId(1))->IsActive());
  EXPECT_FALSE(c.node(NodeId(2))->IsActive());
  EXPECT_EQ(c.ActiveNodeCount(), 2);
  EXPECT_TRUE(c.master()->IsMaster());
}

TEST(Cluster, PowerOnTakesBootTime) {
  Cluster c(SmallConfig());
  bool ready = false;
  ASSERT_TRUE(c.PowerOn(NodeId(2), [&]() { ready = true; }).ok());
  EXPECT_EQ(c.node(NodeId(2))->hardware().power_state(),
            hw::PowerState::kBooting);
  c.RunUntil(c.Now() + c.config().node_hw.boot_time_us / 2);
  EXPECT_FALSE(ready);
  c.RunUntil(c.Now() + c.config().node_hw.boot_time_us);
  EXPECT_TRUE(ready);
  EXPECT_TRUE(c.node(NodeId(2))->IsActive());
  // Power on while booting is rejected; already-active is a no-op success.
  EXPECT_TRUE(c.PowerOn(NodeId(2)).ok());
}

TEST(Cluster, PowerOffGuards) {
  Cluster c(SmallConfig());
  EXPECT_TRUE(c.PowerOff(NodeId(0)).IsInvalidArgument()) << "master stays";
  // A node with data may not power off (§4: data inaccessibility).
  c.segments().Create(NodeId(1), DiskId(3));
  EXPECT_TRUE(c.PowerOff(NodeId(1)).IsBusy());
}

TEST(Cluster, PowerOffErrorNamesTheResidentSegment) {
  Cluster c(SmallConfig());
  storage::Segment* seg = c.segments().Create(NodeId(1), DiskId(3));
  const Status s = c.PowerOff(NodeId(1));
  ASSERT_TRUE(s.IsBusy());
  // The message identifies the node and the segment that still holds bytes.
  EXPECT_NE(s.message().find("node 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("segment " + std::to_string(seg->id().value())),
            std::string::npos)
      << s.ToString();
}

TEST(Cluster, NodeLookupIsBoundsChecked) {
  Cluster c(SmallConfig(4, 2));
  EXPECT_NE(c.node(NodeId(3)), nullptr);
  EXPECT_EQ(c.node(NodeId(4)), nullptr) << "one past the end";
  EXPECT_EQ(c.node(NodeId(1000)), nullptr);
  EXPECT_EQ(c.node(NodeId::Invalid()), nullptr);
  EXPECT_TRUE(c.PowerOn(NodeId(99)).IsNotFound());
  EXPECT_TRUE(c.PowerOff(NodeId(99)).IsNotFound());
}

// --- Node lifecycle roles ----------------------------------------------------

void SetPower(Cluster& c, NodeId id, hw::PowerState state) {
  c.node(id)->hardware().set_power_state(state);
}

void Serve(Cluster& c, NodeId id) {
  SetPower(c, id, hw::PowerState::kActive);
  c.NoteReported(id);
}

void PartitionAndDeclareDead(Cluster& c, NodeId id) {
  Serve(c, id);
  ASSERT_TRUE(c.PartitionNode(id).ok());
  c.NoteMissedWindow(id);
  c.NoteDeclaredDead(id);
  c.BeginHealing(id);  // Restarts of a live node keep failing.
}

void CrashAndBoot(Cluster& c, NodeId id) {
  Serve(c, id);
  c.MarkCrashed(id);
  SetPower(c, id, hw::PowerState::kStandby);
  c.NoteMissedWindow(id);
  c.NoteDeclaredDead(id);
  c.BeginHealing(id);
  SetPower(c, id, hw::PowerState::kActive);  // Booted; redo still running.
  c.NoteReported(id);
}

TEST(Cluster, EligibleForRoleTable) {
  constexpr Role kRoles[] = {Role::kRecruit,     Role::kHeatTarget,
                             Role::kScaleInVictim, Role::kHelper,
                             Role::kReplicaHost, Role::kDrainSurvivor};
  struct Row {
    const char* state;
    NodeId node;
    std::function<void(Cluster&, NodeId)> reach;
    // Recruit, heat target, scale-in victim, helper, replica host, survivor.
    std::array<bool, 6> eligible;
  };
  const NodeId n(2);
  const std::vector<Row> rows = {
      {"cold standby", n, [](Cluster&, NodeId) {},
       {true, false, false, true, false, false}},
      {"booted, not yet reporting", n,
       [](Cluster& c, NodeId id) { SetPower(c, id, hw::PowerState::kActive); },
       {false, false, true, true, true, true}},
      {"serving", n, Serve, {false, true, true, true, true, true}},
      {"master", NodeId(0), Serve, {false, true, false, true, false, true}},
      {"serving helper", n,
       [](Cluster& c, NodeId id) {
         Serve(c, id);
         c.SetHelper(id, true);
       },
       {false, false, false, true, false, true}},
      {"partitioned, suspected", n,
       [](Cluster& c, NodeId id) {
         Serve(c, id);
         ASSERT_TRUE(c.PartitionNode(id).ok());
         c.NoteMissedWindow(id);
       },
       {false, false, false, false, true, false}},
      {"partitioned, declared dead, restart retrying", n,
       PartitionAndDeclareDead, {false, false, false, false, true, false}},
      {"partitioned, restart given up", n,
       [](Cluster& c, NodeId id) {
         PartitionAndDeclareDead(c, id);
         c.AbandonHealing(id);
       },
       {false, false, false, true, true, false}},
      {"partition healed, not yet reporting", n,
       [](Cluster& c, NodeId id) {
         PartitionAndDeclareDead(c, id);
         c.AbandonHealing(id);
         ASSERT_TRUE(c.HealPartition(id).ok());
       },
       {false, false, true, true, true, true}},
      {"crashed, undetected", n,
       [](Cluster& c, NodeId id) {
         Serve(c, id);
         c.MarkCrashed(id);
         SetPower(c, id, hw::PowerState::kStandby);
       },
       {false, false, false, false, false, false}},
      {"crashed, declared dead, booting", n,
       [](Cluster& c, NodeId id) {
         Serve(c, id);
         c.MarkCrashed(id);
         SetPower(c, id, hw::PowerState::kStandby);
         c.NoteMissedWindow(id);
         c.NoteDeclaredDead(id);
         c.BeginHealing(id);
         SetPower(c, id, hw::PowerState::kBooting);
       },
       {false, false, false, false, false, false}},
      {"booted after a crash, redo running", n, CrashAndBoot,
       {false, false, false, false, false, true}},
      {"recovered", n,
       [](Cluster& c, NodeId id) {
         CrashAndBoot(c, id);
         c.MarkRecovered(id);
         c.FinishHealing(id);
       },
       {false, true, true, true, true, true}},
      {"powered off by scale-in", n,
       [](Cluster& c, NodeId id) {
         Serve(c, id);
         SetPower(c, id, hw::PowerState::kStandby);
         c.StopWatching(id);
       },
       {true, false, false, true, false, false}},
      {"excluded", n,
       [](Cluster& c, NodeId id) {
         Serve(c, id);
         SetPower(c, id, hw::PowerState::kStandby);
         c.Exclude(id);
       },
       {false, false, false, false, false, false}},
  };
  for (const Row& row : rows) {
    Cluster c(SmallConfig(4, 1));
    row.reach(c, row.node);
    for (size_t r = 0; r < row.eligible.size(); ++r) {
      EXPECT_EQ(c.EligibleFor(row.node, kRoles[r]), row.eligible[r])
          << row.state << ", role #" << r;
    }
  }
  Cluster c(SmallConfig(4, 1));
  for (Role role : kRoles) {
    EXPECT_FALSE(c.EligibleFor(NodeId(4), role)) << "no such node";
    EXPECT_FALSE(c.EligibleFor(NodeId::Invalid(), role));
  }
}

TEST(Cluster, NodeStateCountsCrashesAndDetectionsApart) {
  Cluster c(SmallConfig(4, 2));
  const NodeId n(1);
  c.NoteReported(n);
  c.MarkCrashed(n);
  EXPECT_TRUE(c.node_state(n).crashed);
  EXPECT_EQ(c.node_state(n).crashed_at, c.Now());
  EXPECT_EQ(c.NoteMissedWindow(n), 1);
  EXPECT_EQ(c.NoteMissedWindow(n), 2);
  EXPECT_EQ(c.NoteDeclaredDead(n), 1);
  EXPECT_FALSE(c.node_state(n).watched);
  EXPECT_EQ(c.node_state(n).missed, 0);
  c.MarkRecovered(n);
  c.MarkCrashed(n);  // Crashed again before any detection.
  EXPECT_EQ(c.node_state(n).crashes, 2);
  EXPECT_EQ(c.node_state(n).declared_dead, 1);
}

TEST(Cluster, WattsMatchPaperEnvelope) {
  Cluster c(SmallConfig(10, 1));
  // 1 active idle node + 9 standby + switch ~ 65 W.
  EXPECT_NEAR(c.WattsIn(0, kUsPerSec), 64.5, 1.0);
}

TEST(Cluster, SamplingAccumulatesEnergy) {
  Cluster c(SmallConfig(2, 2));
  metrics::TimeSeries series(kUsPerSec);
  c.StartSampling(&series);
  c.RunUntil(10 * kUsPerSec);
  // 2 active idle nodes + switch = 64 W for 10 s ~ 640 J.
  EXPECT_NEAR(c.energy().joules(), 640.0, 20.0);
  EXPECT_GE(series.buckets().size(), 9u);
}

TEST(Cluster, ChargeClientHopOnlyForRemote) {
  Cluster c(SmallConfig());
  tx::Txn* t = c.BeginTxn();
  c.ChargeClientHop(t, NodeId(0), 100, 100);
  EXPECT_EQ(t->net_us, 0);
  c.ChargeClientHop(t, NodeId(1), 100, 100);
  EXPECT_GT(t->net_us, 0);
  c.AbortTxn(t);
  c.tm().Release(t->id);
}

TEST(Monitor, SamplesUtilizationAndHeat) {
  Cluster c(SmallConfig());
  Monitor mon(&c);
  // Create some disk + cpu activity.
  storage::Segment* seg = c.segments().Create(NodeId(0), DiskId(1));
  ASSERT_TRUE(seg->Insert(1, std::vector<uint8_t>(100, 1)).ok());
  c.node(NodeId(0))->hardware().cpu().Acquire(0, 500000);
  c.FindDisk(DiskId(1))->AccessRandom(0, kPageSize);
  c.clock().AdvanceTo(kUsPerSec);
  auto stats = mon.Sample(kUsPerSec);
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_TRUE(stats[0].active);
  EXPECT_GT(stats[0].cpu, 0.2);
  EXPECT_FALSE(stats[2].active);
  auto heat = mon.SampleSegments();
  ASSERT_EQ(heat.size(), 1u);
  EXPECT_EQ(heat[0].writes, 1);
  // Deltas: second sample shows no new activity.
  auto heat2 = mon.SampleSegments();
  EXPECT_EQ(heat2[0].writes, 0);
}

TEST(Monitor, SampleSegmentsHandlesCreateAndDropMidWindow) {
  Cluster c(SmallConfig());
  Monitor mon(&c);
  storage::Segment* a = c.segments().Create(NodeId(0), DiskId(1));
  ASSERT_TRUE(a->Insert(1, std::vector<uint8_t>(16, 1)).ok());
  auto h1 = mon.SampleSegments();
  ASSERT_EQ(h1.size(), 1u);
  EXPECT_EQ(h1[0].writes, 1);
  // A segment created after the previous sample reports its full counters
  // (there is no earlier snapshot to subtract).
  storage::Segment* b = c.segments().Create(NodeId(1), DiskId(3));
  ASSERT_TRUE(b->Insert(2, std::vector<uint8_t>(16, 2)).ok());
  ASSERT_TRUE(b->Insert(3, std::vector<uint8_t>(16, 3)).ok());
  auto h2 = mon.SampleSegments();
  ASSERT_EQ(h2.size(), 2u);
  EXPECT_EQ(h2[0].segment, a->id());
  EXPECT_EQ(h2[0].writes, 0) << "idle since the last sample";
  EXPECT_EQ(h2[1].segment, b->id());
  EXPECT_EQ(h2[1].writes, 2) << "created mid-window: full count";
  // A dropped segment simply vanishes from the next sample.
  ASSERT_TRUE(c.segments().Drop(b->id()).ok());
  ASSERT_TRUE(a->Read(1).ok());
  auto h3 = mon.SampleSegments();
  ASSERT_EQ(h3.size(), 1u);
  EXPECT_EQ(h3[0].segment, a->id());
  EXPECT_EQ(h3[0].reads, 1);
}

TEST(Monitor, HeatEwmaTracksRatesAndDecays) {
  Cluster c(SmallConfig());
  Monitor mon(&c);
  storage::Segment* seg = c.segments().Create(NodeId(0), DiskId(1));
  ASSERT_TRUE(seg->Insert(1, std::vector<uint8_t>(16, 1)).ok());
  for (int i = 0; i < 99; ++i) ASSERT_TRUE(seg->Read(1).ok());
  // First observation initializes the EWMA at the raw rate: 100 ops / 1 s.
  mon.UpdateHeat(kUsPerSec, 0.5);
  EXPECT_NEAR(mon.HeatOf(seg->id()), 100.0, 1e-9);
  // An idle window halves it (alpha = 0.5)...
  mon.UpdateHeat(kUsPerSec, 0.5);
  EXPECT_NEAR(mon.HeatOf(seg->id()), 50.0, 1e-9);
  // ...and a 10 ops/s window blends: 0.5*10 + 0.5*50.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(seg->Read(1).ok());
  mon.UpdateHeat(kUsPerSec, 0.5);
  EXPECT_NEAR(mon.HeatOf(seg->id()), 30.0, 1e-9);
  // The node roll-up attributes heat to the storage node.
  auto nodes = mon.NodeHeats();
  EXPECT_NEAR(nodes[NodeId(0)], 30.0, 1e-9);
  // A dropped segment decays away and is eventually forgotten entirely.
  const SegmentId dropped = seg->id();
  ASSERT_TRUE(c.segments().Drop(dropped).ok());
  for (int i = 0; i < 30; ++i) mon.UpdateHeat(kUsPerSec, 0.5);
  EXPECT_EQ(mon.HeatOf(dropped), 0.0);
  EXPECT_TRUE(mon.SegmentHeats().empty());
}

/// Rig for the heat balancer: three active nodes, a table whose only data
/// partition lives on node 1 with two segments — one hammered, one warm.
/// Synthetic heat is driven by touching the segments directly between
/// control ticks, so the trigger math is exact.
class HeatBalanceTest : public ::testing::Test {
 protected:
  HeatBalanceTest() : cluster_(SmallConfig(3, 3)) {
    table_ = cluster_.catalog().CreateTable(
        {TableId(), "kv", {{"v", catalog::ColumnType::kString, 64}}});
    part_ = cluster_.catalog().CreatePartition(table_, NodeId(1));
    WATTDB_CHECK(
        cluster_.catalog().AssignRange(table_, {0, 1000}, part_->id()).ok());
    auto a = cluster_.node(NodeId(1))->AllocateSegment(0, part_, {0, 500});
    auto b = cluster_.node(NodeId(1))->AllocateSegment(0, part_, {500, 1000});
    WATTDB_CHECK(a.ok() && b.ok());
    hot_seg_ = a.value();
    warm_seg_ = b.value();
    WATTDB_CHECK(hot_seg_->Insert(10, std::vector<uint8_t>(64, 1)).ok());
    WATTDB_CHECK(warm_seg_->Insert(600, std::vector<uint8_t>(64, 2)).ok());
  }

  static MasterPolicy BalancingPolicy() {
    MasterPolicy policy;
    policy.check_period = kUsPerSec;
    policy.stats_window = kUsPerSec;
    policy.enable_scale_out = false;
    policy.enable_scale_in = false;
    policy.balance.enabled = true;
    policy.balance.trigger_ratio = 1.5;
    policy.balance.ewma_alpha = 0.5;
    policy.balance.trigger_after = 2;
    policy.balance.cooldown = 5 * kUsPerSec;
    policy.balance.max_moves_per_round = 4;
    policy.balance.min_total_heat = 10.0;
    return policy;
  }

  void Heat(storage::Segment* seg, int reads, Key key) {
    for (int i = 0; i < reads; ++i) ASSERT_TRUE(seg->Read(key).ok());
  }

  /// Owner node of the routing entry covering `key`.
  NodeId OwnerOf(Key key) {
    auto e = cluster_.catalog().Route(table_, key);
    if (!e.has_value()) return NodeId::Invalid();
    catalog::Partition* p = cluster_.catalog().GetPartition(e->primary);
    return p == nullptr ? NodeId::Invalid() : p->owner();
  }

  Cluster cluster_;
  TableId table_;
  catalog::Partition* part_ = nullptr;
  storage::Segment* hot_seg_ = nullptr;
  storage::Segment* warm_seg_ = nullptr;
};

TEST_F(HeatBalanceTest, TriggersAfterHysteresisAndMovesHottestSegment) {
  partition::PhysiologicalPartitioning scheme(&cluster_);
  Master master(&cluster_, &scheme, BalancingPolicy());
  master.Start();

  // Tick 1: imbalance visible (node 1 carries all heat) but hysteresis
  // (trigger_after = 2) must hold the first violation back.
  Heat(hot_seg_, 300, 10);
  Heat(warm_seg_, 30, 600);
  cluster_.RunUntil(kUsPerSec + kUsPerMs);
  EXPECT_EQ(master.heat_rebalances(), 0) << "one violation is not a trend";
  EXPECT_EQ(master.event_count(ControlEventType::kHeatImbalance), 0);

  // Tick 2: second consecutive violation → trigger, plan, move.
  Heat(hot_seg_, 300, 10);
  Heat(warm_seg_, 30, 600);
  cluster_.RunUntil(2 * kUsPerSec + kUsPerMs);
  EXPECT_EQ(master.heat_rebalances(), 1);
  EXPECT_EQ(master.event_count(ControlEventType::kHeatImbalance), 1);
  EXPECT_GE(master.event_count(ControlEventType::kHeatMovePlanned), 1);

  // Let the move stream and install, then verify the hottest segment's
  // range changed owners while the warm one stayed put.
  cluster_.RunUntil(cluster_.Now() + 20 * kUsPerSec);
  EXPECT_EQ(master.heat_moves_completed(), 1);
  EXPECT_EQ(master.event_count(ControlEventType::kHeatRebalanced), 1);
  EXPECT_NE(OwnerOf(10), NodeId(1)) << "hot range moved off the hot node";
  EXPECT_EQ(OwnerOf(600), NodeId(1)) << "warm range stayed";
  EXPECT_NE(hot_seg_->storage_node(), NodeId(1));
  EXPECT_TRUE(cluster_.catalog().CheckInvariants());
}

TEST_F(HeatBalanceTest, NeverPingPongsAHotSegment) {
  partition::PhysiologicalPartitioning scheme(&cluster_);
  Master master(&cluster_, &scheme, BalancingPolicy());
  master.Start();

  // Keep hammering the same segment across many ticks: it moves off node 1
  // once, then — although its new home is now the hottest node — it must
  // not bounce back (cooldown, and moving the dominant segment would just
  // relocate the hotspot, which the planner rejects).
  for (int tick = 0; tick < 18; ++tick) {
    Heat(hot_seg_, 300, 10);
    Heat(warm_seg_, 30, 600);
    cluster_.RunUntil((tick + 1) * kUsPerSec + kUsPerMs);
  }
  EXPECT_EQ(master.heat_moves_completed(), 1) << "exactly one productive move";
  const NodeId home = hot_seg_->storage_node();
  EXPECT_NE(home, NodeId(1));
  // No abandoned moves, no thrash: planned == completed.
  EXPECT_EQ(master.heat_moves_planned(), master.heat_moves_completed());
  EXPECT_TRUE(cluster_.catalog().CheckInvariants());
}

TEST(Master, ScaleOutOnSustainedOverload) {
  Cluster c(SmallConfig(4, 2));
  workload::TpccLoadConfig load;
  load.warehouses = 2;
  load.fill = 0.05;
  load.home_nodes = {NodeId(0), NodeId(1)};
  workload::TpccDatabase db(&c, load);
  ASSERT_TRUE(db.Load().ok());

  partition::PhysiologicalPartitioning scheme(&c);
  MasterPolicy policy;
  policy.cpu_upper = 0.05;  // Absurdly low so any load trips it.
  policy.enable_scale_in = false;  // Keep the new node (tested separately).
  policy.check_period = 2 * kUsPerSec;
  policy.trigger_after = 2;
  Master master(&c, &scheme, policy);
  master.Start();

  workload::ClientPoolConfig pool_cfg;
  pool_cfg.num_clients = 30;
  pool_cfg.think_time = 10 * kUsPerMs;
  workload::ClientPool pool(&db, pool_cfg);
  pool.Start();
  c.StartSampling(nullptr);
  c.RunUntil(120 * kUsPerSec);
  pool.Stop();

  EXPECT_GE(master.event_count(ControlEventType::kScaleOut), 1);
  EXPECT_GT(c.ActiveNodeCount(), 2);
  EXPECT_FALSE(c.catalog().PartitionsOwnedBy(NodeId(2)).empty());
}

TEST(Master, ScaleInWhenIdle) {
  Cluster c(SmallConfig(4, 2));
  workload::TpccLoadConfig load;
  load.warehouses = 2;
  load.fill = 0.05;
  load.home_nodes = {NodeId(0), NodeId(1)};
  workload::TpccDatabase db(&c, load);
  ASSERT_TRUE(db.Load().ok());

  partition::PhysiologicalPartitioning scheme(&c);
  MasterPolicy policy;
  policy.cpu_lower = 0.99;  // Everything counts as underutilized.
  policy.enable_scale_out = false;
  policy.check_period = 2 * kUsPerSec;
  Master master(&c, &scheme, policy);
  master.Start();
  c.StartSampling(nullptr);
  c.RunUntil(300 * kUsPerSec);

  EXPECT_GE(master.event_count(ControlEventType::kScaleIn), 1);
  EXPECT_EQ(c.ActiveNodeCount(), 1) << "node 1 drained and powered off";
  EXPECT_TRUE(c.segments().SegmentsOn(NodeId(1)).empty());
  EXPECT_TRUE(c.catalog().CheckInvariants());
}

TEST(Master, HelpersWireLogShippingAndRemoteBuffer) {
  Cluster c(SmallConfig(4, 2));
  partition::PhysiologicalPartitioning scheme(&c);
  Master master(&c, &scheme);
  ASSERT_TRUE(
      master.AttachHelpers({NodeId(2)}, {NodeId(0), NodeId(1)}, 1000).ok());
  c.RunUntil(c.Now() + 10 * kUsPerSec);  // Boot.
  EXPECT_TRUE(c.node(NodeId(2))->IsActive());
  EXPECT_TRUE(c.node(NodeId(0))->log().HasHelper());
  EXPECT_TRUE(c.node(NodeId(1))->buffer().HasRemoteTier());
  EXPECT_TRUE(
      master.AttachHelpers({NodeId(3)}, {NodeId(0)}, 10).IsFailedPrecondition());
  ASSERT_TRUE(master.DetachHelpers().ok());
  EXPECT_FALSE(c.node(NodeId(0))->log().HasHelper());
  EXPECT_FALSE(c.node(NodeId(1))->buffer().HasRemoteTier());
  EXPECT_FALSE(c.node(NodeId(2))->IsActive());
}

TEST(Master, TriggerRebalanceBootsTargets) {
  Cluster c(SmallConfig(4, 2));
  workload::TpccLoadConfig load;
  load.warehouses = 2;
  load.fill = 0.05;
  load.home_nodes = {NodeId(0), NodeId(1)};
  workload::TpccDatabase db(&c, load);
  ASSERT_TRUE(db.Load().ok());
  partition::PhysiologicalPartitioning scheme(&c);
  Master master(&c, &scheme);
  bool done = false;
  ASSERT_TRUE(master
                  .TriggerRebalance({NodeId(2), NodeId(3)}, 0.5,
                                    [&]() { done = true; })
                  .ok());
  EXPECT_FALSE(c.node(NodeId(2))->IsActive()) << "boots asynchronously";
  c.RunUntil(c.Now() + 300 * kUsPerSec);
  EXPECT_TRUE(done);
  EXPECT_TRUE(c.node(NodeId(2))->IsActive());
}

// A master with no recovery manager wired still detects a crash but
// cannot heal it: the restart is retried, then given up after
// kMaxHealAttempts, and a rebalance onto the crashed node is refused rather
// than booting it without redo.
TEST(Master, UnwiredMasterDetectsButCannotHealACrash) {
  Cluster c(SmallConfig(4, 3));
  partition::PhysiologicalPartitioning scheme(&c);
  MasterPolicy policy;
  policy.check_period = kUsPerSec;
  policy.stats_window = kUsPerSec;
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  Master master(&c, &scheme, policy);
  master.Start();
  c.RunUntil(2 * kUsPerSec + kUsPerMs);
  ASSERT_TRUE(c.node_state(NodeId(2)).watched) << "node 2 reported";

  // The crash comes from a recovery manager the master does not know.
  fault::RecoveryManager faults(&c, &scheme);
  ASSERT_TRUE(faults.Crash(NodeId(2)).ok());
  c.RunUntil(c.Now() + 3 * kUsPerSec);
  EXPECT_EQ(master.event_count(ControlEventType::kNodeDeclaredDead), 1);
  EXPECT_TRUE(c.node_state(NodeId(2)).healing) << "restart being retried";

  // One retry per control period, then the master gives up.
  c.RunUntil(c.Now() + (kMaxHealAttempts + 1) * policy.check_period);
  EXPECT_FALSE(c.node_state(NodeId(2)).healing) << "healing abandoned";
  EXPECT_TRUE(c.node_state(NodeId(2)).crashed);
  EXPECT_FALSE(c.node(NodeId(2))->IsActive());
  EXPECT_EQ(master.event_count(ControlEventType::kRestartIssued), 0);
  EXPECT_EQ(master.event_count(ControlEventType::kNodeRecovered), 0);
  EXPECT_EQ(master.event_count(ControlEventType::kNodeDeclaredDead), 1)
      << "a declared-dead node is no longer watched";

  EXPECT_TRUE(
      master.TriggerRebalance({NodeId(2)}, 0.5).IsFailedPrecondition());

  // Every per-type count is the count of that type on the timeline.
  std::array<int, kControlEventTypeCount> on_timeline{};
  for (const auto& e : master.control_events()) {
    ++on_timeline[static_cast<size_t>(e.type)];
  }
  for (size_t t = 0; t < kControlEventTypeCount; ++t) {
    EXPECT_EQ(master.event_count(static_cast<ControlEventType>(t)),
              on_timeline[t]);
  }
}

// The heartbeat detector's two stages: one missed window only raises
// suspicion; the node is declared dead once kDeclareDeadAfter consecutive
// windows have gone by without a report. Each stage fires once, in order.
TEST(Master, DetectorSuspectsAfterOneWindowAndDeclaresDeadAfterK) {
  Cluster c(SmallConfig(4, 3));
  partition::PhysiologicalPartitioning scheme(&c);
  MasterPolicy policy;
  policy.check_period = kUsPerSec;
  policy.stats_window = kUsPerSec;
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  Master master(&c, &scheme, policy);
  master.Start();
  c.RunUntil(2 * kUsPerSec + kUsPerMs);
  ASSERT_TRUE(c.node_state(NodeId(2)).watched) << "node 2 reported";

  fault::RecoveryManager faults(&c, &scheme);
  ASSERT_TRUE(faults.Crash(NodeId(2)).ok());
  const auto suspected = [&] {
    return master.event_count(ControlEventType::kNodeSuspected);
  };
  const auto dead = [&] {
    return master.event_count(ControlEventType::kNodeDeclaredDead);
  };
  EXPECT_EQ(suspected(), 0);

  // One window missed: suspected, not yet dead.
  c.RunUntil(c.Now() + policy.check_period);
  EXPECT_EQ(suspected(), 1);
  EXPECT_EQ(dead(), 0);
  for (int missed = 2; missed < kDeclareDeadAfter; ++missed) {
    c.RunUntil(c.Now() + policy.check_period);
    EXPECT_EQ(dead(), 0) << "only " << missed << " windows missed";
  }

  // The k-th missed window declares the node dead.
  c.RunUntil(c.Now() + policy.check_period);
  EXPECT_EQ(suspected(), 1);
  EXPECT_EQ(dead(), 1);

  // Later windows emit neither again: a declared-dead node is unwatched.
  c.RunUntil(c.Now() + 3 * policy.check_period);
  EXPECT_EQ(suspected(), 1);
  EXPECT_EQ(dead(), 1);

  std::vector<ControlEvent> detector;
  for (const auto& e : master.control_events()) {
    if (e.type == ControlEventType::kNodeSuspected ||
        e.type == ControlEventType::kNodeDeclaredDead) {
      detector.push_back(e);
    }
  }
  ASSERT_EQ(detector.size(), 2u);
  EXPECT_EQ(detector[0].type, ControlEventType::kNodeSuspected);
  EXPECT_EQ(detector[1].type, ControlEventType::kNodeDeclaredDead);
  EXPECT_EQ(detector[0].node, NodeId(2));
  EXPECT_EQ(detector[1].node, NodeId(2));
  EXPECT_EQ(detector[1].at - detector[0].at,
            (kDeclareDeadAfter - 1) * policy.check_period);
}

}  // namespace
}  // namespace wattdb::cluster
