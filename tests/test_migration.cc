// Migration-protocol correctness tests (§4.3): the two-pointer redirection,
// drain semantics, snapshot correctness for transactions that start before,
// during, and after a move, and the semantic differences between the three
// schemes.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "cluster/cluster.h"
#include "cluster/master.h"
#include "fault/recovery_manager.h"
#include "partition/logical.h"
#include "partition/physical.h"
#include "partition/physiological.h"

namespace wattdb::partition {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() : cluster_(MakeConfig()) {
    table_ = cluster_.catalog().CreateTable(
        {TableId(), "t", {{"v", catalog::ColumnType::kString, 64}}});
    part_ = cluster_.catalog().CreatePartition(table_, NodeId(0));
    WATTDB_CHECK(
        cluster_.catalog().AssignRange(table_, {0, 10000}, part_->id()).ok());
    // Two segments so half can move.
    auto s1 = cluster_.master()->AllocateSegment(0, part_, {0, 5000});
    auto s2 = cluster_.master()->AllocateSegment(0, part_, {5000, 10000});
    WATTDB_CHECK(s1.ok() && s2.ok());
    tx::Txn* w = cluster_.BeginTxn();
    for (Key k = 0; k < 200; ++k) {
      WATTDB_CHECK(cluster_.master()
                       ->Insert(w, part_, k * 50,
                                std::vector<uint8_t>(3200,
                                                     static_cast<uint8_t>(k)))
                       .ok());
    }
    cluster_.CommitTxn(cluster_.master(), w);
    cluster_.tm().Release(w->id);
  }

  static cluster::ClusterConfig MakeConfig() {
    cluster::ClusterConfig cfg;
    cfg.num_nodes = 3;
    cfg.initially_active = 3;
    return cfg;
  }

  Status ReadKey(Key k, uint8_t* out) {
    tx::Txn* r = cluster_.BeginTxn(true);
    auto [part, second] = cluster_.RouteBoth(table_, k);
    if (part == nullptr) return Status::NotFound("no route");
    storage::Record rec;
    Status s = cluster_.node(part->owner())->Read(r, part, k, &rec);
    if (s.IsNotFound() && second != nullptr) {
      s = cluster_.node(second->owner())->Read(r, second, k, &rec);
    }
    if (s.ok() && out != nullptr) *out = rec.payload[0];
    cluster_.tm().Commit(r);
    cluster_.tm().Release(r->id);
    return s;
  }

  cluster::Cluster cluster_;
  TableId table_;
  catalog::Partition* part_;
};

TEST_F(MigrationTest, PhysiologicalMovesOwnershipAndData) {
  PhysiologicalPartitioning scheme(&cluster_);
  bool done = false;
  ASSERT_TRUE(
      scheme.StartRebalance({NodeId(1)}, 0.5, [&]() { done = true; }).ok());
  cluster_.RunUntil(cluster_.Now() + 120 * kUsPerSec);
  ASSERT_TRUE(done);
  EXPECT_EQ(scheme.stats().segments_moved, 1);
  // Node 1 now owns a partition with the moved segment; its bytes moved too.
  auto owned = cluster_.catalog().PartitionsOwnedBy(NodeId(1));
  ASSERT_EQ(owned.size(), 1u);
  EXPECT_EQ(owned[0]->segment_count(), 1u);
  EXPECT_FALSE(cluster_.segments().SegmentsOn(NodeId(1)).empty());
  EXPECT_TRUE(cluster_.catalog().CheckInvariants());
  // Every key is still readable with the right value.
  for (Key k = 0; k < 200; ++k) {
    uint8_t v = 0;
    ASSERT_TRUE(ReadKey(k * 50, &v).ok()) << k;
    EXPECT_EQ(v, static_cast<uint8_t>(k));
  }
}

TEST_F(MigrationTest, PhysicalMovesBytesOnly) {
  PhysicalPartitioning scheme(&cluster_);
  bool done = false;
  ASSERT_TRUE(
      scheme.StartRebalance({NodeId(1)}, 0.5, [&]() { done = true; }).ok());
  cluster_.RunUntil(cluster_.Now() + 120 * kUsPerSec);
  ASSERT_TRUE(done);
  // Ownership unchanged; bytes relocated.
  EXPECT_TRUE(cluster_.catalog().PartitionsOwnedBy(NodeId(1)).empty());
  EXPECT_FALSE(cluster_.segments().SegmentsOn(NodeId(1)).empty());
  EXPECT_EQ(part_->segment_count(), 2u);
  // Reads now pay remote fetches but still succeed.
  tx::Txn* r = cluster_.BeginTxn(true);
  storage::Record rec;
  Key moved_key = 0;
  for (storage::Segment* seg : cluster_.segments().SegmentsOn(NodeId(1))) {
    moved_key = seg->MinKey();
  }
  ASSERT_TRUE(cluster_.master()->Read(r, part_, moved_key, &rec).ok());
  EXPECT_GT(r->net_us, 0) << "physical: owner fetches pages remotely";
  cluster_.tm().Commit(r);
  cluster_.tm().Release(r->id);
}

TEST_F(MigrationTest, LogicalMovesRecordsTransactionally) {
  MigrationConfig mc;
  mc.logical_batch_records = 64;
  LogicalPartitioning scheme(&cluster_, mc);
  bool done = false;
  ASSERT_TRUE(
      scheme.StartRebalance({NodeId(1)}, 0.5, [&]() { done = true; }).ok());
  cluster_.RunUntil(cluster_.Now() + 300 * kUsPerSec);
  ASSERT_TRUE(done);
  EXPECT_GT(scheme.stats().records_moved, 50);
  auto owned = cluster_.catalog().PartitionsOwnedBy(NodeId(1));
  ASSERT_EQ(owned.size(), 1u);
  // All 200 records readable, values intact.
  for (Key k = 0; k < 200; ++k) {
    uint8_t v = 0;
    ASSERT_TRUE(ReadKey(k * 50, &v).ok()) << k;
    EXPECT_EQ(v, static_cast<uint8_t>(k));
  }
  EXPECT_TRUE(cluster_.catalog().CheckInvariants());
}

TEST_F(MigrationTest, SnapshotBeforeMoveStillReadsDuringAndAfter) {
  // §4.3 Correctness case 1: transactions started prior to rebalancing must
  // be able to access old versions of the records.
  tx::Txn* old_reader = cluster_.BeginTxn(true);

  PhysiologicalPartitioning scheme(&cluster_);
  bool done = false;
  ASSERT_TRUE(
      scheme.StartRebalance({NodeId(1)}, 0.5, [&]() { done = true; }).ok());
  cluster_.RunUntil(cluster_.Now() + 120 * kUsPerSec);
  ASSERT_TRUE(done);

  // The old snapshot reads moved records through the new location.
  int readable = 0;
  for (Key k = 0; k < 200; ++k) {
    auto [part, second] = cluster_.RouteBoth(table_, k * 50);
    ASSERT_NE(part, nullptr);
    storage::Record rec;
    Status s = cluster_.node(part->owner())->Read(old_reader, part, k * 50, &rec);
    if (s.IsNotFound() && second != nullptr) {
      s = cluster_.node(second->owner())->Read(old_reader, second, k * 50, &rec);
    }
    if (s.ok()) ++readable;
  }
  EXPECT_EQ(readable, 200);
  cluster_.tm().Commit(old_reader);
  cluster_.tm().Release(old_reader->id);
}

TEST_F(MigrationTest, WritersDuringMoveLandAtNewLocation) {
  // §4.3 Correctness case 2: transactions started after rebalancing must
  // not access old copies; writes during the drain window wait and then hit
  // the new partition.
  MigrationConfig mc;
  mc.cost_scale = 2000.0;  // Stretch the copy so the window is observable.
  PhysiologicalPartitioning scheme(&cluster_, mc);
  bool done = false;
  ASSERT_TRUE(
      scheme.StartRebalance({NodeId(1)}, 0.5, [&]() { done = true; }).ok());
  // Issue an update while the move is in flight.
  cluster_.RunUntil(cluster_.Now() + 500 * kUsPerMs);
  tx::Txn* w = cluster_.BeginTxn();
  // Find a key in the moving range (the scheme moves one of two segments).
  Key probe = 0;
  catalog::Partition* dst = nullptr;
  for (Key k = 0; k < 200 && dst == nullptr; ++k) {
    auto route = cluster_.catalog().Route(table_, k * 50);
    if (route.has_value() && route->secondary.valid()) {
      probe = k * 50;
      dst = cluster_.catalog().GetPartition(route->secondary);
    }
  }
  ASSERT_NE(dst, nullptr) << "a move must be in flight";
  catalog::Partition* part = cluster_.RouteBoth(table_, probe).first;
  Status s = cluster_.node(part->owner())
                 ->Update(w, part, probe, std::vector<uint8_t>(32, 0xEE));
  if (s.IsNotFound()) {
    s = cluster_.node(dst->owner())
            ->Update(w, dst, probe, std::vector<uint8_t>(32, 0xEE));
  }
  ASSERT_TRUE(s.ok());
  cluster_.CommitTxn(cluster_.master(), w);
  cluster_.tm().Release(w->id);

  cluster_.RunUntil(cluster_.Now() + 600 * kUsPerSec);
  ASSERT_TRUE(done);
  uint8_t v = 0;
  ASSERT_TRUE(ReadKey(probe, &v).ok());
  EXPECT_EQ(v, 0xEE) << "the post-move read must see the mid-move write";
}

TEST_F(MigrationTest, DrainBlocksWritersUntilCopyDone) {
  PhysiologicalPartitioning scheme(&cluster_);
  ASSERT_TRUE(scheme.StartRebalance({NodeId(1)}, 0.5, nullptr).ok());
  // Let the mover acquire its partition read lock (the window spans one
  // real segment copy, ~10 ms for the fixture's ~320 KB segment).
  cluster_.RunUntil(cluster_.Now() + 2 * kUsPerMs);
  // A writer to the locked partition must wait (lock_wait > 0)...
  tx::Txn* w = cluster_.BeginTxn();
  auto [part, second] = cluster_.RouteBoth(table_, 0);
  Status s = cluster_.node(part->owner())
                 ->Update(w, part, 0, std::vector<uint8_t>(32, 1));
  if (s.IsNotFound() && second != nullptr) {
    s = cluster_.node(second->owner())
            ->Update(w, second, 0, std::vector<uint8_t>(32, 1));
  }
  ASSERT_TRUE(s.ok());
  EXPECT_GT(w->lock_wait_us, 0) << "writer drains behind the migration lock";
  // ...but an MVCC reader does not.
  tx::Txn* r = cluster_.BeginTxn(true);
  storage::Record rec;
  ASSERT_TRUE(cluster_.node(part->owner())->Read(r, part, 50, &rec).ok());
  EXPECT_EQ(r->lock_wait_us, 0);
  cluster_.CommitTxn(cluster_.master(), w);
  cluster_.tm().Release(w->id);
  cluster_.tm().Commit(r);
  cluster_.tm().Release(r->id);
  cluster_.RunUntil(cluster_.Now() + 120 * kUsPerSec);
}

// A queued move whose source was deposed before it ran: the range was
// re-assigned to another partition (a promoted standby holding newer
// values) while the source still lists the segment in its top index. An
// ownership-moving scheme must abandon the task without registering it
// with the master, so readers keep seeing the new owner's values.
class DeposedSourceTest : public MigrationTest {
 protected:
  void ExpectMoveAbandoned(MigrationManagerBase* scheme) {
    const auto entries = part_->top_index().All();
    ASSERT_EQ(entries.size(), 2u);
    const index::TopIndex::Entry moving = entries[0];
    ASSERT_EQ(moving.range.lo, 0u);

    // The new owner: a partition on node 2 with its own copy of the range,
    // carrying values the source never saw.
    catalog::Partition* owner =
        cluster_.catalog().CreatePartition(table_, NodeId(2));
    ASSERT_TRUE(
        cluster_.catalog().AssignRange(table_, moving.range, owner->id()).ok());
    cluster::Node* owner_node = cluster_.node(NodeId(2));
    ASSERT_TRUE(owner_node->AllocateSegment(0, owner, moving.range).ok());
    tx::Txn* w = cluster_.BeginTxn();
    for (Key k = moving.range.lo; k < moving.range.hi; k += 50) {
      ASSERT_TRUE(owner_node
                      ->Insert(w, owner, k,
                               std::vector<uint8_t>(
                                   64, static_cast<uint8_t>(k / 50 + 100)))
                      .ok());
    }
    cluster_.CommitTxn(owner_node, w);
    cluster_.tm().Release(w->id);
    ASSERT_FALSE(part_->top_index().RangeOf(moving.segment).Empty());

    bool done = false;
    ASSERT_TRUE(scheme
                    ->StartMoves({cluster::SegmentMove{
                                     table_, moving.segment, moving.range,
                                     part_->id(), NodeId(0), NodeId(1)}},
                                 [&]() { done = true; })
                    .ok());
    cluster_.RunUntil(cluster_.Now() + 120 * kUsPerSec);
    ASSERT_TRUE(done);
    EXPECT_EQ(scheme->stats().tasks_failed, 1);
    EXPECT_EQ(scheme->stats().segments_moved, 0);
    for (const auto& route :
         cluster_.catalog().RoutesInRange(table_, KeyRange{0, 10000})) {
      EXPECT_FALSE(route.secondary.valid())
          << "a move stayed registered on [" << route.range.lo << ", "
          << route.range.hi << ")";
    }
    for (Key k = moving.range.lo; k < moving.range.hi; k += 50) {
      uint8_t v = 0;
      ASSERT_TRUE(ReadKey(k, &v).ok()) << k;
      EXPECT_EQ(v, static_cast<uint8_t>(k / 50 + 100))
          << "key " << k << " lost the new owner's value";
    }
    EXPECT_TRUE(cluster_.catalog().CheckInvariants());
  }
};

TEST_F(DeposedSourceTest, PhysiologicalAbandonsMove) {
  PhysiologicalPartitioning scheme(&cluster_);
  ExpectMoveAbandoned(&scheme);
}

TEST_F(DeposedSourceTest, LogicalAbandonsMove) {
  LogicalPartitioning scheme(&cluster_);
  ExpectMoveAbandoned(&scheme);
}

// Routing hands back the catalog entry's two pointers (§4.3) without
// probing either, and only the routed op's second visit follows the
// secondary. That relies on an invariant of the ownership-moving schemes:
// while an entry carries a secondary, its primary still holds the moving
// segment. Each move below runs one event at a time, and the routes are
// checked after every event.
class TwoPointerStepTest : public MigrationTest {
 protected:
  /// Every entry with a secondary is covered by its primary's segments,
  /// and RouteBoth returns exactly the entry's pointers: {source,
  /// destination} mid-move, {owner, nullptr} otherwise.
  void CheckRoutes() {
    auto& cat = cluster_.catalog();
    for (const auto& e : cat.RoutesInRange(table_, KeyRange{0, 10000})) {
      catalog::Partition* primary = cat.GetPartition(e.primary);
      ASSERT_NE(primary, nullptr);
      const auto [first, second] = cluster_.RouteBoth(table_, e.range.lo);
      EXPECT_EQ(first, primary);
      if (!e.secondary.valid()) {
        EXPECT_EQ(second, nullptr);
        continue;
      }
      EXPECT_EQ(primary, part_) << "the source stays primary mid-move";
      EXPECT_EQ(second, cat.GetPartition(e.secondary));
      ASSERT_NE(second, nullptr);
      EXPECT_EQ(second->owner(), NodeId(1));
      moving_ = e.range;
      dst_ = second;
      Key covered = e.range.lo;
      for (const auto& seg : primary->SegmentsInRange(e.range)) {
        if (seg.range.lo > covered) break;
        covered = std::max(covered, seg.range.hi);
      }
      EXPECT_GE(covered, e.range.hi)
          << "the primary no longer holds [" << e.range.lo << ", "
          << e.range.hi << ") while a move is registered over it";
    }
  }

  /// Rebalance half the data onto node 1 with `scheme`, one event at a
  /// time until the queue is empty; `after_event` runs after each check.
  void StepMove(MigrationManagerBase* scheme,
                const std::function<void()>& after_event = nullptr) {
    bool done = false;
    ASSERT_TRUE(
        scheme->StartRebalance({NodeId(1)}, 0.5, [&]() { done = true; })
            .ok());
    int events = 0;
    while (cluster_.events().RunOne()) {
      ASSERT_LT(++events, 100000) << "the move never settled";
      CheckRoutes();
      if (HasFailure()) return;
      if (after_event) after_event();
    }
    ASSERT_TRUE(done);
    ASSERT_NE(dst_, nullptr) << "no event saw the move in flight";
  }

  /// The moved range routes to its destination alone.
  void ExpectMoveCompleted() {
    const auto [first, second] = cluster_.RouteBoth(table_, moving_.lo);
    EXPECT_EQ(first, dst_);
    EXPECT_EQ(second, nullptr);
  }

  KeyRange moving_{0, 0};
  catalog::Partition* dst_ = nullptr;
};

TEST_F(TwoPointerStepTest, PhysiologicalMove) {
  PhysiologicalPartitioning scheme(&cluster_);
  StepMove(&scheme);
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(scheme.stats().segments_moved, 1);
  ExpectMoveCompleted();
}

TEST_F(TwoPointerStepTest, LogicalMove) {
  MigrationConfig mc;
  mc.logical_batch_records = 64;
  LogicalPartitioning scheme(&cluster_, mc);
  StepMove(&scheme);
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(scheme.stats().segments_moved, 1);
  ExpectMoveCompleted();
}

TEST_F(TwoPointerStepTest, LogicalMoveAbandonedOnEndpointCrash) {
  MigrationConfig mc;
  mc.logical_batch_records = 64;
  LogicalPartitioning scheme(&cluster_, mc);
  fault::RecoveryManager recovery(&cluster_, &scheme);
  // The destination crashes once the first batch has landed there; the
  // next batch finds it down and abandons the move.
  StepMove(&scheme, [&]() {
    if (scheme.stats().records_moved > 0 &&
        cluster_.node(NodeId(1))->IsActive()) {
      ASSERT_TRUE(recovery.Crash(NodeId(1)).ok());
    }
  });
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(scheme.stats().tasks_failed, 1);
  EXPECT_EQ(scheme.stats().segments_moved, 0);
  // An abandoned logical move keeps its two-pointer entry: the records of
  // the first batch are reachable only through the secondary.
  const auto [first, second] = cluster_.RouteBoth(table_, moving_.lo);
  EXPECT_EQ(first, part_);
  EXPECT_EQ(second, dst_);
}

TEST_F(MigrationTest, PhysicalCannotDrain) {
  PhysicalPartitioning scheme(&cluster_);
  EXPECT_TRUE(scheme.Drain(NodeId(0), nullptr).IsNotSupported())
      << "the paper's conclusion: physical partitioning cannot transfer "
         "ownership, so scale-in is impossible";
}

TEST_F(MigrationTest, PhysiologicalDrainEmptiesNode) {
  // First spread data onto node 1, then drain it back.
  PhysiologicalPartitioning scheme(&cluster_);
  bool spread = false;
  ASSERT_TRUE(
      scheme.StartRebalance({NodeId(1)}, 0.5, [&]() { spread = true; }).ok());
  cluster_.RunUntil(cluster_.Now() + 120 * kUsPerSec);
  ASSERT_TRUE(spread);
  ASSERT_FALSE(cluster_.segments().SegmentsOn(NodeId(1)).empty());

  bool drained = false;
  ASSERT_TRUE(scheme.Drain(NodeId(1), [&]() { drained = true; }).ok());
  cluster_.RunUntil(cluster_.Now() + 120 * kUsPerSec);
  ASSERT_TRUE(drained);
  EXPECT_TRUE(cluster_.segments().SegmentsOn(NodeId(1)).empty());
  // Now the node can power off.
  EXPECT_TRUE(cluster_.PowerOff(NodeId(1)).ok());
  // And all data remains readable.
  for (Key k = 0; k < 200; ++k) {
    ASSERT_TRUE(ReadKey(k * 50, nullptr).ok()) << k;
  }
}

TEST_F(MigrationTest, RejectsConcurrentRebalance) {
  PhysiologicalPartitioning scheme(&cluster_);
  ASSERT_TRUE(scheme.StartRebalance({NodeId(1)}, 0.5, nullptr).ok());
  EXPECT_TRUE(scheme.StartRebalance({NodeId(2)}, 0.5, nullptr).IsBusy());
  cluster_.RunUntil(cluster_.Now() + 120 * kUsPerSec);
}

TEST_F(MigrationTest, RejectsInactiveTarget) {
  cluster_.node(NodeId(2))->hardware().set_power_state(hw::PowerState::kStandby);
  PhysiologicalPartitioning scheme(&cluster_);
  EXPECT_TRUE(
      scheme.StartRebalance({NodeId(2)}, 0.5, nullptr).IsUnavailable());
}

TEST_F(MigrationTest, CostScaleStretchesMigration) {
  // The substitution knob: scaled migrations take proportionally longer.
  SimTime durations[2];
  for (int i = 0; i < 2; ++i) {
    cluster::ClusterConfig cfg;
    cfg.num_nodes = 2;
    cfg.initially_active = 2;
    cluster::Cluster c(cfg);
    const TableId t = c.catalog().CreateTable(
        {TableId(), "t", {{"v", catalog::ColumnType::kString, 64}}});
    catalog::Partition* p = c.catalog().CreatePartition(t, NodeId(0));
    WATTDB_CHECK(c.catalog().AssignRange(t, {0, 1000}, p->id()).ok());
    auto s1 = c.master()->AllocateSegment(0, p, {0, 500});
    auto s2 = c.master()->AllocateSegment(0, p, {500, 1000});
    WATTDB_CHECK(s1.ok() && s2.ok());
    for (Key k = 0; k < 400; ++k) {
      WATTDB_CHECK(s1.value()->Insert(k, std::vector<uint8_t>(64, 1)).ok());
      WATTDB_CHECK(
          s2.value()->Insert(500 + k, std::vector<uint8_t>(64, 1)).ok());
    }
    MigrationConfig mc;
    mc.cost_scale = i == 0 ? 1.0 : 8.0;
    PhysiologicalPartitioning scheme(&c, mc);
    bool done = false;
    const SimTime t0 = c.Now();
    WATTDB_CHECK(
        scheme.StartRebalance({NodeId(1)}, 0.5, [&]() { done = true; }).ok());
    c.RunUntil(c.Now() + 600 * kUsPerSec);
    WATTDB_CHECK(done);
    durations[i] = scheme.stats().finished_at - t0;
  }
  EXPECT_GT(durations[1], durations[0] * 3);
}

// A drain *destination* dying mid-drain must not strand the victim's data:
// the queued tasks targeting the dead node are re-targeted onto the
// remaining survivors immediately (counted in tasks_replanned), so the
// drain still finishes in its first attempt instead of wedging until the
// end-of-drain re-plan notices the leftovers. Regression test for the
// re-plan path in OnNodeFailure.
TEST(DrainReplan, DestinationDeathRetargetsQueuedTasks) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.initially_active = 4;
  cluster::Cluster cluster(cfg);
  const TableId table = cluster.catalog().CreateTable(
      {TableId(), "t", {{"v", catalog::ColumnType::kString, 64}}});
  // The drain victim (node 1) holds three segments, so PlanDrain round-
  // robins them across all three survivors — guaranteeing at least one
  // *queued* task targets node 3 when it dies.
  catalog::Partition* part = cluster.catalog().CreatePartition(table,
                                                               NodeId(1));
  WATTDB_CHECK(
      cluster.catalog().AssignRange(table, {0, 3000}, part->id()).ok());
  cluster::Node* victim = cluster.node(NodeId(1));
  for (Key lo = 0; lo < 3000; lo += 1000) {
    WATTDB_CHECK(victim->AllocateSegment(0, part, {lo, lo + 1000}).ok());
  }
  tx::Txn* w = cluster.BeginTxn();
  for (Key k = 0; k < 60; ++k) {
    WATTDB_CHECK(victim
                     ->Insert(w, part, k * 50,
                              std::vector<uint8_t>(
                                  3200, static_cast<uint8_t>(k)))
                     .ok());
  }
  cluster.CommitTxn(victim, w);
  cluster.tm().Release(w->id);

  PhysiologicalPartitioning scheme(&cluster);
  bool drained = false;
  ASSERT_TRUE(scheme.Drain(NodeId(1), [&]() { drained = true; }).ok());
  ASSERT_EQ(scheme.stats().tasks_planned, 3);
  // One task is already in flight (dst node 0); the queued ones target
  // nodes 2 and 3. Node 3 dies before its task runs.
  scheme.OnNodeFailure(NodeId(3));
  EXPECT_EQ(scheme.stats().tasks_replanned, 1)
      << "the queued task bound for the dead destination was not re-planned";
  EXPECT_EQ(scheme.stats().tasks_failed, 0)
      << "re-planning must re-target, not abandon";

  cluster.RunUntil(cluster.Now() + 120 * kUsPerSec);
  ASSERT_TRUE(drained) << "drain wedged after the destination died";
  EXPECT_TRUE(cluster.segments().SegmentsOn(NodeId(1)).empty())
      << "the victim still holds segments — its data was stranded";
  EXPECT_TRUE(cluster.segments().SegmentsOn(NodeId(3)).empty())
      << "a segment landed on the dead destination";
  EXPECT_TRUE(cluster.catalog().CheckInvariants());
  // Every record survived the re-targeted drain.
  tx::Txn* r = cluster.BeginTxn(true);
  for (Key k = 0; k < 60; ++k) {
    const auto e = cluster.catalog().Route(table, k * 50);
    ASSERT_TRUE(e.has_value()) << k;
    catalog::Partition* p = cluster.catalog().GetPartition(e->primary);
    ASSERT_NE(p, nullptr) << k;
    storage::Record rec;
    ASSERT_TRUE(cluster.node(p->owner())->Read(r, p, k * 50, &rec).ok()) << k;
    EXPECT_EQ(rec.payload[0], static_cast<uint8_t>(k));
  }
  cluster.tm().Commit(r);
  cluster.tm().Release(r->id);
}

}  // namespace
}  // namespace wattdb::partition
