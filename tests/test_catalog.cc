// Unit tests for the catalog: schemas, partitions, and the master's global
// routing table with two-pointer move entries.

#include <gtest/gtest.h>

#include "catalog/global_partition_table.h"

namespace wattdb::catalog {
namespace {

TableSchema SimpleSchema(const char* name) {
  TableSchema s;
  s.name = name;
  s.columns = {{"a", ColumnType::kInt64, 8}, {"b", ColumnType::kDouble, 8}};
  return s;
}

TEST(Schema, RecordBytesAndColumnIndex) {
  TableSchema s = SimpleSchema("t");
  EXPECT_EQ(s.RecordBytes(), 16u);
  EXPECT_EQ(s.ColumnIndex("b"), 1);
  EXPECT_EQ(s.ColumnIndex("zzz"), -1);
}

TEST(Catalog, CreateTableAndLookup) {
  GlobalPartitionTable cat;
  const TableId t = cat.CreateTable(SimpleSchema("orders"));
  ASSERT_NE(cat.GetSchema(t), nullptr);
  EXPECT_EQ(cat.GetSchema(t)->name, "orders");
  EXPECT_EQ(cat.GetSchemaByName("orders")->id, t);
  EXPECT_EQ(cat.GetSchemaByName("nope"), nullptr);
  EXPECT_EQ(cat.Tables().size(), 1u);
}

TEST(Catalog, PartitionLifecycle) {
  GlobalPartitionTable cat;
  const TableId t = cat.CreateTable(SimpleSchema("t"));
  Partition* p = cat.CreatePartition(t, NodeId(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->owner(), NodeId(1));
  EXPECT_EQ(cat.GetPartition(p->id()), p);
  EXPECT_EQ(cat.PartitionsOf(t).size(), 1u);
  EXPECT_EQ(cat.PartitionsOwnedBy(NodeId(1)).size(), 1u);
  EXPECT_TRUE(cat.PartitionsOwnedBy(NodeId(2)).empty());
  // Save the id: DropPartition frees the object `p` points at.
  const PartitionId pid = p->id();
  ASSERT_TRUE(cat.DropPartition(pid).ok());
  EXPECT_EQ(cat.GetPartition(pid), nullptr);
}

TEST(Catalog, DropRefusesRoutedPartition) {
  GlobalPartitionTable cat;
  const TableId t = cat.CreateTable(SimpleSchema("t"));
  Partition* p = cat.CreatePartition(t, NodeId(0));
  ASSERT_TRUE(cat.AssignRange(t, {0, 100}, p->id()).ok());
  EXPECT_TRUE(cat.DropPartition(p->id()).IsBusy());
  ASSERT_TRUE(cat.UnassignRange(t, {0, 100}).ok());
  EXPECT_TRUE(cat.DropPartition(p->id()).ok());
}

TEST(Catalog, RouteLookup) {
  GlobalPartitionTable cat;
  const TableId t = cat.CreateTable(SimpleSchema("t"));
  Partition* a = cat.CreatePartition(t, NodeId(0));
  Partition* b = cat.CreatePartition(t, NodeId(1));
  ASSERT_TRUE(cat.AssignRange(t, {0, 100}, a->id()).ok());
  ASSERT_TRUE(cat.AssignRange(t, {100, 200}, b->id()).ok());
  ASSERT_TRUE(cat.Route(t, 50).has_value());
  EXPECT_EQ(cat.Route(t, 50)->primary, a->id());
  EXPECT_EQ(cat.Route(t, 150)->primary, b->id());
  EXPECT_FALSE(cat.Route(t, 250).has_value());
  EXPECT_TRUE(cat.CheckInvariants());
}

TEST(Catalog, AssignRangeSplitsOverlaps) {
  GlobalPartitionTable cat;
  const TableId t = cat.CreateTable(SimpleSchema("t"));
  Partition* a = cat.CreatePartition(t, NodeId(0));
  Partition* b = cat.CreatePartition(t, NodeId(1));
  ASSERT_TRUE(cat.AssignRange(t, {0, 100}, a->id()).ok());
  // Reassign the middle to b: a keeps the flanks.
  ASSERT_TRUE(cat.AssignRange(t, {40, 60}, b->id()).ok());
  EXPECT_EQ(cat.Route(t, 39)->primary, a->id());
  EXPECT_EQ(cat.Route(t, 40)->primary, b->id());
  EXPECT_EQ(cat.Route(t, 59)->primary, b->id());
  EXPECT_EQ(cat.Route(t, 60)->primary, a->id());
  EXPECT_EQ(cat.AllRoutes(t).size(), 3u);
  EXPECT_TRUE(cat.CheckInvariants());
}

TEST(Catalog, TwoPointerMoveProtocol) {
  GlobalPartitionTable cat;
  const TableId t = cat.CreateTable(SimpleSchema("t"));
  Partition* a = cat.CreatePartition(t, NodeId(0));
  Partition* b = cat.CreatePartition(t, NodeId(1));
  ASSERT_TRUE(cat.AssignRange(t, {0, 100}, a->id()).ok());

  // Begin: both pointers visible (§4.3 Housekeeping).
  ASSERT_TRUE(cat.BeginMove(t, {20, 40}, b->id()).ok());
  auto mid = cat.Route(t, 30);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->primary, a->id());
  EXPECT_EQ(mid->secondary, b->id());
  // Outside the moving range: untouched.
  EXPECT_FALSE(cat.Route(t, 10)->secondary.valid());

  // Complete: primary flips, secondary cleared.
  ASSERT_TRUE(cat.CompleteMove(t, {20, 40}, b->id()).ok());
  mid = cat.Route(t, 30);
  EXPECT_EQ(mid->primary, b->id());
  EXPECT_FALSE(mid->secondary.valid());
  EXPECT_EQ(cat.Route(t, 10)->primary, a->id());
  EXPECT_TRUE(cat.CheckInvariants());
}

TEST(Catalog, RoutesInRange) {
  GlobalPartitionTable cat;
  const TableId t = cat.CreateTable(SimpleSchema("t"));
  Partition* a = cat.CreatePartition(t, NodeId(0));
  ASSERT_TRUE(cat.AssignRange(t, {0, 10}, a->id()).ok());
  ASSERT_TRUE(cat.AssignRange(t, {10, 20}, a->id()).ok());
  ASSERT_TRUE(cat.AssignRange(t, {50, 60}, a->id()).ok());
  EXPECT_EQ(cat.RoutesInRange(t, {5, 15}).size(), 2u);
  EXPECT_EQ(cat.RoutesInRange(t, {0, 100}).size(), 3u);
  EXPECT_TRUE(cat.RoutesInRange(t, {30, 40}).empty());
}

TEST(Catalog, InvalidArguments) {
  GlobalPartitionTable cat;
  const TableId t = cat.CreateTable(SimpleSchema("t"));
  Partition* a = cat.CreatePartition(t, NodeId(0));
  EXPECT_TRUE(cat.AssignRange(t, {5, 5}, a->id()).IsInvalidArgument());
  EXPECT_TRUE(cat.AssignRange(TableId(99), {0, 1}, a->id()).IsNotFound());
  EXPECT_TRUE(cat.AssignRange(t, {0, 1}, PartitionId(99)).IsNotFound());
}

TEST(Partition, StateAndForwarding) {
  Partition p(PartitionId(1), TableId(1), NodeId(0));
  EXPECT_EQ(p.state(), PartitionState::kNormal);
  p.set_state(PartitionState::kForwarding);
  EXPECT_EQ(p.state(), PartitionState::kForwarding);
  p.set_owner(NodeId(5));
  EXPECT_EQ(p.owner(), NodeId(5));
}

TEST(Partition, SegmentAttachment) {
  Partition p(PartitionId(1), TableId(1), NodeId(0));
  ASSERT_TRUE(p.AttachSegment({0, 50}, SegmentId(7)).ok());
  EXPECT_EQ(p.SegmentFor(25), SegmentId(7));
  EXPECT_EQ(p.SegmentFor(50), SegmentId::Invalid());
  EXPECT_EQ(p.segment_count(), 1u);
  EXPECT_EQ(p.SegmentsInRange({10, 20}).size(), 1u);
  ASSERT_TRUE(p.DetachSegment(SegmentId(7)).ok());
  EXPECT_EQ(p.segment_count(), 0u);
}

TEST(Catalog, RouteRefcountsTrackEveryMutator) {
  GlobalPartitionTable cat;
  const TableId t = cat.CreateTable(SimpleSchema("t"));
  Partition* p1 = cat.CreatePartition(t, NodeId(0));
  Partition* p2 = cat.CreatePartition(t, NodeId(1));

  // Unrouted partitions drop freely; routed ones are pinned.
  EXPECT_EQ(cat.RouteRefs(p1->id()), 0);
  ASSERT_TRUE(cat.AssignRange(t, {0, 100}, p1->id()).ok());
  EXPECT_EQ(cat.RouteRefs(p1->id()), 1);
  EXPECT_TRUE(cat.DropPartition(p1->id()).IsBusy());

  // Splitting an entry clones its references: carving [25, 75) out of
  // p1's range leaves p1 with the two remainders.
  ASSERT_TRUE(cat.AssignRange(t, {25, 75}, p2->id()).ok());
  EXPECT_EQ(cat.RouteRefs(p1->id()), 2);
  EXPECT_EQ(cat.RouteRefs(p2->id()), 1);
  EXPECT_TRUE(cat.CheckInvariants());

  // A move in flight pins the target through the secondary pointer — a
  // stale secondary alone must keep the partition undroppable.
  Partition* p3 = cat.CreatePartition(t, NodeId(1));
  ASSERT_TRUE(cat.BeginMove(t, {0, 25}, p3->id()).ok());
  EXPECT_EQ(cat.RouteRefs(p3->id()), 1);
  EXPECT_TRUE(cat.DropPartition(p3->id()).IsBusy());
  EXPECT_TRUE(cat.CheckInvariants());

  // Aborting the move releases the secondary; the target drops cleanly.
  ASSERT_TRUE(cat.AbortMove(t, {0, 25}, p3->id()).ok());
  EXPECT_EQ(cat.RouteRefs(p3->id()), 0);
  EXPECT_TRUE(cat.DropPartition(p3->id()).ok());
  EXPECT_TRUE(cat.CheckInvariants());

  // Completing a move re-homes the reference from source to target.
  Partition* p4 = cat.CreatePartition(t, NodeId(1));
  ASSERT_TRUE(cat.BeginMove(t, {0, 25}, p4->id()).ok());
  ASSERT_TRUE(cat.CompleteMove(t, {0, 25}, p4->id()).ok());
  EXPECT_EQ(cat.RouteRefs(p4->id()), 1);
  EXPECT_EQ(cat.RouteRefs(p1->id()), 1) << "only [75, 100) left on p1";
  EXPECT_TRUE(cat.CheckInvariants());

  // Unassigning the remaining ranges unpins everything.
  ASSERT_TRUE(cat.UnassignRange(t, {0, 100}).ok());
  EXPECT_EQ(cat.RouteRefs(p1->id()), 0);
  EXPECT_EQ(cat.RouteRefs(p2->id()), 0);
  EXPECT_EQ(cat.RouteRefs(p4->id()), 0);
  EXPECT_TRUE(cat.DropPartition(p1->id()).ok());
  EXPECT_TRUE(cat.DropPartition(p2->id()).ok());
  EXPECT_TRUE(cat.DropPartition(p4->id()).ok());
  EXPECT_TRUE(cat.CheckInvariants());
}

TEST(Catalog, SchemaNameLookupSurvivesManyTables) {
  GlobalPartitionTable cat;
  std::vector<TableId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(cat.CreateTable(SimpleSchema(
        ("table-" + std::to_string(i)).c_str())));
  }
  for (int i = 0; i < 64; ++i) {
    const TableSchema* s = cat.GetSchemaByName("table-" + std::to_string(i));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->id, ids[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(cat.GetSchemaByName("nope"), nullptr);
}

}  // namespace
}  // namespace wattdb::catalog
