// Integration tests for node-level transactional record operations: MVCC
// visibility through the full stack, aborts/undo, WAL, scans with version
// overlays, and redo recovery (§4.3 logging).

#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace wattdb::cluster {
namespace {

class NodeOpsTest : public ::testing::Test {
 protected:
  NodeOpsTest() : cluster_(MakeConfig()) {
    table_ = cluster_.catalog().CreateTable(
        {TableId(), "t", {{"v", catalog::ColumnType::kString, 64}}});
    part_ = cluster_.catalog().CreatePartition(table_, NodeId(0));
    WATTDB_CHECK(
        cluster_.catalog().AssignRange(table_, {0, 100000}, part_->id()).ok());
    auto seg = cluster_.master()->AllocateSegment(0, part_, {0, 100000});
    WATTDB_CHECK(seg.ok());
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig cfg;
    cfg.num_nodes = 2;
    cfg.initially_active = 2;
    return cfg;
  }

  std::vector<uint8_t> Payload(uint8_t v) {
    return std::vector<uint8_t>(32, v);
  }

  Cluster cluster_;
  TableId table_;
  catalog::Partition* part_;
};

TEST_F(NodeOpsTest, InsertThenRead) {
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(w, part_, 1, Payload(7)).ok());
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);

  tx::Txn* r = cluster_.BeginTxn(true);
  storage::Record rec;
  ASSERT_TRUE(n->Read(r, part_, 1, &rec).ok());
  EXPECT_EQ(rec.payload[0], 7);
  EXPECT_GT(r->Elapsed(), 0);  // Simulated time moved.
  cluster_.tm().Commit(r);
  cluster_.tm().Release(r->id);
}

TEST_F(NodeOpsTest, DuplicateInsertFails) {
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(w, part_, 1, Payload(1)).ok());
  EXPECT_TRUE(n->Insert(w, part_, 1, Payload(2)).IsAlreadyExists());
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);
}

TEST_F(NodeOpsTest, SnapshotIsolationAcrossUpdates) {
  Node* n = cluster_.master();
  tx::Txn* w1 = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(w1, part_, 1, Payload(1)).ok());
  cluster_.CommitTxn(n, w1);
  cluster_.tm().Release(w1->id);

  // Old snapshot opens BEFORE the update commits.
  tx::Txn* old_reader = cluster_.BeginTxn(true);

  tx::Txn* w2 = cluster_.BeginTxn();
  ASSERT_TRUE(n->Update(w2, part_, 1, Payload(2)).ok());
  cluster_.CommitTxn(n, w2);
  cluster_.tm().Release(w2->id);

  storage::Record rec;
  ASSERT_TRUE(n->Read(old_reader, part_, 1, &rec).ok());
  EXPECT_EQ(rec.payload[0], 1) << "old snapshot must see the pre-image";
  cluster_.tm().Commit(old_reader);
  cluster_.tm().Release(old_reader->id);

  tx::Txn* new_reader = cluster_.BeginTxn(true);
  ASSERT_TRUE(n->Read(new_reader, part_, 1, &rec).ok());
  EXPECT_EQ(rec.payload[0], 2);
  cluster_.tm().Commit(new_reader);
  cluster_.tm().Release(new_reader->id);
}

TEST_F(NodeOpsTest, DeleteVisibleOnlyToNewSnapshots) {
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(w, part_, 1, Payload(1)).ok());
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);

  tx::Txn* old_reader = cluster_.BeginTxn(true);
  tx::Txn* d = cluster_.BeginTxn();
  ASSERT_TRUE(n->Delete(d, part_, 1).ok());
  cluster_.CommitTxn(n, d);
  cluster_.tm().Release(d->id);

  storage::Record rec;
  EXPECT_TRUE(n->Read(old_reader, part_, 1, &rec).ok())
      << "pre-delete snapshot still reads the record from the chain";
  cluster_.tm().Commit(old_reader);
  cluster_.tm().Release(old_reader->id);

  tx::Txn* new_reader = cluster_.BeginTxn(true);
  EXPECT_TRUE(n->Read(new_reader, part_, 1, &rec).IsNotFound());
  cluster_.tm().Commit(new_reader);
  cluster_.tm().Release(new_reader->id);
}

TEST_F(NodeOpsTest, AbortRollsBackPages) {
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(w, part_, 1, Payload(1)).ok());
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);

  tx::Txn* bad = cluster_.BeginTxn();
  ASSERT_TRUE(n->Update(bad, part_, 1, Payload(9)).ok());
  ASSERT_TRUE(n->Insert(bad, part_, 2, Payload(5)).ok());
  cluster_.AbortTxn(bad);
  cluster_.tm().Release(bad->id);

  tx::Txn* r = cluster_.BeginTxn(true);
  storage::Record rec;
  ASSERT_TRUE(n->Read(r, part_, 1, &rec).ok());
  EXPECT_EQ(rec.payload[0], 1) << "update rolled back";
  EXPECT_TRUE(n->Read(r, part_, 2, &rec).IsNotFound())
      << "insert rolled back";
  cluster_.tm().Commit(r);
  cluster_.tm().Release(r->id);
}

TEST_F(NodeOpsTest, ApplyUndoRestoresPreImagesAndDropsInserts) {
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  for (Key k = 1; k <= 60; ++k) {
    ASSERT_TRUE(n->Insert(w, part_, k, Payload(1)).ok());
  }
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);

  // Undo a grown update (restored in place), a delete (re-inserted) and an
  // insert (removed), applied straight through Node::ApplyUndo.
  tx::Txn* bad = cluster_.BeginTxn();
  ASSERT_TRUE(n->Update(bad, part_, 1, std::vector<uint8_t>(3000, 9)).ok());
  ASSERT_TRUE(n->Delete(bad, part_, 2).ok());
  ASSERT_TRUE(n->Insert(bad, part_, 100, Payload(5)).ok());
  auto undo = cluster_.tm().Abort(bad);
  ASSERT_EQ(undo.size(), 3u);
  n->ApplyUndo(undo, [&](TableId, Key) { return part_; });
  cluster_.tm().Release(bad->id);

  storage::Segment* seg = cluster_.segments().Get(part_->SegmentFor(1));
  ASSERT_NE(seg, nullptr);
  auto one = seg->Read(1);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().payload, Payload(1));
  auto two = seg->Read(2);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two.value().payload, Payload(1));
  EXPECT_FALSE(seg->Contains(100));
  EXPECT_EQ(seg->record_count(), 60u);
  EXPECT_TRUE(seg->CheckInvariants());
}

TEST_F(NodeOpsTest, ScanSeesOnlyVisibleRecords) {
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  for (Key k = 1; k <= 10; ++k) {
    ASSERT_TRUE(n->Insert(w, part_, k, Payload(static_cast<uint8_t>(k))).ok());
  }
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);

  tx::Txn* old_reader = cluster_.BeginTxn(true);
  tx::Txn* d = cluster_.BeginTxn();
  ASSERT_TRUE(n->Delete(d, part_, 5).ok());
  ASSERT_TRUE(n->Insert(d, part_, 11, Payload(11)).ok());
  cluster_.CommitTxn(n, d);
  cluster_.tm().Release(d->id);

  // Old snapshot: sees key 5, not key 11.
  std::vector<Key> seen;
  ASSERT_TRUE(n->ScanRange(old_reader, part_, {0, 1000},
                           [&](const storage::Record& r) {
                             seen.push_back(r.key);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_NE(std::find(seen.begin(), seen.end(), 5), seen.end());
  EXPECT_EQ(std::find(seen.begin(), seen.end(), 11), seen.end());
  cluster_.tm().Commit(old_reader);
  cluster_.tm().Release(old_reader->id);

  // New snapshot: no key 5, has key 11.
  tx::Txn* r = cluster_.BeginTxn(true);
  seen.clear();
  ASSERT_TRUE(n->ScanRange(r, part_, {0, 1000},
                           [&](const storage::Record& rec) {
                             seen.push_back(rec.key);
                             return true;
                           })
                  .ok());
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(std::find(seen.begin(), seen.end(), 5), seen.end());
  EXPECT_NE(std::find(seen.begin(), seen.end(), 11), seen.end());
  cluster_.tm().Commit(r);
  cluster_.tm().Release(r->id);
}

TEST_F(NodeOpsTest, MglReadersBlockBehindWriters) {
  cluster_.master()->set_cc_scheme(tx::CcScheme::kMglRx);
  Node* n = cluster_.master();
  tx::Txn* w0 = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(w0, part_, 1, Payload(1)).ok());
  cluster_.CommitTxn(n, w0);
  cluster_.tm().Release(w0->id);

  tx::Txn* w = cluster_.BeginTxn();
  ASSERT_TRUE(n->Update(w, part_, 1, Payload(2)).ok());
  // Writer "holds" its X lock until its commit time.
  const SimTime writer_commit = w->now;

  tx::Txn* r = cluster_.BeginTxn(true);
  storage::Record rec;
  ASSERT_TRUE(n->Read(r, part_, 1, &rec).ok());
  EXPECT_GE(r->now, writer_commit) << "MGL reader waits for the writer";
  EXPECT_GT(r->lock_wait_us, 0);

  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);
  cluster_.tm().Commit(r);
  cluster_.tm().Release(r->id);
}

TEST_F(NodeOpsTest, MvccReadersDoNotBlock) {
  Node* n = cluster_.master();
  tx::Txn* w0 = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(w0, part_, 1, Payload(1)).ok());
  cluster_.CommitTxn(n, w0);
  cluster_.tm().Release(w0->id);

  tx::Txn* w = cluster_.BeginTxn();
  ASSERT_TRUE(n->Update(w, part_, 1, Payload(2)).ok());

  tx::Txn* r = cluster_.BeginTxn(true);
  storage::Record rec;
  ASSERT_TRUE(n->Read(r, part_, 1, &rec).ok());
  EXPECT_EQ(r->lock_wait_us, 0) << "MVCC snapshot read takes no locks";
  EXPECT_EQ(rec.payload[0], 1) << "reader sees the pre-image";

  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);
  cluster_.tm().Commit(r);
  cluster_.tm().Release(r->id);
}

TEST_F(NodeOpsTest, WalRecordsWrittenInOrder) {
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(w, part_, 1, Payload(1)).ok());
  ASSERT_TRUE(n->Update(w, part_, 1, Payload(2)).ok());
  ASSERT_TRUE(n->Delete(w, part_, 1).ok());
  cluster_.CommitTxn(n, w);
  // Read the txn's accounting before Release frees the descriptor.
  const SimTime log_us = w->log_us;
  cluster_.tm().Release(w->id);

  const auto& records = n->log().records();
  ASSERT_GE(records.size(), 4u);
  EXPECT_EQ(records[0].type, tx::LogRecordType::kInsert);
  EXPECT_EQ(records[1].type, tx::LogRecordType::kUpdate);
  EXPECT_EQ(records[2].type, tx::LogRecordType::kDelete);
  EXPECT_EQ(records.back().type, tx::LogRecordType::kCommit);
  EXPECT_GT(log_us, 0);
}

TEST_F(NodeOpsTest, RedoRebuildsPartition) {
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  for (Key k = 1; k <= 20; ++k) {
    ASSERT_TRUE(n->Insert(w, part_, k, Payload(static_cast<uint8_t>(k))).ok());
  }
  ASSERT_TRUE(n->Update(w, part_, 3, Payload(33)).ok());
  ASSERT_TRUE(n->Delete(w, part_, 7).ok());
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);

  // Rebuild into a fresh partition from the log tail (§4.3: the log
  // reconstructs partitions after failures).
  catalog::Partition* rebuilt =
      cluster_.catalog().CreatePartition(table_, NodeId(1));
  // Redo must target the original partition id: retag the tail.
  auto tail = n->log().Tail(0);
  for (auto& rec : tail) {
    if (rec.partition == part_->id()) rec.partition = rebuilt->id();
  }
  ASSERT_TRUE(cluster_.node(NodeId(1))->RedoInto(rebuilt, tail).ok());

  const SegmentId sid = rebuilt->SegmentFor(3);
  ASSERT_TRUE(sid.valid());
  storage::Segment* seg = cluster_.segments().Get(sid);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->record_count(), 19u);  // 20 inserts - 1 delete.
  EXPECT_EQ(seg->Read(3).value().payload[0], 33);
  EXPECT_TRUE(seg->Read(7).status().IsNotFound());
}

TEST_F(NodeOpsTest, RedoEmptyTailIsNoOp) {
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(w, part_, 1, Payload(1)).ok());
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);

  const SegmentId sid = part_->SegmentFor(1);
  const size_t before = cluster_.segments().Get(sid)->record_count();
  ASSERT_TRUE(n->RedoInto(part_, {}).ok());
  EXPECT_EQ(cluster_.segments().Get(sid)->record_count(), before);
}

TEST_F(NodeOpsTest, RedoWithoutCoveringSegmentSkipsTheRecord) {
  // A tail can legally reference a range whose segment was deliberately
  // dropped after the record was logged (heal-time stale-copy
  // reconciliation, a mid-move detach): the data intentionally left this
  // partition. Updates and deletes must skip such records — replaying them
  // would resurrect the dropped range as unrouted garbage, and failing
  // would abort an otherwise healthy recovery.
  catalog::Partition* empty =
      cluster_.catalog().CreatePartition(table_, NodeId(0));
  tx::LogRecord upd;
  upd.type = tx::LogRecordType::kUpdate;
  upd.partition = empty->id();
  upd.key = 5;
  upd.after_image = Payload(9);
  ASSERT_TRUE(cluster_.master()->RedoInto(empty, {upd}).ok());
  EXPECT_EQ(empty->segment_count(), 0u)
      << "a skipped update must not materialize a segment";

  tx::LogRecord del = upd;
  del.type = tx::LogRecordType::kDelete;
  ASSERT_TRUE(cluster_.master()->RedoInto(empty, {del}).ok());
  EXPECT_EQ(empty->segment_count(), 0u);
}

TEST_F(NodeOpsTest, RedoIsIdempotentOverSurvivingState) {
  // Crash-recovery replays tails into partitions whose pages largely
  // survived: re-applying inserts (AlreadyExists), updates (same
  // after-image), and deletes (already gone) must all be no-ops.
  Node* n = cluster_.master();
  tx::Txn* w = cluster_.BeginTxn();
  for (Key k = 1; k <= 8; ++k) {
    ASSERT_TRUE(n->Insert(w, part_, k, Payload(static_cast<uint8_t>(k))).ok());
  }
  ASSERT_TRUE(n->Update(w, part_, 2, Payload(22)).ok());
  ASSERT_TRUE(n->Delete(w, part_, 5).ok());
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);

  const auto tail = n->log().Tail(0);
  ASSERT_TRUE(n->RedoInto(part_, tail).ok());

  const SegmentId sid = part_->SegmentFor(1);
  storage::Segment* seg = cluster_.segments().Get(sid);
  EXPECT_EQ(seg->record_count(), 7u);  // 8 inserts - 1 delete, no dupes.
  EXPECT_EQ(seg->Read(2).value().payload[0], 22);
  EXPECT_TRUE(seg->Read(5).status().IsNotFound());
}

TEST_F(NodeOpsTest, RedoUpdateUpsertsMissingRecord) {
  // A tail may update a key a preceding record deleted (an abort's
  // compensation record restoring a deleted row's pre-image): the
  // after-image fully determines the record, so redo re-materializes it.
  tx::LogRecord upd;
  upd.type = tx::LogRecordType::kUpdate;
  upd.partition = part_->id();
  upd.table = table_;
  upd.key = 77;
  upd.after_image = Payload(42);
  ASSERT_TRUE(cluster_.master()->RedoInto(part_, {upd}).ok());

  storage::Segment* seg = cluster_.segments().Get(part_->SegmentFor(77));
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->Read(77).value().payload[0], 42);
}

TEST_F(NodeOpsTest, AbortWritesCompensationRecords) {
  // Rolling back appends CLRs so that a later full-tail redo reproduces
  // the abort instead of resurrecting the aborted write.
  Node* n = cluster_.master();
  tx::Txn* setup = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(setup, part_, 1, Payload(1)).ok());
  cluster_.CommitTxn(n, setup);
  cluster_.tm().Release(setup->id);

  tx::Txn* doomed = cluster_.BeginTxn();
  ASSERT_TRUE(n->Insert(doomed, part_, 2, Payload(2)).ok());
  ASSERT_TRUE(n->Update(doomed, part_, 1, Payload(11)).ok());
  cluster_.AbortTxn(doomed);
  cluster_.tm().Release(doomed->id);

  // Replay everything into the same partition: the aborted insert must not
  // come back, the aborted update must not stick.
  ASSERT_TRUE(n->RedoInto(part_, n->log().Tail(0)).ok());
  storage::Segment* seg = cluster_.segments().Get(part_->SegmentFor(1));
  EXPECT_EQ(seg->Read(1).value().payload[0], 1);
  EXPECT_TRUE(seg->Read(2).status().IsNotFound());
}

TEST_F(NodeOpsTest, StandbyNodeRefusesWork) {
  cluster_.node(NodeId(1))->hardware().set_power_state(hw::PowerState::kStandby);
  catalog::Partition* p2 = cluster_.catalog().CreatePartition(table_, NodeId(1));
  tx::Txn* t = cluster_.BeginTxn();
  storage::Record rec;
  EXPECT_TRUE(cluster_.node(NodeId(1))->Read(t, p2, 1, &rec).IsUnavailable());
  EXPECT_TRUE(
      cluster_.node(NodeId(1))->Insert(t, p2, 1, Payload(1)).IsUnavailable());
  cluster_.AbortTxn(t);
  cluster_.tm().Release(t->id);
}

TEST_F(NodeOpsTest, SegmentTailSplitOnOverflow) {
  Node* n = cluster_.master();
  // Insert until the first segment fills and splits (big payloads).
  tx::Txn* w = cluster_.BeginTxn();
  const std::vector<uint8_t> big(4000, 1);
  Key k = 1;
  while (part_->segment_count() < 2 && k < 20000) {
    ASSERT_TRUE(n->Insert(w, part_, k++, big).ok());
  }
  EXPECT_GE(part_->segment_count(), 2u);
  EXPECT_TRUE(part_->top_index().CheckInvariants());
  // Every inserted key still reachable.
  storage::Record rec;
  for (Key probe : {Key(1), k / 2, k - 1}) {
    EXPECT_TRUE(n->Read(w, part_, probe, &rec).ok()) << probe;
  }
  cluster_.CommitTxn(n, w);
  cluster_.tm().Release(w->id);
}

}  // namespace
}  // namespace wattdb::cluster
