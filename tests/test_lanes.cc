// Tests for the intra-node parallel data plane (src/lanes): Open-time
// validation of LanePolicy and the pluggable index kind, behavioral
// parity of the two RecordIndex implementations, lane-map invariants
// (round-robin spread, exactly-once visibility across an intra-node
// re-lane and across a cross-node move, survival across crash/redo),
// and the master's intra-node balancing tier firing before any
// cross-node heat move.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "api/db.h"
#include "index/record_index.h"
#include "lanes/lane_manager.h"
#include "storage/segment.h"

namespace wattdb {
namespace {

// ------------------------------------------------------------- Db fixtures

/// Lanes on, master loop off: routing/charging behavior only.
DbOptions LaneOptions(int lanes_per_node = 4) {
  lanes::LanePolicy lp;
  lp.enabled = true;
  lp.lanes_per_node = lanes_per_node;
  return DbOptions()
      .WithNodes(4)
      .WithActiveNodes(3)
      .WithoutTpccLoad()
      .WithLanePolicy(lp);
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

/// Distinct payload per key so a read that lands on the wrong record (or
/// a duplicate surviving a move) is visible as a value mismatch, not just
/// a miss.
std::vector<uint8_t> ValueFor(Key k) {
  return std::vector<uint8_t>(64, static_cast<uint8_t>(0x10 + (k % 200)));
}

/// Every written key in [lo, hi) readable exactly once with its own payload.
void ExpectAllReadable(Session& session, TableId table, Key lo, Key hi,
                       Key stride = 1) {
  for (Key k = lo; k < hi; k += stride) {
    StatusOr<storage::Record> rec = session.Get(table, k);
    ASSERT_TRUE(rec.ok()) << "key " << k << ": " << rec.status().ToString();
    EXPECT_EQ(rec->payload, ValueFor(k)) << "key " << k;
  }
}

// ------------------------------------------------------- Open validation

TEST(Lanes, OpenValidatesLanePolicy) {
  {
    DbOptions o = LaneOptions();
    o.cluster.lanes.lanes_per_node = 0;
    auto db = Db::Open(o);
    ASSERT_TRUE(db.status().IsInvalidArgument()) << db.status().ToString();
    EXPECT_NE(db.status().ToString().find("lanes_per_node"), std::string::npos);
  }
  {
    DbOptions o = LaneOptions();
    o.cluster.lanes.lane_trigger_ratio = 1.0;
    auto db = Db::Open(o);
    ASSERT_TRUE(db.status().IsInvalidArgument());
    EXPECT_NE(db.status().ToString().find("lane_trigger_ratio"),
              std::string::npos);
  }
  {
    DbOptions o = LaneOptions();
    o.cluster.lanes.relane_cooldown = -1;
    auto db = Db::Open(o);
    ASSERT_TRUE(db.status().IsInvalidArgument());
    EXPECT_NE(db.status().ToString().find("relane_cooldown"),
              std::string::npos);
  }
  {
    // Misconfiguration is rejected even while the subsystem is off, per
    // the repo-wide policy convention.
    DbOptions o = LaneOptions();
    o.cluster.lanes.enabled = false;
    o.cluster.lanes.lanes_per_node = -3;
    EXPECT_TRUE(Db::Open(o).status().IsInvalidArgument());
  }
  {
    DbOptions o = LaneOptions().WithIndexKind(static_cast<index::IndexKind>(99));
    auto db = Db::Open(o);
    ASSERT_TRUE(db.status().IsInvalidArgument());
    EXPECT_NE(db.status().ToString().find("index_kind"), std::string::npos);
  }
  // A well-formed policy opens, with or without lanes.
  EXPECT_TRUE(Db::Open(LaneOptions()).ok());
  EXPECT_TRUE(
      Db::Open(LaneOptions().WithIndexKind(index::IndexKind::kHash)).ok());
}

// ------------------------------------------------------ RecordIndex parity

TEST(Lanes, RecordIndexImplementationsAgree) {
  for (index::IndexKind kind :
       {index::IndexKind::kBTree, index::IndexKind::kHash}) {
    SCOPED_TRACE(index::ToString(kind));
    std::unique_ptr<index::RecordIndex> idx = index::MakeRecordIndex(kind);
    ASSERT_NE(idx, nullptr);
    EXPECT_EQ(idx->kind(), kind);
    EXPECT_TRUE(idx->empty());

    // Insert out of order; duplicates overwrite and report "not new".
    const std::vector<Key> keys = {50, 10, 90, 30, 70, 20, 80};
    for (Key k : keys) {
      EXPECT_TRUE(
          idx->Insert(k, storage::RecordPos{static_cast<uint16_t>(k), 0}));
    }
    EXPECT_FALSE(idx->Insert(30, storage::RecordPos{300, 7}));
    EXPECT_EQ(idx->size(), keys.size());

    ASSERT_NE(idx->Find(30), nullptr);
    EXPECT_EQ(idx->Find(30)->page, 300) << "duplicate must overwrite";
    EXPECT_EQ(idx->Find(31), nullptr);
    EXPECT_TRUE(idx->Contains(90));

    // Scans visit [lo, hi) in ascending key order whatever the backing
    // structure — the hash index must sort.
    std::vector<Key> seen;
    const size_t visited =
        idx->Scan(20, 80, [&](Key k, const storage::RecordPos&) {
          seen.push_back(k);
          return true;
        });
    EXPECT_EQ(seen, (std::vector<Key>{20, 30, 50, 70}));
    EXPECT_EQ(visited, seen.size());
    // Early stop counts the entry that said stop.
    size_t stopped = idx->Scan(0, 1000, [&](Key, const storage::RecordPos&) {
      return false;
    });
    EXPECT_EQ(stopped, 1u);

    Key lb = 0;
    ASSERT_TRUE(idx->LowerBound(31, &lb));
    EXPECT_EQ(lb, 50);
    EXPECT_FALSE(idx->LowerBound(91, &lb));

    EXPECT_TRUE(idx->Erase(50));
    EXPECT_FALSE(idx->Erase(50));
    EXPECT_EQ(idx->Find(50), nullptr);
    EXPECT_EQ(idx->size(), keys.size() - 1);
    EXPECT_GT(idx->MemoryBytes(), 0u);
    EXPECT_TRUE(idx->CheckInvariants());
  }
  // Point probes are what the hash structure buys.
  EXPECT_LT(index::HashRecordIndex().probe_cost_factor(),
            index::BTreeRecordIndex().probe_cost_factor());
  EXPECT_EQ(index::MakeRecordIndex(static_cast<index::IndexKind>(99)), nullptr);
}

// ---------------------------------------------------- lane-map invariants

TEST(Lanes, SegmentsSpreadAcrossLanesAndRelaneKeepsDataExactlyOnce) {
  auto opened = Db::Open(LaneOptions(/*lanes_per_node=*/4));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 4);
  ASSERT_TRUE(table.ok());
  for (Key k = 512; k < 1024; k += 8) {
    ASSERT_TRUE(session.Put(*table, k, ValueFor(k)).ok());
  }
  ExpectAllReadable(session, *table, 512, 1024, 8);

  // Lazy round-robin assignment: every touched segment on node 1 sits in
  // a valid lane, and with 4 segments they spread over more than one.
  std::set<int> lanes_used;
  std::vector<storage::Segment*> node1_segs;
  for (storage::Segment* seg : db.cluster().segments().SegmentsOn(NodeId(1))) {
    if (seg->lane() == storage::Segment::kLaneUnassigned) continue;
    ASSERT_GE(seg->lane(), 0);
    ASSERT_LT(seg->lane(), 4);
    lanes_used.insert(seg->lane());
    node1_segs.push_back(seg);
  }
  ASSERT_GE(node1_segs.size(), 2u);
  EXPECT_GE(lanes_used.size(), 2u) << "round-robin should spread segments";

  // Intra-node re-lane is an in-memory remap: after stacking everything
  // onto lane 0, every key is still readable exactly once with its own
  // payload, and new writes land normally.
  const int64_t relanes_before = db.cluster().lanes().relanes();
  int64_t actually_moved = 0;
  for (storage::Segment* seg : node1_segs) {
    if (seg->lane() != 0) ++actually_moved;
    db.cluster().lanes().Relane(seg, 0);
    EXPECT_EQ(seg->lane(), 0);
  }
  EXPECT_GE(actually_moved, 1);
  EXPECT_EQ(db.cluster().lanes().relanes(), relanes_before + actually_moved);
  ExpectAllReadable(session, *table, 512, 1024, 8);
  ASSERT_TRUE(session.Put(*table, 513, ValueFor(513)).ok());
  EXPECT_TRUE(session.Get(*table, 513).ok());
}

TEST(Lanes, CrossNodeMoveResetsLaneAndKeepsDataExactlyOnce) {
  auto opened = Db::Open(LaneOptions(/*lanes_per_node=*/4));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());
  for (Key k = 512; k < 1024; k += 8) {
    ASSERT_TRUE(session.Put(*table, k, ValueFor(k)).ok());
  }
  ExpectAllReadable(session, *table, 512, 1024, 8);  // Assigns lanes.

  std::set<SegmentId> was_on_node1;
  for (storage::Segment* seg : db.cluster().segments().SegmentsOn(NodeId(1))) {
    was_on_node1.insert(seg->id());
  }
  ASSERT_FALSE(was_on_node1.empty());

  // Scale out onto node 3: some of node 1's laned segments move.
  ASSERT_TRUE(db.RebalanceAndWait({NodeId(3)}, 0.5, 600 * kUsPerSec).ok());
  std::vector<storage::Segment*> moved;
  for (storage::Segment* seg : db.cluster().segments().SegmentsOn(NodeId(3))) {
    if (was_on_node1.count(seg->id()) > 0) moved.push_back(seg);
  }

  // The lane shard is a per-node notion: Relocate drops the source node's
  // assignment, and the destination re-lanes on first access.
  for (storage::Segment* seg : moved) {
    EXPECT_EQ(seg->lane(), storage::Segment::kLaneUnassigned)
        << "segment " << seg->id().value() << " kept its source lane";
  }
  ExpectAllReadable(session, *table, 512, 1024, 8);
  for (storage::Segment* seg : moved) {
    EXPECT_GE(seg->lane(), 0) << "destination should assign on first access";
    EXPECT_LT(seg->lane(), 4);
  }
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());
}

TEST(Lanes, LaneMapSurvivesCrashAndRedo) {
  auto opened = Db::Open(LaneOptions(/*lanes_per_node=*/4));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 2);
  ASSERT_TRUE(table.ok());
  for (Key k = 512; k < 576; ++k) {
    ASSERT_TRUE(session.Put(*table, k, ValueFor(k)).ok());
  }
  ExpectAllReadable(session, *table, 512, 576);  // Assigns lanes.

  std::map<SegmentId, int> lane_before;
  for (storage::Segment* seg : db.cluster().segments().SegmentsOn(NodeId(1))) {
    if (seg->lane() != storage::Segment::kLaneUnassigned) {
      lane_before[seg->id()] = seg->lane();
    }
  }
  ASSERT_FALSE(lane_before.empty());

  // Crash/redo keeps the lane map: unlike a cross-node move, the segment
  // stays on its node, so its lane assignment is still meaningful.
  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
  ASSERT_TRUE(db.RestartNodeAndWait(NodeId(1)).ok());
  for (const auto& [sid, lane] : lane_before) {
    storage::Segment* seg = db.cluster().segments().Get(sid);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->lane(), lane) << "segment " << sid.value();
  }
  ExpectAllReadable(session, *table, 512, 576);
}

// ------------------------------------------------- intra-node balance tier

TEST(Lanes, HotLaneIsRelanedBeforeAnyCrossNodeMove) {
  cluster::MasterPolicy mp;
  mp.check_period = kUsPerSec / 2;
  mp.stats_window = kUsPerSec / 2;
  mp.enable_scale_out = false;
  mp.enable_scale_in = false;
  mp.balance.enabled = true;
  mp.balance.trigger_ratio = 1.3;
  mp.balance.trigger_after = 2;
  mp.balance.cooldown = 4 * kUsPerSec;
  mp.balance.max_moves_per_round = 6;
  mp.balance.min_total_heat = 10.0;
  lanes::LanePolicy lp;
  lp.enabled = true;
  lp.lanes_per_node = 4;
  lp.balance_lanes = true;
  lp.lane_trigger_ratio = 1.3;
  lp.relane_cooldown = 2 * kUsPerSec;
  DbOptions options = DbOptions()
                          .WithNodes(4)
                          .WithActiveNodes(3)
                          .WithoutTpccLoad()
                          .WithLanePolicy(lp)
                          .WithMasterLoop(mp);
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1536, 4);
  ASSERT_TRUE(table.ok());
  for (Key k = 512; k < 1024; k += 4) {
    ASSERT_TRUE(session.Put(*table, k, ValueFor(k)).ok());
  }

  // Simulate drift: every segment of node 1 stacked onto lane 0, then all
  // traffic on that node — the classic hot-lane picture.
  for (storage::Segment* seg : db.cluster().segments().SegmentsOn(NodeId(1))) {
    db.cluster().lanes().Relane(seg, 0);
  }
  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kLaneRebalanced) == 0 &&
         db.Now() < t0 + 30 * kUsPerSec) {
    for (Key k = 512; k < 1024; k += 8) {
      ASSERT_TRUE(session.Get(*table, k).ok());
    }
    db.RunFor(kUsPerSec / 2);
  }

  // The cheap tier fired: imbalance -> per-segment re-lane -> round done.
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kLaneImbalance), 1);
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kSegmentRelaned), 1);
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kLaneRebalanced), 1);
  const SimTime first_imbalance =
      FirstEventAt(db, cluster::ControlEventType::kLaneImbalance);
  const SimTime first_relane =
      FirstEventAt(db, cluster::ControlEventType::kSegmentRelaned);
  const SimTime first_round =
      FirstEventAt(db, cluster::ControlEventType::kLaneRebalanced);
  EXPECT_LE(first_imbalance, first_relane);
  EXPECT_LE(first_relane, first_round);

  // Re-laning preempted migration: no cross-node heat move was planned
  // before the first intra-node round completed.
  const SimTime first_move =
      FirstEventAt(db, cluster::ControlEventType::kHeatMovePlanned);
  EXPECT_TRUE(first_move == -1 || first_move > first_round)
      << "cross-node move planned at " << first_move
      << " before intra-node round at " << first_round;

  // The hot node's segments are spread over several lanes again, and the
  // data plane never hiccuped.
  std::set<int> lanes_used;
  for (storage::Segment* seg : db.cluster().segments().SegmentsOn(NodeId(1))) {
    if (seg->lane() != storage::Segment::kLaneUnassigned) {
      lanes_used.insert(seg->lane());
    }
  }
  EXPECT_GE(lanes_used.size(), 2u);
  for (Key k = 512; k < 1024; k += 4) {
    StatusOr<storage::Record> rec = session.Get(*table, k);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->payload, ValueFor(k));
  }
}

}  // namespace
}  // namespace wattdb
