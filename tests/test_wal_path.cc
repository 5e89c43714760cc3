// Exact-value pins for the WAL's life after commit: log shipping to helper
// nodes with a helper failover under load (Fig. 8 wiring), and the redo
// replay of a crash restart under load (§4.3 Logging). No bench and no chaos
// seed runs a helper failover, so these are the zero-drift check for any
// refactor of the helper wiring, the log manager's shipping path or the
// tail replay: each asserts the exact simulated outcome of one scenario.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "api/db.h"
#include "workload/kv.h"

namespace wattdb {
namespace {

using cluster::ControlEventType;

cluster::MasterPolicy HealingPolicy() {
  cluster::MasterPolicy policy;
  policy.check_period = kUsPerSec / 5;
  policy.stats_window = kUsPerSec / 2;
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  return policy;
}

workload::KvConfig WriteHeavyKv(uint64_t seed) {
  workload::KvConfig cfg;
  cfg.num_clients = 6;
  cfg.think_time = 10 * kUsPerMs;
  cfg.read_ratio = 0.5;
  cfg.batch_size = 4;
  cfg.num_keys = 1024;
  cfg.value_bytes = 64;
  cfg.seed = seed;
  return cfg;
}

/// Sum of the recorded latencies (us). Latencies are whole microseconds, so
/// the sum is an exact integer well below 2^53 and mean * count recovers it.
int64_t LatencySum(const Histogram& h) {
  return std::llround(h.mean() * static_cast<double>(h.count()));
}

/// One control event as (type, node, at, detail).
using Event = std::tuple<ControlEventType, uint32_t, SimTime, std::string>;

std::vector<Event> Timeline(const Db& db) {
  std::vector<Event> out;
  for (const auto& e : db.control_events()) {
    out.emplace_back(e.type, e.node.value(), e.at, e.detail);
  }
  return out;
}

constexpr const char* kFellBack =
    "fell back to local logging (shipped tail re-forced locally; nothing "
    "committed is lost)";

TEST(WalPath, HelperFailoverUnderLoadIsPinned) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(7)
                             .WithActiveNodes(3)
                             .WithSeed(3)
                             .WithoutTpccLoad()
                             .WithMasterLoop(HealingPolicy()));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  auto kv = db.AddKvWorkload(WriteHeavyKv(3));
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  (*kv)->Start();
  db.RunFor(kUsPerSec);

  // Round robin: helper 3 takes the log of nodes 0 and 2, helper 4 of node 1.
  const std::vector<NodeId> assisted = {NodeId(0), NodeId(1), NodeId(2)};
  ASSERT_TRUE(db.AttachHelpers({NodeId(3), NodeId(4)}, assisted,
                               /*remote_buffer_pages=*/128)
                  .ok());
  db.RunFor(7 * kUsPerSec);  // Helpers boot (5 s), wire and ship.
  for (NodeId a : assisted) {
    ASSERT_TRUE(db.cluster().node(a)->log().HasHelper()) << a.value();
  }

  // Helper 3 dies mid-shipping: nodes 0 and 2 fall back to local logging
  // and standby 5 is recruited and wired in its place.
  ASSERT_TRUE(db.CrashNode(NodeId(3)).ok());
  const SimTime crashed_at = db.Now();
  auto rewired = [&]() {
    for (NodeId a : assisted) {
      if (!db.cluster().node(a)->log().HasHelper()) return false;
    }
    return db.cluster().node_state(NodeId(5)).helper;
  };
  db.RunFor(kUsPerSec / 5);
  while (!rewired() && db.Now() < crashed_at + 30 * kUsPerSec) {
    db.RunFor(kUsPerSec / 5);
  }
  ASSERT_TRUE(rewired());
  db.RunFor(2 * kUsPerSec);  // Ship some log to the replacement.

  std::vector<int64_t> held;
  for (NodeId a : assisted) {
    held.push_back(db.cluster().node(a)->log().helper_held_bytes());
  }
  ASSERT_TRUE(db.DetachHelpers().ok());
  db.RunFor(2 * kUsPerSec);
  (*kv)->Stop();

  for (NodeId a : assisted) {
    EXPECT_FALSE(db.cluster().node(a)->log().HasHelper()) << a.value();
    EXPECT_EQ(db.cluster().node(a)->log().helper_held_bytes(), 0);
  }
  std::vector<int64_t> written;
  for (NodeId a : assisted) {
    written.push_back(db.cluster().node(a)->log().bytes_written());
  }
  // Disk traffic of the assisted nodes and of helpers 3, 4 and 5: the
  // graceful detach reads each held tail back off its helper's disk and
  // ships it home.
  std::vector<int64_t> disk_bytes;
  for (uint32_t id = 0; id <= 5; ++id) {
    hw::NodeHardware& hw = db.cluster().node(NodeId(id))->hardware();
    int64_t bytes = 0;
    for (size_t d = 0; d < hw.num_disks(); ++d) {
      bytes += hw.disk(d)->bytes_transferred();
    }
    disk_bytes.push_back(bytes);
  }

  // Detection takes two 200 ms windows; the lost helper's assisted nodes
  // fall back and the replacement is recruited on the same tick.
  const std::vector<Event> expected = {
      {ControlEventType::kNodeSuspected, 3, 8200000,
       "missed 1 of 2 heartbeat windows"},
      {ControlEventType::kNodeDeclaredDead, 3, 8400000,
       "missed 2 consecutive windows; crash #1"},
      {ControlEventType::kHelperLost, 3, 8400000,
       "helper died mid-log-shipping; 2 assisted node(s) orphaned"},
      {ControlEventType::kHelperFallback, 0, 8400000, kFellBack},
      {ControlEventType::kHelperFallback, 2, 8400000, kFellBack},
      {ControlEventType::kHelperRecruited, 5, 8400000,
       "standby booting as replacement helper for 2 node(s)"},
  };
  EXPECT_EQ(Timeline(db), expected);
  // Node 1 kept helper 4 throughout; nodes 0 and 2 shipped to node 5 only
  // since it was wired.
  EXPECT_EQ(held, (std::vector<int64_t>{94880, 330960, 70784}));
  EXPECT_EQ(written, (std::vector<int64_t>{884960, 667296, 682528}));
  EXPECT_EQ(disk_bytes, (std::vector<int64_t>{917728, 700064, 715296, 195840,
                                              661920, 331328}));
  EXPECT_EQ(db.cluster().network().bytes_sent(), 5154160);
  EXPECT_EQ(db.cluster().network().messages_sent(), 34598);
  EXPECT_EQ((*kv)->committed(), 8669);
  EXPECT_EQ((*kv)->latencies().count(), 8669);
  EXPECT_EQ(LatencySum((*kv)->latencies()), 17726555);
}

TEST(WalPath, CrashRestartRedoUnderLoadIsPinned) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithSeed(9)
                             .WithoutTpccLoad());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  auto kv = db.AddKvWorkload(WriteHeavyKv(9));
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  (*kv)->Start();
  db.RunFor(3 * kUsPerSec);

  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
  db.RunFor(kUsPerSec);
  StatusOr<fault::RecoveryReport> report = db.RestartNodeAndWait(NodeId(1));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  db.RunFor(kUsPerSec);
  (*kv)->Stop();

  // One partition's tail, every record a data record; 2100 records at
  // 10 us of CPU each plus the sequential read of 235200 log bytes.
  EXPECT_EQ(report->partitions_recovered, 1);
  EXPECT_EQ(report->tail_records, 2100);
  EXPECT_EQ(report->tail_bytes, 235200u);
  EXPECT_EQ(report->records_replayed, 2100);
  EXPECT_EQ(report->routes_restored, 0);
  EXPECT_EQ(report->redo_us, 22060);
  EXPECT_EQ((*kv)->committed(), 2412);
  EXPECT_EQ(LatencySum((*kv)->latencies()), 2608939);
}

}  // namespace
}  // namespace wattdb
