// Reproduces Fig. 7 of the paper (§5.2): per-query time spent in DBMS
// components (logging, latching, locking, network I/O, disk I/O, other)
// in three situations on a physiologically partitioned cluster:
//   1. normal operation,
//   2. while rebalancing,
//   3. while rebalancing with helper nodes (log shipping + rDMA buffer).
//
// Expected shape: rebalancing inflates disk I/O, locking, and logging (the
// storage subsystem is the bottleneck); the helper configuration pulls
// logging and disk time back down.

#include <cstdio>

#include "bench/bench_util.h"
#include "metrics/breakdown.h"

namespace wattdb::bench {
namespace {

metrics::TimeBreakdown Measure(bool rebalancing, bool helpers) {
  RebalanceSetup setup;
  if (SmokeMode()) {
    setup.clients = 20;
    setup.warehouses = 4;
    setup.fill = 0.3;
  }
  RebalanceRig rig = MakeRig(setup);
  Db& db = *rig.db;

  metrics::TimeBreakdown bd;
  rig.pool->Start();
  db.RunUntil((SmokeMode() ? 10 : 30) * kUsPerSec);  // Warm up.

  if (rebalancing) {
    if (helpers) {
      // Fig. 8 improvement: two helper nodes assist the four data nodes.
      Must(db.AttachHelpers({NodeId(4), NodeId(5)},
                            {NodeId(0), NodeId(1), NodeId(2), NodeId(3)},
                            /*remote_buffer_pages=*/1500),
           "AttachHelpers");
    }
    Must(db.TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, nullptr),
         "TriggerRebalance");
    // Boot + first copy streams under way.
    db.RunUntil((SmokeMode() ? 18 : 40) * kUsPerSec);
  }

  rig.pool->set_breakdown(&bd);
  db.RunFor((SmokeMode() ? 20 : 60) * kUsPerSec);
  rig.pool->Stop();
  return bd;
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  using namespace wattdb;
  using namespace wattdb::bench;
  PrintHeader("Figure 7", "impact factors on query runtime when rebalancing");
  JsonReporter json("fig7_breakdown");

  const metrics::TimeBreakdown normal = Measure(false, false);
  const metrics::TimeBreakdown rebal = Measure(true, false);
  const metrics::TimeBreakdown improved = Measure(true, true);

  json.Metric("normal_total_ms", normal.TotalMs(), "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("rebalancing_total_ms", rebal.TotalMs(), "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("improved_total_ms", improved.TotalMs(), "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("rebalancing_disk_ms", rebal.DiskMs(), "ms",
              JsonReporter::kInfo);
  json.Metric("improved_logging_ms", improved.LoggingMs(), "ms",
              JsonReporter::kInfo);

  std::printf("%s\n", metrics::TimeBreakdown::Header().c_str());
  std::printf("%s\n", normal.ToRow("normal operation").c_str());
  std::printf("%s\n", rebal.ToRow("while rebalancing").c_str());
  std::printf("%s\n", improved.ToRow("rebalancing improved").c_str());
  std::printf(
      "\nPaper (Fig. 7): rebalancing raises disk I/O, locking, and logging;\n"
      "helper nodes (log shipping + remote buffer) pull logging/disk back "
      "down.\n");
  return 0;
}
