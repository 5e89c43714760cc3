// Batched vs per-op data plane (no paper figure — the async/batch pipeline
// added on top of the reproduction). The same closed-loop YCSB-style KV
// clients submit `batch_size` keys per transaction, once as per-key
// Get/Put round trips (the pre-batching data plane) and once as
// owner-grouped MultiGet/MultiPut batches charging one master<->owner
// round trip per owner node per batch. Reports committed key-ops/s, txn
// latency, and the network messages behind each run.

#include <cstdio>

#include "api/db.h"
#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

struct ModeResult {
  KvWindow w;
  int64_t messages = 0;
  int64_t round_trips = 0;
};

constexpr SimTime kWarmup = 5 * kUsPerSec;
inline SimTime Measure() { return (SmokeMode() ? 10 : 30) * kUsPerSec; }

ModeResult RunMode(bool batched) {
  workload::KvConfig cfg;
  cfg.num_clients = 32;
  cfg.think_time = 5 * kUsPerMs;
  cfg.read_ratio = 0.95;
  cfg.batch_size = 8;
  cfg.batched = batched;
  cfg.num_keys = 8192;
  cfg.value_bytes = 100;
  cfg.seed = 7;
  // 4 nodes, master + one data-owning peer active: half of the key space is
  // owner-local to the master, the other half pays the interconnect.
  KvArm arm(DbOptions()
                .WithNodes(4)
                .WithActiveNodes(2)
                .WithBufferPages(4000)
                .WithSeed(7)
                .WithoutTpccLoad(),
            {cfg});
  Db& db = arm.db();

  arm.Start(kWarmup);
  const int64_t msgs0 = db.cluster().network().messages_sent();
  ModeResult r;
  r.w = arm.Measure(Measure());
  r.messages = db.cluster().network().messages_sent() - msgs0;
  r.round_trips = arm.driver().owner_round_trips();
  return r;
}

void Run() {
  PrintHeader("Batch pipeline",
              "owner-grouped MultiGet/MultiPut vs per-op Get/Put");
  JsonReporter json("batch_pipeline");
  json.Config("clients", 32);
  json.Config("batch_size", 8);
  json.Config("measure_s", ToSeconds(Measure()));
  std::printf(
      "32 closed-loop KV clients, 8 keys/txn, 95%% reads, 5 ms think time,\n"
      "8192 keys on 2 active nodes of 4. %.0f s measured after 5 s warmup.\n\n",
      ToSeconds(Measure()));
  std::printf("%-10s %14s %10s %14s %12s\n", "mode", "key-ops/s", "txn/s",
              "mean lat ms", "net msgs");

  const ModeResult per_op = RunMode(/*batched=*/false);
  std::printf("%-10s %14.0f %10.0f %14.3f %12lld\n", "per-op",
              per_op.w.key_ops_per_s, per_op.w.committed_per_s,
              per_op.w.mean_ms, static_cast<long long>(per_op.messages));

  const ModeResult batch = RunMode(/*batched=*/true);
  std::printf("%-10s %14.0f %10.0f %14.3f %12lld\n", "batched",
              batch.w.key_ops_per_s, batch.w.committed_per_s, batch.w.mean_ms,
              static_cast<long long>(batch.messages));

  const double speedup = per_op.w.key_ops_per_s > 0
                             ? batch.w.key_ops_per_s / per_op.w.key_ops_per_s
                             : 0;
  std::printf(
      "\nbatched/per-op committed throughput: %.2fx (%lld owner round trips "
      "for the batched run)\n",
      speedup, static_cast<long long>(batch.round_trips));
  if (batch.w.key_ops_per_s <= per_op.w.key_ops_per_s) {
    std::printf("REGRESSION: batching did not beat the per-op loop\n");
  }

  json.Metric("perop_keyops_per_s", per_op.w.key_ops_per_s, "keyops/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("batched_keyops_per_s", batch.w.key_ops_per_s, "keyops/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("batch_speedup", speedup, "x", JsonReporter::kHigherIsBetter);
  json.Metric("batched_mean_latency_ms", batch.w.mean_ms, "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("batched_net_msgs", static_cast<double>(batch.messages), "msgs",
              JsonReporter::kLowerIsBetter);
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  wattdb::bench::Run();
  return 0;
}
