// Batched reads/upserts spanning an in-flight migration (no paper figure —
// a ROADMAP candidate layered on the §4.3 two-pointer protocol). While a
// logical rebalance drains the CUSTOMER table record by record, owner-
// grouped MultiGet/MultiPut batches of growing size sweep the moving key
// range. Each key that misses its primary location mid-move pays an
// individual straggler retry at the secondary — this bench reports that
// straggler-retry cost curve vs. batch size.

#include <cstdio>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"
#include "workload/tpcc_schema.h"

namespace wattdb::bench {
namespace {

struct BatchResult {
  int64_t batches = 0;
  int64_t key_ops = 0;
  int64_t owner_round_trips = 0;
  int64_t straggler_retries = 0;
  double mean_latency_ms = 0;
  SimTime migration_us = 0;
};

BatchResult RunBatchSize(int batch_size) {
  const std::unique_ptr<Db> opened = Must(
      Db::Open(DbOptions()
                   .WithNodes(4)
                   .WithActiveNodes(2)
                   .WithBufferPages(2000)
                   .WithWarehouses(2)
                   .WithFill(0.05)
                   .WithHomeNodes({NodeId(0), NodeId(1)})
                   .WithScheme("logical")  // Record-wise: widest §4.3 window.
                   .WithLogicalBatchRecords(32)
                   .WithCostScale(8.0)  // Stretch the move; wider window.
                   .WithMigrateOnly(workload::TpccTable::kCustomer)
                   .WithSeed(3)),
      "Db::Open");
  Db& db = *opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  const int64_t per_district = db.tpcc()->customers_per_district();

  // Both warehouses' customers: the rebalance planner interleaves which
  // segments leave, so the sweep must cover the whole table to keep
  // landing on moving ranges.
  std::vector<Key> keys;
  for (int64_t w = 1; w <= 2; ++w) {
    for (int64_t c = 1; c <= per_district; ++c) {
      keys.push_back(workload::TpccKeys::Customer(w, 1, c));
    }
  }

  bool done = false;
  Must(db.TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, [&]() { done = true; }),
       "TriggerRebalance");

  BatchResult r;
  double latency_sum_ms = 0;
  Rng rng(7);  // Same sampling distribution for every batch size.
  const SimTime t0 = db.Now();
  while (!done && db.Now() < t0 + 600 * kUsPerSec) {
    db.RunFor(kUsPerSec / 10);
    // One read batch and (every fourth round) one upsert batch, sampling
    // uniformly so batches keep landing on moving ranges.
    std::vector<Key> batch;
    batch.reserve(static_cast<size_t>(batch_size));
    for (int i = 0; i < batch_size; ++i) {
      batch.push_back(
          keys[rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1)]);
    }
    const MultiGetResult got =
        Must(session.MultiGet(customer, batch), "MultiGet");
    r.key_ops += static_cast<int64_t>(batch.size());
    r.owner_round_trips += got.stats.owner_round_trips;
    r.straggler_retries += got.stats.straggler_retries;
    latency_sum_ms += static_cast<double>(got.latency_us) / kUsPerMs;
    ++r.batches;
    if (r.batches % 4 == 0) {
      std::vector<KeyValue> kvs;
      for (Key k : batch) {
        kvs.push_back(KeyValue{k, std::vector<uint8_t>(64, 0x42)});
      }
      const MultiPutResult put =
          Must(session.MultiPut(customer, kvs), "MultiPut");
      r.key_ops += static_cast<int64_t>(kvs.size());
      r.owner_round_trips += put.stats.owner_round_trips;
      r.straggler_retries += put.stats.straggler_retries;
      latency_sum_ms += static_cast<double>(put.latency_us) / kUsPerMs;
      ++r.batches;
    }
  }
  r.migration_us = db.Now() - t0;
  r.mean_latency_ms =
      r.batches > 0 ? latency_sum_ms / static_cast<double>(r.batches) : 0;
  return r;
}

void Run() {
  PrintHeader("Migration stragglers",
              "MultiGet/MultiPut straggler retries vs. batch size");
  std::printf(
      "Logical rebalance of CUSTOMER (64-record batches) from 2 onto 2 more\n"
      "nodes; owner-grouped batches sweep the moving district mid-flight.\n"
      "Stragglers are §4.3 second-location retries, each paying its own\n"
      "round trip on top of the batch's per-owner hop.\n\n");
  JsonReporter json("migration_stragglers");
  std::printf("%-8s %10s %10s %10s %14s %14s %12s\n", "batch", "batches",
              "key-ops", "rt/batch", "stragglers", "strag/1k ops",
              "mean lat ms");

  const std::vector<int> batch_sizes =
      SmokeMode() ? std::vector<int>{1, 8, 32}
                  : std::vector<int>{1, 2, 4, 8, 16, 32};
  for (const int batch_size : batch_sizes) {
    const BatchResult r = RunBatchSize(batch_size);
    const double per_batch =
        r.batches > 0 ? static_cast<double>(r.owner_round_trips) /
                            static_cast<double>(r.batches)
                      : 0;
    const double per_1k =
        r.key_ops > 0 ? 1000.0 * static_cast<double>(r.straggler_retries) /
                            static_cast<double>(r.key_ops)
                      : 0;
    std::printf("%-8d %10lld %10lld %10.2f %14lld %14.2f %12.3f\n", batch_size,
                static_cast<long long>(r.batches),
                static_cast<long long>(r.key_ops), per_batch,
                static_cast<long long>(r.straggler_retries), per_1k,
                r.mean_latency_ms);
    if (batch_size == 8) {
      json.Metric("rt_per_batch_8", per_batch, "round-trips",
                  JsonReporter::kLowerIsBetter);
      json.Metric("stragglers_per_1k_ops_8", per_1k, "retries",
                  JsonReporter::kLowerIsBetter);
      json.Metric("mean_latency_ms_8", r.mean_latency_ms, "ms",
                  JsonReporter::kLowerIsBetter);
    }
  }
  std::printf(
      "\nLarger batches amortize owner round trips but expose more keys per\n"
      "transaction to the moving range — the straggler count per 1k key-ops\n"
      "is the §4.3 retry tax the batch pipeline pays mid-rebalance.\n");
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  wattdb::bench::Run();
  return 0;
}
