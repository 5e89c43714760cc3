// Ablation: remote-operator record throughput as a function of the vector
// (batch) size of the volcano operators — the knob behind the paper's
// Fig. 1 jump from <1k records/s (single-record next() calls) to
// ~24k (vectorized) and ~30k (buffered prefetch).

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "exec/operators.h"

namespace wattdb::bench {
namespace {

double Run(Db* db, catalog::Partition* part, const KeyRange& range,
           size_t vector_size, bool buffered) {
  const NodeId remote(1);
  auto scan = std::make_unique<exec::TableScanOp>(part, range, vector_size);
  std::unique_ptr<exec::Operator> shipped;
  if (buffered) {
    shipped = std::make_unique<exec::BufferOp>(std::move(scan), remote, 3);
  } else {
    shipped = std::make_unique<exec::ExchangeOp>(std::move(scan), remote);
  }
  exec::ProjectOp root(std::move(shipped), remote);
  const PlanRunResult r = DrainPlanInTxn(db, &root);
  db->RunUntil(r.done_at + kUsPerSec);
  return r.elapsed_us > 0 ? r.records / ToSeconds(r.elapsed_us) : 0;
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  using namespace wattdb;
  using namespace wattdb::bench;
  PrintHeader("Ablation E9", "vector size sweep for remote operators");
  JsonReporter json("ablation_vector_size");

  RebalanceSetup setup;
  setup.warehouses = 2;
  setup.fill = 0.3;
  setup.clients = 0;
  setup.buffer_pages = 8000;  // Operator figure: isolate CPU/network costs.
  RebalanceRig rig = MakeRig(setup);
  Db& db = *rig.db;
  cluster::Cluster& c = db.cluster();

  const TableId customer = db.table(workload::TpccTable::kCustomer);
  const Key lo = workload::TpccKeys::Customer(1, 0, 0);
  const Key hi = workload::TpccKeys::Customer(2, 0, 0);
  catalog::Partition* part =
      c.catalog().GetPartition(c.catalog().Route(customer, lo + 1)->primary);
  const KeyRange range{lo, hi};
  Run(&db, part, range, 64, false);  // Warm the buffer pool.

  std::printf("%12s %22s %22s\n", "vector_size", "exchange [rec/s]",
              "buffered [rec/s]");
  const std::vector<size_t> vectors =
      SmokeMode() ? std::vector<size_t>{1, 64, 1024}
                  : std::vector<size_t>{1, 4, 16, 64, 256, 1024};
  for (size_t vec : vectors) {
    const double ex = Run(&db, part, range, vec, false);
    const double buf = Run(&db, part, range, vec, true);
    std::printf("%12zu %22.0f %22.0f\n", vec, ex, buf);
    if (vec == 64) {
      json.Metric("exchange_rps_vec64", ex, "records/s",
                  JsonReporter::kHigherIsBetter);
      json.Metric("buffered_rps_vec64", buf, "records/s",
                  JsonReporter::kHigherIsBetter);
    }
  }
  std::printf(
      "\nVectorization amortizes the per-next() round trip; prefetch hides\n"
      "the producer latency behind consumer processing (paper §3.3).\n");
  return 0;
}
