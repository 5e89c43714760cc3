// Reproduces Fig. 3 of the paper (§3.5): transaction throughput and storage
// overhead of MVCC vs. classical multi-granularity locking (MGL-RX) while
// 50% of a partition's records are being moved to another partition,
// across update-transaction ratios from 0% to 100%.
//
// Expected shape: MVCC sustains higher throughput at every mix — ~15% ahead
// for read-only workloads and up to ~90% for pure writers (readers never
// block behind the mover, writers only briefly) — while holding more
// storage (version chains). Locking needs less extra storage (pending
// change lists) but blocks readers on moving records.

#include <cstdio>

#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

struct MixResult {
  double ta_per_min = 0;
  double storage_pct = 100.0;  ///< Peak storage relative to the data pages.
};

MixResult RunOne(double update_ratio, tx::CcScheme cc) {
  // MVCC keeps versions for concurrent snapshots; the paper's workload
  // always has readers in flight, so the reclamation horizon trails the
  // move (manual lagged GC below). MGL-RX blocks readers instead and
  // reclaims immediately (auto-vacuum on).
  DbOptions options = DbOptions()
                          .WithNodes(2)
                          .WithActiveNodes(2)
                          .WithBufferPages(2000)
                          .WithCc(cc)
                          .WithWarehouses(2)
                          .WithFill(SmokeMode() ? 0.08 : 0.15)
                          .WithHomeNodes({NodeId(0)})
                          .WithScheme("logical")
                          .WithLogicalBatchRecords(128)
                          .WithMigrateOnly(workload::TpccTable::kCustomer)
                          .WithAutoVacuum(cc == tx::CcScheme::kMglRx);
  const std::unique_ptr<Db> opened = Must(Db::Open(options), "Db::Open");
  Db& db = *opened;
  cluster::Cluster& c = db.cluster();

  // Storage baseline: the affected table's bytes (the paper plots the
  // space consumption of the workload's data while it moves).
  size_t base_bytes = 0;
  for (catalog::Partition* p :
       c.catalog().PartitionsOf(db.table(workload::TpccTable::kCustomer))) {
    for (const auto& e : p->top_index().All()) {
      base_bytes += c.segments().Get(e.segment)->DiskBytes();
    }
  }

  workload::MicroConfig mc;
  mc.num_clients = SmokeMode() ? 12 : 24;
  mc.update_ratio = update_ratio;
  mc.think_time = 2 * kUsPerMs;
  workload::MicroWorkload& micro = db.AddMicroWorkload(mc);
  micro.Start();
  db.RunUntil(5 * kUsPerSec);
  micro.ResetStats();

  // Move 50% of the records (logical record movement between partitions,
  // as in the paper's micro-benchmark — only the CUSTOMER table, see
  // WithMigrateOnly above) while the workload runs.
  bool done = false;
  Must(db.TriggerRebalance({NodeId(1)}, 0.5, [&]() { done = true; }),
       "TriggerRebalance");

  size_t peak_overhead = 0;
  const SimTime t0 = db.Now();
  // MVCC version retention: snapshots up to ~1 s old stay readable (the
  // paper's workload always has readers in flight); GC trails by one tick.
  tx::Timestamp lagged_horizon = c.tm().MinActiveTs();
  while (!done && db.Now() < t0 + 600 * kUsPerSec) {
    db.RunFor(kUsPerSec / 4);
    if (cc == tx::CcScheme::kMvcc) {
      c.tm().versions().Gc(lagged_horizon);
      lagged_horizon = c.tm().MinActiveTs();
    }
    // Retained version storage after reclamation: what the snapshots that
    // are still permitted to read actually pin.
    peak_overhead =
        std::max(peak_overhead, c.tm().versions().OverheadBytes());
  }
  const SimTime move_window = db.Now() - t0;
  micro.Stop();

  MixResult out;
  out.ta_per_min = micro.committed() / ToSeconds(move_window) * 60.0;
  // MVCC: retained version chains (old copies of moved/updated records).
  // MGL-RX: only in-flight pending changes survive (§3.5), reclaimed as
  // soon as each mover batch commits.
  out.storage_pct =
      100.0 * (base_bytes + static_cast<double>(peak_overhead)) / base_bytes;
  return out;
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  using namespace wattdb;
  using namespace wattdb::bench;
  PrintHeader("Figure 3",
              "MVCC vs MGL-RX while moving 50% of records to another partition");

  JsonReporter json("fig3_mvcc_vs_locking");
  std::printf("%10s %16s %16s %18s %18s\n", "update_%", "MVCC TA/min",
              "MGL-RX TA/min", "MVCC storage_%", "MGL storage_%");
  const int step = SmokeMode() ? 50 : 10;
  json.Config("update_pct_step", step);
  for (int pct = 0; pct <= 100; pct += step) {
    const double ratio = pct / 100.0;
    const MixResult mvcc = RunOne(ratio, tx::CcScheme::kMvcc);
    const MixResult mgl = RunOne(ratio, tx::CcScheme::kMglRx);
    std::printf("%10d %16.0f %16.0f %18.1f %18.1f\n", pct, mvcc.ta_per_min,
                mgl.ta_per_min, mvcc.storage_pct, mgl.storage_pct);
    if (pct == 50) {
      json.Metric("mvcc_ta_per_min_50pct", mvcc.ta_per_min, "txn/min",
                  JsonReporter::kHigherIsBetter);
      json.Metric("mgl_ta_per_min_50pct", mgl.ta_per_min, "txn/min",
                  JsonReporter::kHigherIsBetter);
      json.Metric("mvcc_storage_pct_50pct", mvcc.storage_pct, "%",
                  JsonReporter::kInfo);
    }
  }
  std::printf(
      "\nPaper (Fig. 3): MVCC +15%% (read-only) to +90%% (write-heavy)\n"
      "throughput during the move; MVCC needs more storage for versions.\n");
  return 0;
}
