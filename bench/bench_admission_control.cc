// Admission-control bench (no paper figure — the src/admission subsystem
// layered on the reproduction). Two open-loop KV workloads — a
// latency-sensitive point-op stream with an SLO and a batch-priority
// stream — offer a swept load to a fixed 4-node cluster, past saturation.
// Each offered point runs twice: with shedding disabled (queues grow
// without bound, so completion latency blows through the SLO and goodput
// collapses) and with the admission policy enabled (depth-capped queues,
// ResourceExhausted refusals retried with jittered backoff, batch class
// shed first). The headline curve is SLO-goodput vs offered load: with
// shedding it plateaus at capacity instead of collapsing, and the admitted
// latency-class p99 stays bounded by the queue cap.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

constexpr SimTime kSlo = 100 * kUsPerMs;
constexpr double kBatchQps = 200.0;

struct PointResult {
  double offered = 0;
  KvWindow w;                 ///< Latency class; p99 of admitted txns.
  double goodput_per_s = 0;   ///< Committed within the SLO, per second.
  int64_t shed_latency = 0;   ///< Refusals, latency-sensitive class.
  int64_t shed_batch = 0;     ///< Refusals, batch class.
  int64_t retried = 0;
  int64_t dropped = 0;
  int overload_events = 0;
};

cluster::MasterPolicy ControlPolicy() {
  cluster::MasterPolicy policy;
  policy.check_period = kUsPerSec / 2;
  policy.stats_window = kUsPerSec;
  // Fixed capacity: this bench shows shedding, not elasticity — the
  // overload signal is still detected and logged by the control loop.
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  return policy;
}

admission::AdmissionPolicy ShedPolicy(bool enabled) {
  admission::AdmissionPolicy ap;
  ap.enabled = enabled;
  // 64 outstanding ops x ~330 us of inflated CPU per op across 2 cores is
  // ~10 ms of queueing per node — an admitted transaction stays an order
  // of magnitude inside the 100 ms SLO.
  ap.max_queue_ops = 64;
  ap.overload_ratio = 0.75;
  return ap;
}

PointResult RunPoint(double offered_qps, bool shedding, SimTime warmup,
                     SimTime window, JsonReporter* json,
                     const std::string& prefix) {
  // CPU-bound, so the 4-node cluster saturates inside the sweep.
  DbOptions options = CpuBoundKvOptions(4, 4, 8000, 29)
                          .WithMasterLoop(ControlPolicy())
                          .WithAdmissionPolicy(ShedPolicy(shedding));

  // Latency-sensitive stream: single point ops with an SLO, shed work
  // retried twice with jittered backoff before dropping. One op = one
  // admission decision, so a refusal never wastes work already admitted
  // for the same transaction (the batch stream below is where partial
  // owner-group shedding shows up).
  workload::KvConfig lat;
  lat.arrival_qps = offered_qps;
  lat.count_at_completion = true;
  lat.read_ratio = 0.9;
  lat.batch_size = 1;
  lat.num_keys = 8192;
  lat.value_bytes = 100;
  lat.slo_us = kSlo;
  lat.shed_retries = 2;
  lat.retry_backoff = 10 * kUsPerMs;
  lat.seed = 29;

  // Batch-priority stream at a fixed modest rate: the cheap class the
  // shedder sacrifices first (its cap is kBatchShare x max_queue_ops).
  workload::KvConfig batch;
  batch.arrival_qps = kBatchQps;
  batch.count_at_completion = true;
  batch.read_ratio = 0.5;
  batch.batch_size = 8;
  batch.num_keys = 8192;
  batch.value_bytes = 100;
  batch.batch_priority = true;
  batch.seed = 31;

  KvArm arm(options, {lat, batch});
  Db& db = arm.db();
  workload::KvWorkload& lat_driver = arm.driver();

  // Settle the post-load state (the loaders run in zero sim time, so the
  // disks start with a deep flush backlog) before offering load: both arms
  // must start from the same steady state or the shed arm's cap clips the
  // startup wave and the curves diverge for reasons that have nothing to
  // do with overload.
  db.RunFor(5 * kUsPerSec);
  arm.Start(warmup);

  const int64_t shed_lat_before =
      db.admission().shed(admission::OpClass::kLatencySensitive);
  const int64_t shed_batch_before =
      db.admission().shed(admission::OpClass::kBatch);
  PointResult r;
  r.offered = offered_qps;
  r.w = arm.Measure(window);
  if (json != nullptr) ReportQueueDepths(json, &db, prefix);

  r.goodput_per_s =
      static_cast<double>(lat_driver.slo_met()) / ToSeconds(window);
  r.shed_latency =
      db.admission().shed(admission::OpClass::kLatencySensitive) -
      shed_lat_before;
  r.shed_batch =
      db.admission().shed(admission::OpClass::kBatch) - shed_batch_before;
  r.retried = lat_driver.retried();
  r.dropped = lat_driver.dropped();
  r.overload_events =
      db.master().event_count(cluster::ControlEventType::kOverloadDetected);
  return r;
}

void Run() {
  PrintHeader("Admission control",
              "per-node queue caps: goodput vs offered load past saturation");
  JsonReporter json("admission_control");

  const bool smoke = SmokeMode();
  const SimTime warmup = smoke ? 3 * kUsPerSec / 2 : 2 * kUsPerSec;
  const SimTime window = smoke ? 3 * kUsPerSec : 8 * kUsPerSec;
  // The cluster serves a few thousand of these point txns per second at
  // the inflated CPU costs; the top points are well past saturation.
  const std::vector<double> sweep =
      smoke ? std::vector<double>{4000, 20000, 36000}
            : std::vector<double>{4000, 12000, 20000, 28000, 36000};

  json.Config("slo_ms", static_cast<double>(kSlo) / kUsPerMs);
  json.Config("batch_qps", kBatchQps);
  json.Config("max_queue_ops", 64.0);
  json.Config("batch_share", admission::kBatchShare);
  json.Config("window_s", ToSeconds(window));

  std::printf(
      "4 nodes, 2 cores each, inflated CPU costs. Latency stream: open-loop\n"
      "single-key txns, 90%% reads, SLO %.0f ms, 2 shed-retries with\n"
      "jittered backoff. Batch stream: %.0f txn/s of batch-priority 8-key\n"
      "txns. Shed arm: 64-op queue cap per node, batch refused past 32.\n\n",
      static_cast<double>(kSlo) / kUsPerMs, kBatchQps);
  std::printf("%-9s | %21s | %21s | %15s\n", "", "no shedding", "shedding",
              "shed arm detail");
  std::printf("%-9s | %10s %10s | %10s %10s | %7s %7s\n", "offered",
              "goodput/s", "p99 ms", "goodput/s", "p99 ms", "shed", "retry");

  std::vector<PointResult> noshed, shed;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const bool last = i + 1 == sweep.size();
    noshed.push_back(RunPoint(sweep[i], /*shedding=*/false, warmup, window,
                              last ? &json : nullptr, "noshed"));
    shed.push_back(RunPoint(sweep[i], /*shedding=*/true, warmup, window,
                            last ? &json : nullptr, "shed"));
    const PointResult& n = noshed.back();
    const PointResult& s = shed.back();
    std::printf("%-9.0f | %10.0f %10.1f | %10.0f %10.1f | %7lld %7lld\n",
                sweep[i], n.goodput_per_s, n.w.p99_ms, s.goodput_per_s,
                s.w.p99_ms, static_cast<long long>(s.shed_latency +
                                                 s.shed_batch),
                static_cast<long long>(s.retried));
    json.Metric("noshed_goodput_at_" + std::to_string((int)sweep[i]),
                n.goodput_per_s, "txn/s", JsonReporter::kInfo);
    json.Metric("shed_goodput_at_" + std::to_string((int)sweep[i]),
                s.goodput_per_s, "txn/s", JsonReporter::kInfo);
  }

  // Headline gated metrics. All from the shed arm except the ratio, which
  // captures the whole point: past saturation shedding preserves goodput
  // that unbounded queueing destroys.
  double shed_peak = 0, peak_at = sweep.front();
  for (const PointResult& p : shed) {
    if (p.goodput_per_s > shed_peak) {
      shed_peak = p.goodput_per_s;
      peak_at = p.offered;
    }
  }
  const PointResult& s_top = shed.back();
  const PointResult& n_top = noshed.back();
  const double ratio_at_top =
      s_top.goodput_per_s / std::max(1.0, n_top.goodput_per_s);
  const double plateau_ratio = s_top.goodput_per_s / std::max(1.0, shed_peak);

  json.Metric("shed_goodput_peak", shed_peak, "txn/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("shed_goodput_at_top_load", s_top.goodput_per_s, "txn/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("shed_plateau_ratio", plateau_ratio, "ratio",
              JsonReporter::kHigherIsBetter);
  // Info only: the denominator is the collapsed no-shed goodput, which sits
  // near zero — a gated ratio against it would swing wildly on tiny shifts.
  json.Metric("goodput_ratio_shed_vs_noshed_at_top", ratio_at_top, "ratio",
              JsonReporter::kInfo);
  json.Metric("shed_admitted_p99_ms", s_top.w.p99_ms, "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("noshed_p99_ms_at_top", n_top.w.p99_ms, "ms",
              JsonReporter::kInfo);
  json.Metric("shed_latency_class", static_cast<double>(s_top.shed_latency),
              "txns", JsonReporter::kInfo);
  json.Metric("shed_batch_class", static_cast<double>(s_top.shed_batch),
              "txns", JsonReporter::kInfo);
  json.Metric("shed_retried", static_cast<double>(s_top.retried), "txns",
              JsonReporter::kInfo);
  json.Metric("shed_dropped", static_cast<double>(s_top.dropped), "txns",
              JsonReporter::kInfo);
  json.Metric("overload_events_at_top",
              static_cast<double>(s_top.overload_events), "events",
              JsonReporter::kInfo);

  std::printf(
      "\nGoodput peaked at %.0f txn/s (offered %.0f). Past saturation the\n"
      "no-shedding arm queues without bound — completion latency blows\n"
      "through the SLO and goodput collapses — while the shedding arm\n"
      "plateaus (ratio %.2f of its peak at top load) with admitted p99\n"
      "%.1f ms. Batch class shed %lld vs %lld latency-class refusals at\n"
      "top load; the master logged %d overload event(s).\n",
      shed_peak, peak_at, plateau_ratio, s_top.w.p99_ms,
      static_cast<long long>(s_top.shed_batch),
      static_cast<long long>(s_top.shed_latency), s_top.overload_events);
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  wattdb::bench::Run();
  return 0;
}
