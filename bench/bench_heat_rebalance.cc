// Heat-driven rebalancing bench (no paper figure — the skew-reaction
// subsystem layered on §3.4's monitoring). A Zipfian (theta ~ 0.99) YCSB
// workload hammers a range-partitioned KV table at a fixed offered load:
// the hot head of the key space is contiguous, so one node soaks up most
// of the traffic and caps cluster throughput. Two arms at identical load:
//
//   static — placement never changes; the hot node saturates.
//   heat   — the master's BalancePolicy watches per-segment EWMA heat and
//            moves the hottest segments onto the coldest nodes through the
//            physiological scheme (§4.3 machinery, online).
//
// Reported: committed key-ops/s after convergence, p99 latency, and the
// time from the first imbalance trigger to the last completed rebalance
// round. Committed stats are booked at transaction *completion* time
// (KvConfig::count_at_completion), so saturation shows up as throughput
// loss, not just latency.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

struct HeatSetup {
  double offered_qps = 1400;  ///< Fixed offered load (txn/s), both arms.
  SimTime converge_window = 30 * kUsPerSec;  ///< Balancer reacts in here.
  SimTime measure_window = 15 * kUsPerSec;   ///< Scored after convergence.
};

struct ArmResult {
  KvWindow w;
  int heat_rebalances = 0;
  int moves_completed = 0;
  double time_to_rebalance_ms = 0;  ///< First trigger -> last round done.
};

ArmResult RunArm(const HeatSetup& s, bool balance, JsonReporter* json,
                 const std::string& prefix) {
  KvArm arm(CpuBoundKvOptions(4, 4, 8000, 23)
                .WithMasterLoop(HeatBalancePolicy(balance)),
            {SkewedKvConfig(s.offered_qps)});
  Db& db = arm.db();

  arm.Start(kKvWarmup);
  // Convergence phase: the heat arm detects the imbalance and moves the
  // hot segments; the static arm just builds queue at the hot node.
  db.RunFor(s.converge_window);

  ArmResult r;
  r.w = arm.Measure(s.measure_window);
  // End-of-measurement backlog: the static arm's hot node shows the queue
  // the balancer exists to dissolve.
  if (json != nullptr) ReportQueueDepths(json, &db, prefix);

  r.heat_rebalances = db.master().heat_rebalances();
  r.moves_completed = db.master().heat_moves_completed();
  SimTime first_trigger = -1;
  SimTime last_done = -1;
  for (const auto& e : db.control_events()) {
    if (e.type == cluster::ControlEventType::kHeatImbalance &&
        first_trigger < 0) {
      first_trigger = e.at;
    }
    if (e.type == cluster::ControlEventType::kHeatRebalanced) {
      last_done = e.at;
    }
  }
  if (first_trigger >= 0 && last_done >= first_trigger) {
    r.time_to_rebalance_ms =
        static_cast<double>(last_done - first_trigger) / kUsPerMs;
  }
  return r;
}

void Run() {
  PrintHeader("Heat rebalance",
              "skew reaction: per-segment heat -> targeted segment moves");
  JsonReporter json("heat_rebalance");

  HeatSetup s;
  if (SmokeMode()) {
    s.converge_window = 14 * kUsPerSec;
    s.measure_window = 8 * kUsPerSec;
  }

  const workload::KvConfig kv = SkewedKvConfig(s.offered_qps);
  json.Config("offered_qps", s.offered_qps);
  json.Config("zipf_theta", kv.zipf_theta);
  json.Config("batch_size", kv.batch_size);
  json.Config("num_keys", static_cast<double>(kv.num_keys));
  json.Config("segments_per_partition",
              static_cast<double>(kv.segments_per_partition));
  json.Config("converge_window_s", ToSeconds(s.converge_window));
  json.Config("measure_window_s", ToSeconds(s.measure_window));
  json.Config("smoke", SmokeMode() ? 1.0 : 0.0);

  std::printf(
      "Zipf(theta=%.2f) over %lld keys on 4 nodes, %g txn/s offered\n"
      "(batch %d, 95%% reads). Measuring the %0.f s after a %0.f s\n"
      "convergence window; committed booked at completion time.\n\n",
      kv.zipf_theta, static_cast<long long>(kv.num_keys), s.offered_qps,
      kv.batch_size, ToSeconds(s.measure_window), ToSeconds(s.converge_window));

  const ArmResult stat = RunArm(s, /*balance=*/false, &json, "static");
  const ArmResult heat = RunArm(s, /*balance=*/true, &json, "heat");

  std::printf("%-8s | %12s %12s %9s %9s | %7s %6s %12s\n", "arm", "key-ops/s",
              "txn/s", "mean ms", "p99 ms", "rounds", "moves", "t-rebal ms");
  std::printf("%-8s | %12.0f %12.0f %9.2f %9.2f | %7d %6d %12s\n", "static",
              stat.w.key_ops_per_s, stat.w.committed_per_s, stat.w.mean_ms,
              stat.w.p99_ms, stat.heat_rebalances, stat.moves_completed, "-");
  std::printf("%-8s | %12.0f %12.0f %9.2f %9.2f | %7d %6d %12.0f\n", "heat",
              heat.w.key_ops_per_s, heat.w.committed_per_s, heat.w.mean_ms,
              heat.w.p99_ms, heat.heat_rebalances, heat.moves_completed,
              heat.time_to_rebalance_ms);

  const double ratio = stat.w.key_ops_per_s > 0
                           ? heat.w.key_ops_per_s / stat.w.key_ops_per_s
                           : 0;
  std::printf(
      "\nHeat balancing commits %.2fx the static arm's key-ops/s (p99 "
      "%.1f -> %.1f ms);\n%d segment move(s) across %d round(s), last round "
      "done %.0f ms after the first trigger.\n",
      ratio, stat.w.p99_ms, heat.w.p99_ms, heat.moves_completed,
      heat.heat_rebalances, heat.time_to_rebalance_ms);

  json.Metric("static_committed_ops_per_s", stat.w.key_ops_per_s, "ops/s",
              JsonReporter::kInfo);
  json.Metric("heat_committed_ops_per_s", heat.w.key_ops_per_s, "ops/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("throughput_ratio", ratio, "ratio",
              JsonReporter::kHigherIsBetter);
  json.Metric("static_p99_ms", stat.w.p99_ms, "ms", JsonReporter::kInfo);
  json.Metric("heat_p99_ms", heat.w.p99_ms, "ms", JsonReporter::kLowerIsBetter);
  json.Metric("time_to_rebalance_ms", heat.time_to_rebalance_ms, "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("segments_moved", heat.moves_completed, "segments",
              JsonReporter::kInfo);
  json.Metric("rebalance_rounds", heat.heat_rebalances, "rounds",
              JsonReporter::kInfo);
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  wattdb::bench::Run();
  return 0;
}
