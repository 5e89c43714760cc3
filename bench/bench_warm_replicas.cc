// Warm-replica bench (no paper figure — the read scale-out / fast-failover
// subsystem layered on the reproduction). Phase 1 runs an open-loop
// read-heavy Zipf KV workload twice — replicas off vs. on — with CPU costs
// scaled so the hot-range owner saturates: the replicated arm should commit
// measurably more key-ops/s because eligible reads of the hot segments fan
// out to warm standbys, and the bench also reports what that costs on the
// wire (bootstrap + log-shipping bytes, the replication tax). Phase 2
// crashes the hot-range owner in both arms and measures the serving gap:
// crash -> first replica promotion (catch-up-and-flip) vs. crash -> full
// WAL-redo recovery of the owner (the self-healing baseline, several
// seconds).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

struct Setup {
  double offered_qps = 1400;
  SimTime converge_window = 30 * kUsPerSec;  ///< Replica bootstrap+catch-up.
  SimTime measure_window = 20 * kUsPerSec;
  SimTime failover_wait = 60 * kUsPerSec;  ///< Crash -> serving, max.
};

// YCSB-B, the regime replicas can help in. The hot head is rotated into
// the second partition: the saturated owner is then a plain worker the
// failover phase is allowed to crash (the master, owner of
// [0, num_keys/4), can't die in the single-master design).
workload::KvConfig KvCfg(const Setup& s) {
  workload::KvConfig cfg = SkewedKvConfig(s.offered_qps);
  cfg.zipf_offset = cfg.num_keys / 4;
  return cfg;
}

cluster::MasterPolicy Policy(bool replicated) {
  cluster::MasterPolicy policy;
  policy.check_period = kUsPerSec;
  policy.stats_window = kUsPerSec;
  // Isolate the replica subsystem: no elasticity, no heat moves — the only
  // thing the master may do about skew in this bench is replicate.
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  policy.balance.enabled = false;
  policy.recovery.auto_heal = true;  // The unreplicated arm's failover path.
  policy.replica.enabled = replicated;
  policy.replica.replicas_per_segment = 1;
  policy.replica.heat_threshold = 40.0;
  policy.replica.max_replicated_segments = 4;
  policy.replica.max_lag_records = 256;
  // Heat decays to ~0 while the failover phase has the workload stopped;
  // keep standbys alive long enough to be promoted, not cold-dropped.
  policy.replica.drop_cold_after = 120 * kUsPerSec;
  return policy;
}

struct ArmResult {
  KvWindow w;
  int replicas_caught_up = 0;
  double replication_mb = 0;        ///< Tax during the measure window.
  double failover_gap_ms = 0;       ///< Crash -> serving again.
  bool failover_observed = false;
};

/// One full arm: converge, measure throughput, then crash the hot-range
/// owner and time how long its data is unservable.
ArmResult RunArm(const Setup& s, bool replicated, JsonReporter* json,
                 const std::string& prefix) {
  // CPU-bound: the Zipf head's owner runs out of CPU long before the
  // cluster does, so offloading its reads is visible in committed
  // throughput, not just queueing delay.
  KvArm arm(CpuBoundKvOptions(5, 4, 4000, 23)
                .WithMasterLoop(Policy(replicated)),
            {KvCfg(s)});
  Db& db = arm.db();
  workload::KvWorkload& driver = arm.driver();

  arm.Start(kKvWarmup);
  // Give the control loop time to spot the hot segments and bring standbys
  // to caught-up before scoring anything (no-op in the unreplicated arm).
  db.RunFor(s.converge_window);

  const int64_t tax_before = db.replicas().replication_bytes();
  ArmResult r;
  r.w = arm.Measure(s.measure_window);
  // End-of-measurement backlog: read fan-out should show as a flatter
  // depth profile across owner + replica hosts.
  if (json != nullptr) ReportQueueDepths(json, &db, prefix);

  r.replicas_caught_up =
      db.master().event_count(cluster::ControlEventType::kReplicaCaughtUp);
  r.replication_mb =
      static_cast<double>(db.replicas().replication_bytes() - tax_before) /
      (1024.0 * 1024.0);

  // Phase 2: kill the owner of the Zipf head (rank 0 maps to key
  // zipf_offset) and time crash -> serving again. In the replicated arm
  // that is the first kReplicaPromoted after the crash; in the baseline it
  // is the master's full-redo kNodeRecovered. The gap is a control-plane
  // number (detection + flip, or detection + restart + WAL redo), so the
  // offered load is stopped first — it only slows the simulation down.
  driver.Stop();
  const Key hot_key = static_cast<Key>(driver.config().zipf_offset);
  NodeId hot_owner;
  for (const TableRoute& route : db.Routes(driver.table())) {
    if (route.range.Contains(hot_key)) hot_owner = route.owner;
  }
  const SimTime crash_at = db.Now();
  Must(db.CrashNode(hot_owner), "CrashNode");
  const auto serving_mark = replicated
                                ? cluster::ControlEventType::kReplicaPromoted
                                : cluster::ControlEventType::kNodeRecovered;
  while (db.Now() - crash_at < s.failover_wait && !r.failover_observed) {
    db.RunFor(kUsPerSec / 4);
    for (const auto& e : db.control_events()) {
      if (e.type == serving_mark && e.at >= crash_at) {
        r.failover_gap_ms = static_cast<double>(e.at - crash_at) / kUsPerMs;
        r.failover_observed = true;
        break;
      }
    }
  }
  if (!r.failover_observed) {
    // Still down when we stopped looking: report the window as a floor so
    // the JSON never carries a too-good 0 for a node that never came back.
    r.failover_gap_ms = ToSeconds(s.failover_wait) * 1e3;
  }
  return r;
}

void Run() {
  PrintHeader("Warm replicas",
              "read scale-out and catch-up-and-flip failover");
  JsonReporter json("warm_replicas");

  Setup s;
  const bool smoke = SmokeMode();
  if (smoke) {
    s.converge_window = 14 * kUsPerSec;
    s.measure_window = 8 * kUsPerSec;
    s.failover_wait = 45 * kUsPerSec;
  }
  const workload::KvConfig kv = KvCfg(s);
  json.Config("offered_qps", s.offered_qps);
  json.Config("read_ratio", kv.read_ratio);
  json.Config("zipf_theta", kv.zipf_theta);
  json.Config("batch_size", kv.batch_size);
  json.Config("num_keys", static_cast<double>(kv.num_keys));
  json.Config("segments_per_partition", kv.segments_per_partition);
  json.Config("converge_window_s", ToSeconds(s.converge_window));
  json.Config("measure_window_s", ToSeconds(s.measure_window));
  json.Config("smoke", smoke ? 1.0 : 0.0);

  std::printf(
      "Open-loop Zipf(0.99) KV, 95%% reads, %.0f txn/s offered onto 4 of 5\n"
      "nodes; record CPU costs scaled so the hot-range owner saturates.\n"
      "Each arm then loses that owner and we time crash -> serving.\n\n",
      s.offered_qps);

  const ArmResult plain = RunArm(s, /*replicated=*/false, &json, "plain");
  const ArmResult repl = RunArm(s, /*replicated=*/true, &json, "replicated");

  std::printf("%-12s | %12s %12s %9s | %12s %9s\n", "arm", "key-ops/s",
              "txn/s", "p99 ms", "failover ms", "caught-up");
  std::printf("%-12s | %12.0f %12.0f %9.1f | %12.1f %9d\n", "unreplicated",
              plain.w.key_ops_per_s, plain.w.committed_per_s, plain.w.p99_ms,
              plain.failover_gap_ms, plain.replicas_caught_up);
  std::printf("%-12s | %12.0f %12.0f %9.1f | %12.1f %9d\n", "replicated",
              repl.w.key_ops_per_s, repl.w.committed_per_s, repl.w.p99_ms,
              repl.failover_gap_ms, repl.replicas_caught_up);

  const double ratio = plain.w.key_ops_per_s > 0
                           ? repl.w.key_ops_per_s / plain.w.key_ops_per_s
                           : 0;
  std::printf(
      "\nread scale-out: %.2fx key-ops/s for %.2f MB of replication traffic\n"
      "in the measure window; failover gap %.0f ms replicated vs %.0f ms\n"
      "full-redo (%s/%s observed).\n",
      ratio, repl.replication_mb, repl.failover_gap_ms, plain.failover_gap_ms,
      repl.failover_observed ? "promotion" : "NO promotion",
      plain.failover_observed ? "recovery" : "NO recovery");

  json.Metric("unreplicated_key_ops_per_s", plain.w.key_ops_per_s, "ops/s",
              JsonReporter::kInfo);
  json.Metric("replicated_key_ops_per_s", repl.w.key_ops_per_s, "ops/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("throughput_ratio", ratio, "ratio",
              JsonReporter::kHigherIsBetter);
  json.Metric("replicated_p99_ms", repl.w.p99_ms, "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("replication_tax_mb", repl.replication_mb, "MB",
              JsonReporter::kInfo);
  json.Metric("replicas_caught_up", repl.replicas_caught_up, "replicas",
              JsonReporter::kInfo);
  json.Metric("failover_gap_replicated_ms", repl.failover_gap_ms, "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("failover_gap_full_redo_ms", plain.failover_gap_ms, "ms",
              JsonReporter::kInfo);
}

}  // namespace
}  // namespace wattdb::bench

int main() { wattdb::bench::Run(); }
