// Crash/recovery bench (no paper figure — the src/fault subsystem layered
// on the reproduction). An open-loop KV workload offers a fixed arrival
// rate while node 1 is crashed and restarted through the wattdb::Db facade;
// the run is repeated with progressively longer pre-crash write windows so
// the victim's WAL tail grows. Reports redo/recovery time vs. log-tail
// length and the committed-ops dip at fixed offered load.

#include <cstdio>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

constexpr SimTime kCooldown = 5 * kUsPerSec;
constexpr double kOfferedQps = 400.0;

struct RunResult {
  fault::RecoveryReport report;
  double before_rate = 0;  ///< Committed txn/s before the crash.
  double outage_rate = 0;  ///< Committed txn/s from crash to recovery.
  double after_rate = 0;   ///< Committed txn/s once recovered.
};

RunResult RunOnce(SimTime pre_crash_window, JsonReporter* json) {
  workload::KvConfig cfg;
  cfg.arrival_qps = kOfferedQps;  // Open loop: offered load is constant.
  cfg.read_ratio = 0.5;           // Writes grow the victim's WAL tail.
  cfg.batch_size = 8;
  cfg.num_keys = 8192;
  cfg.value_bytes = 100;
  cfg.seed = 13;
  KvArm arm(DbOptions()
                .WithNodes(4)
                .WithActiveNodes(2)
                .WithBufferPages(4000)
                .WithSeed(13)
                .WithoutTpccLoad(),
            {cfg});
  Db& db = arm.db();
  workload::KvWorkload& driver = arm.driver();

  arm.Start(kKvWarmup);
  // Pre-crash window: the WAL tail on node 1 grows with every write.
  RunResult r;
  r.before_rate = arm.Measure(pre_crash_window).committed_per_s;
  // Backlog at steady offered load, right before the crash.
  if (json != nullptr) ReportQueueDepths(json, &db, "precrash");

  const int64_t committed_at_crash = driver.committed();
  const SimTime crash_at = db.Now();
  Must(db.CrashNode(NodeId(1)), "CrashNode");
  r.report = Must(db.RestartNodeAndWait(NodeId(1), 120 * kUsPerSec),
                  "RestartNodeAndWait");
  const double outage_secs = ToSeconds(db.Now() - crash_at);
  r.outage_rate =
      static_cast<double>(driver.committed() - committed_at_crash) /
      outage_secs;

  const int64_t committed_at_recovery = driver.committed();
  db.RunFor(kCooldown);
  r.after_rate =
      static_cast<double>(driver.committed() - committed_at_recovery) /
      ToSeconds(kCooldown);
  return r;
}

void Run() {
  PrintHeader("Crash recovery",
              "node-local redo (LogManager::TailAfter + Node::RedoInto)");
  JsonReporter json("crash_recovery");
  json.Config("offered_qps", kOfferedQps);
  json.Config("read_ratio", 0.5);
  std::printf(
      "Open-loop KV at %.0f offered txn/s (50%% writes, 8 keys/txn, 8192\n"
      "keys on 2 of 4 nodes). Node 1 crashes after a growing write window\n"
      "and restarts immediately: boot (5 s) + log-tail redo.\n\n",
      kOfferedQps);
  std::printf("%-10s %12s %10s %10s %12s %22s\n", "window s", "tail recs",
              "tail KB", "redo ms", "outage ms", "txn/s pre/out/post");

  const std::vector<SimTime> windows =
      SmokeMode()
          ? std::vector<SimTime>{2 * kUsPerSec, 5 * kUsPerSec}
          : std::vector<SimTime>{2 * kUsPerSec, 5 * kUsPerSec, 10 * kUsPerSec,
                                 20 * kUsPerSec};
  for (const SimTime window : windows) {
    const RunResult r =
        RunOnce(window, window == windows.back() ? &json : nullptr);
    std::printf("%-10.0f %12lld %10.1f %10.2f %12.1f %8.0f /%5.0f /%5.0f\n",
                ToSeconds(window),
                static_cast<long long>(r.report.tail_records),
                static_cast<double>(r.report.tail_bytes) / 1024.0,
                static_cast<double>(r.report.redo_us) / kUsPerMs,
                static_cast<double>(r.report.outage_us) / kUsPerMs,
                r.before_rate, r.outage_rate, r.after_rate);
    if (window == windows.back()) {
      json.Config("largest_window_s", ToSeconds(window));
      json.Metric("redo_ms", static_cast<double>(r.report.redo_us) / kUsPerMs,
                  "ms", JsonReporter::kLowerIsBetter);
      json.Metric("outage_ms",
                  static_cast<double>(r.report.outage_us) / kUsPerMs, "ms",
                  JsonReporter::kLowerIsBetter);
      json.Metric("tail_records", static_cast<double>(r.report.tail_records),
                  "records", JsonReporter::kInfo);
      json.Metric("recovered_rate", r.after_rate, "txn/s",
                  JsonReporter::kHigherIsBetter);
      json.Metric("pre_crash_rate", r.before_rate, "txn/s",
                  JsonReporter::kHigherIsBetter);
    }
  }
  std::printf(
      "\nRedo time should grow with the tail; the outage is dominated by\n"
      "the 5 s boot. Committed throughput dips while node 1 is dark (its\n"
      "half of the key space returns Unavailable) and returns to the\n"
      "offered rate after recovery.\n");
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  wattdb::bench::Run();
  return 0;
}
