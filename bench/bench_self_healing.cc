// Self-healing bench (no paper figure — the control-loop subsystem layered
// on the reproduction). Part 1 sweeps an open-loop KV workload's offered
// load to trace the latency-vs-load saturation curve, with three arms per
// point: healthy, periodic crashes with auto-healing off, and the same
// crashes with the master's self-healing loop on. Part 2 fixes the offered
// load below the knee, arms a periodic fault plan, and prints a per-second
// committed-throughput timeline annotated with the master's control events
// (suspected / declared dead / restart / recovered) — the crash-mid-
// saturation recovery story: detection without operator calls, and
// committed throughput re-converging to the pre-crash level.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/db.h"
#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

constexpr SimTime kWarmup = 2 * kUsPerSec;

workload::KvConfig KvCfg(double qps) {
  workload::KvConfig cfg;
  cfg.arrival_qps = qps;  // Open loop: offered load independent of service.
  cfg.read_ratio = 0.8;
  cfg.batch_size = 8;
  cfg.num_keys = 16384;
  cfg.value_bytes = 100;
  cfg.seed = 17;
  return cfg;
}

cluster::MasterPolicy HealingPolicy(bool auto_heal) {
  cluster::MasterPolicy policy;
  policy.check_period = kUsPerSec / 2;
  policy.stats_window = kUsPerSec;
  // Isolate healing from elasticity: no CPU-threshold scale decisions.
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  policy.recovery.auto_heal = auto_heal;
  return policy;
}

enum class Arm { kHealthy, kCrashNoHealing, kCrashHealing };

struct ArmResult {
  double committed_per_s = 0;
  double aborted_per_s = 0;
  double mean_ms = 0;
  double p99_ms = 0;
  int declared_dead = 0;
  int auto_restarts = 0;
};

ArmResult RunArm(double qps, Arm arm, SimTime window, SimTime crash_period,
                 JsonReporter* json = nullptr,
                 const std::string& prefix = "") {
  DbOptions options = DbOptions()
                          .WithNodes(4)
                          .WithActiveNodes(2)
                          .WithBufferPages(4000)
                          .WithSeed(17)
                          .WithoutTpccLoad()
                          .WithMasterLoop(HealingPolicy(
                              /*auto_heal=*/arm == Arm::kCrashHealing));
  options.cluster.costs.cpu_record_read_us = 150;
  options.cluster.costs.cpu_record_write_us = 300;
  if (arm != Arm::kHealthy) {
    // Node 1 (half the key space) dies every crash_period and is never
    // restarted by the plan — recovery is the master's job (or nobody's).
    options.WithFaultPlan(fault::FaultPlan().CrashEvery(
        NodeId(1), crash_period, /*restart_after=*/0));
  }
  auto opened = Db::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "Db::Open failed: %s\n",
                 opened.status().ToString().c_str());
    std::abort();
  }
  Db& db = **opened;
  auto kv = db.AddKvWorkload(KvCfg(qps));
  if (!kv.ok()) {
    std::fprintf(stderr, "AddKvWorkload failed: %s\n",
                 kv.status().ToString().c_str());
    std::abort();
  }
  workload::KvWorkload& driver = **kv;

  driver.Start();
  db.RunFor(kWarmup);
  driver.ResetStats();
  db.RunFor(window);
  if (json != nullptr) ReportQueueDepths(json, &db, prefix);

  ArmResult r;
  const double secs = ToSeconds(window);
  r.committed_per_s = static_cast<double>(driver.committed()) / secs;
  r.aborted_per_s = static_cast<double>(driver.aborted()) / secs;
  r.mean_ms = driver.latencies().mean() / kUsPerMs;
  r.p99_ms = driver.latencies().Percentile(99.0) / kUsPerMs;
  r.declared_dead =
      db.master().event_count(cluster::ControlEventType::kNodeDeclaredDead);
  r.auto_restarts =
      db.master().event_count(cluster::ControlEventType::kRestartIssued);
  driver.Stop();
  return r;
}

struct TimelineResult {
  std::vector<double> per_second;  ///< Committed txn/s, 1 s buckets.
  double pre_rate = 0;             ///< Before the first crash.
  double reconverged_rate = 0;     ///< Tail of a heal cycle.
  double detection_ms = 0;         ///< Crash -> declared dead (first cycle).
  double recovery_ms = 0;          ///< Crash -> node recovered (first cycle).
  int crashes = 0;
  int declared_dead = 0;
  int recovered = 0;
  std::vector<cluster::ControlEvent> events;
};

TimelineResult RunTimeline(double qps, SimTime crash_period, SimTime window) {
  DbOptions options =
      DbOptions()
          .WithNodes(4)
          .WithActiveNodes(2)
          .WithBufferPages(4000)
          .WithSeed(17)
          .WithoutTpccLoad()
          .WithMasterLoop(HealingPolicy(/*auto_heal=*/true))
          .WithFaultPlan(fault::FaultPlan().CrashEvery(NodeId(1), crash_period,
                                                       /*restart_after=*/0));
  options.cluster.costs.cpu_record_read_us = 150;
  options.cluster.costs.cpu_record_write_us = 300;
  auto opened = Db::Open(options);
  if (!opened.ok()) std::abort();
  Db& db = **opened;
  auto kv = db.AddKvWorkload(KvCfg(qps));
  if (!kv.ok()) std::abort();
  workload::KvWorkload& driver = **kv;

  driver.Start();
  db.RunFor(kWarmup);
  driver.ResetStats();

  TimelineResult r;
  const SimTime t0 = db.Now();
  int64_t last_committed = 0;
  while (db.Now() - t0 < window) {
    db.RunFor(kUsPerSec);
    const int64_t now_committed = driver.committed();
    r.per_second.push_back(static_cast<double>(now_committed - last_committed));
    last_committed = now_committed;
  }
  driver.Stop();

  r.crashes = db.fault().crashes_injected();
  r.events = db.control_events();
  const SimTime first_crash_at = t0 + crash_period - kWarmup;
  for (const auto& e : r.events) {
    if (e.type == cluster::ControlEventType::kNodeDeclaredDead) {
      ++r.declared_dead;
      if (r.detection_ms == 0 && e.at >= first_crash_at) {
        r.detection_ms =
            static_cast<double>(e.at - first_crash_at) / kUsPerMs;
      }
    }
    if (e.type == cluster::ControlEventType::kNodeRecovered) {
      ++r.recovered;
      if (r.recovery_ms == 0 && e.at >= first_crash_at) {
        r.recovery_ms =
            static_cast<double>(e.at - first_crash_at) / kUsPerMs;
      }
    }
  }
  // Pre-crash rate: the seconds before the first crash; reconverged rate:
  // the last 3 s of the first heal cycle (recovered and settled, before
  // the next crash hits).
  const size_t crash_s = static_cast<size_t>(ToSeconds(first_crash_at - t0));
  const size_t cycle_end =
      std::min(r.per_second.size(),
               crash_s + static_cast<size_t>(ToSeconds(crash_period)));
  double pre = 0;
  for (size_t i = 0; i < crash_s && i < r.per_second.size(); ++i) {
    pre += r.per_second[i];
  }
  r.pre_rate = crash_s > 0 ? pre / static_cast<double>(crash_s) : 0;
  double tail = 0;
  int tail_n = 0;
  for (size_t i = cycle_end >= 3 ? cycle_end - 3 : 0; i < cycle_end; ++i) {
    tail += r.per_second[i];
    ++tail_n;
  }
  r.reconverged_rate = tail_n > 0 ? tail / tail_n : 0;
  return r;
}

void Run() {
  PrintHeader("Self-healing",
              "failure detection, auto-restart, saturation under churn");
  JsonReporter json("self_healing");

  const bool smoke = SmokeMode();
  const std::vector<double> sweep =
      smoke ? std::vector<double>{300, 600, 900}
            : std::vector<double>{200, 400, 600, 800, 1000, 1200};
  const SimTime sweep_window = smoke ? 20 * kUsPerSec : 45 * kUsPerSec;
  const SimTime crash_period = smoke ? 8 * kUsPerSec : 15 * kUsPerSec;

  json.Config("sweep_window_s", ToSeconds(sweep_window));
  json.Config("crash_period_s", ToSeconds(crash_period));
  json.Config("read_ratio", 0.8);
  json.Config("batch_size", 8);
  json.Config("smoke", smoke ? 1.0 : 0.0);

  std::printf(
      "Part 1 — saturation curve. Open-loop KV (8 keys/txn, 80%% reads,\n"
      "8192 keys on 2 of 4 nodes); node 1 crashes every %.0f s in the two\n"
      "crash arms and only the 'heal' arm has the master restart it.\n\n",
      ToSeconds(crash_period));
  std::printf("%-10s | %10s %9s %9s | %10s | %10s %6s %6s\n", "offered",
              "healthy/s", "mean ms", "p99 ms", "no-heal/s", "heal/s", "dead",
              "restart");

  double knee_qps = sweep.front();
  double healthy_mid = 0, heal_mid = 0, noheal_mid = 0;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const double qps = sweep[i];
    const bool last = i + 1 == sweep.size();
    const ArmResult healthy =
        RunArm(qps, Arm::kHealthy, sweep_window, crash_period,
               last ? &json : nullptr, "healthy");
    const ArmResult noheal =
        RunArm(qps, Arm::kCrashNoHealing, sweep_window, crash_period,
               last ? &json : nullptr, "noheal");
    const ArmResult heal =
        RunArm(qps, Arm::kCrashHealing, sweep_window, crash_period,
               last ? &json : nullptr, "heal");
    std::printf("%-10.0f | %10.0f %9.2f %9.2f | %10.0f | %10.0f %6d %6d\n",
                qps, healthy.committed_per_s, healthy.mean_ms, healthy.p99_ms,
                noheal.committed_per_s, heal.committed_per_s,
                heal.declared_dead, heal.auto_restarts);
    // The knee: open-loop committed tracks offered right up to overload
    // (arrivals queue, they don't vanish), so saturation shows in the
    // latency blow-up — the largest load with a sane p99 is the knee.
    if (healthy.p99_ms <= 50.0) knee_qps = qps;
    if (i == sweep.size() / 2) {
      healthy_mid = healthy.committed_per_s;
      heal_mid = heal.committed_per_s;
      noheal_mid = noheal.committed_per_s;
    }
    if (i == 0) {
      json.Metric("p99_low_load_ms", healthy.p99_ms, "ms",
                  JsonReporter::kLowerIsBetter);
      json.Metric("mean_low_load_ms", healthy.mean_ms, "ms",
                  JsonReporter::kLowerIsBetter);
    }
  }
  json.Config("mid_sweep_qps", sweep[sweep.size() / 2]);
  json.Metric("saturation_qps", knee_qps, "txn/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("healthy_committed_mid", healthy_mid, "txn/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("healing_committed_mid", heal_mid, "txn/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("no_healing_committed_mid", noheal_mid, "txn/s",
              JsonReporter::kInfo);

  // Part 2 — recovery timeline at ~60% of the knee.
  const double timeline_qps = std::max(200.0, 0.6 * knee_qps);
  // One full heal cycle needs ~6 s (detection + 5 s boot + redo); keep the
  // crash period at 15 s in both modes so the timeline always re-converges.
  const SimTime timeline_period = 15 * kUsPerSec;
  const SimTime timeline_window = smoke ? 24 * kUsPerSec : 47 * kUsPerSec;
  std::printf(
      "\nPart 2 — crash-mid-saturation timeline at %.0f offered txn/s\n"
      "(crash every %.0f s, healing on). Committed txn per 1 s bucket:\n\n",
      timeline_qps, ToSeconds(timeline_period));
  const TimelineResult tl =
      RunTimeline(timeline_qps, timeline_period, timeline_window);

  // Annotate each second with the control events that fired inside it.
  std::vector<std::string> notes(tl.per_second.size());
  for (const auto& e : tl.events) {
    const double s = ToSeconds(e.at) - ToSeconds(kWarmup);
    if (s < 0 || s >= static_cast<double>(notes.size())) continue;
    std::string& n = notes[static_cast<size_t>(s)];
    if (!n.empty()) n += ", ";
    n += cluster::ToString(e.type);
  }
  for (size_t s = 0; s < tl.per_second.size(); ++s) {
    std::printf("  t=%3zus %6.0f txn/s  %s\n", s, tl.per_second[s],
                notes[s].c_str());
  }
  std::printf(
      "\n%d crash(es) injected; master declared %d dead, recovered %d —\n"
      "no operator calls. First-cycle detection %.0f ms, full recovery\n"
      "%.0f ms (5 s boot + redo). Committed rate %.0f/s pre-crash vs\n"
      "%.0f/s reconverged.\n",
      tl.crashes, tl.declared_dead, tl.recovered, tl.detection_ms,
      tl.recovery_ms, tl.pre_rate, tl.reconverged_rate);

  json.Config("timeline_qps", timeline_qps);
  json.Metric("detection_ms", tl.detection_ms, "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("recovery_ms", tl.recovery_ms, "ms",
              JsonReporter::kLowerIsBetter);
  json.Metric("pre_crash_rate", tl.pre_rate, "txn/s",
              JsonReporter::kHigherIsBetter);
  json.Metric("reconverged_rate", tl.reconverged_rate, "txn/s",
              JsonReporter::kHigherIsBetter);
  json.Metric(
      "reconvergence_ratio",
      tl.pre_rate > 0 ? tl.reconverged_rate / tl.pre_rate : 0, "ratio",
      JsonReporter::kHigherIsBetter);
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  wattdb::bench::Run();
  return 0;
}
