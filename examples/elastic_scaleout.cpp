// Elasticity demo: the master's threshold controller (§3.4) reacts to a
// load surge by booting a standby node and repartitioning onto it with the
// physiological scheme, then scales back in when the surge subsides.
//
//   $ ./examples/elastic_scaleout
//
// Prints a once-per-10s status line: active nodes, qps, avg latency, watts.

#include <cstdio>

#include "api/db.h"

using namespace wattdb;

int main() {
  // The wimpy nodes are I/O-bound long before their CPUs saturate, so the
  // demo's thresholds sit low (the paper's 80% bound assumes CPU-heavy
  // plans; §3.4's disk-utilization rules would fire here first).
  cluster::MasterPolicy policy;
  policy.cpu_upper = 0.10;
  policy.cpu_lower = 0.05;
  policy.check_period = 5 * kUsPerSec;

  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(1)  // Centralized on the master.
                             .WithBufferPages(600)
                             .WithWarehouses(4)
                             .WithFill(0.25)
                             .WithHomeNodes({NodeId(0)})
                             .WithScheme("physiological")
                             .WithMasterLoop(policy));
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  Db& db = **opened;

  // Base load, surge, and cool-down phases via two client pools.
  workload::ClientPoolConfig base_cfg;
  base_cfg.num_clients = 20;
  base_cfg.think_time = 50 * kUsPerMs;
  workload::ClientPool& base = db.AddClientPool(base_cfg);

  workload::ClientPoolConfig surge_cfg;
  surge_cfg.num_clients = 150;
  surge_cfg.think_time = 10 * kUsPerMs;
  surge_cfg.seed = 99;
  workload::ClientPool& surge = db.AddClientPool(surge_cfg);

  base.Start();
  db.events().ScheduleAt(60 * kUsPerSec, [&]() {
    std::printf("-- t=60s: load surge begins --\n");
    surge.Start();
  });
  db.events().ScheduleAt(240 * kUsPerSec, [&]() {
    std::printf("-- t=240s: surge ends --\n");
    surge.Stop();
  });

  std::printf("%8s %8s %8s %10s %10s %12s\n", "t[s]", "nodes", "qps",
              "avg_ms", "watts", "scale_events");
  int64_t last_completed = 0;
  for (int t = 10; t <= 480; t += 10) {
    db.RunUntil(static_cast<SimTime>(t) * kUsPerSec);
    const int64_t done = base.committed() + surge.committed();
    const double qps = (done - last_completed) / 10.0;
    last_completed = done;
    const SimTime now = db.Now();
    std::printf("%8d %8d %8.1f %10.2f %10.1f %6d out,%3d in\n", t,
                db.ActiveNodeCount(), qps,
                base.latencies().mean() / kUsPerMs,
                db.WattsIn(now - 10 * kUsPerSec, now),
                db.master().event_count(cluster::ControlEventType::kScaleOut),
                db.master().event_count(cluster::ControlEventType::kScaleIn));
  }
  base.Stop();

  std::printf("\nscale-out events: %d, scale-in events: %d\n",
              db.master().event_count(cluster::ControlEventType::kScaleOut),
              db.master().event_count(cluster::ControlEventType::kScaleIn));
  std::printf("total energy: %.1f kJ\n", db.energy().joules() / 1000.0);
  return 0;
}
