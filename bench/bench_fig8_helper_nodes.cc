// Reproduces Fig. 8 (a-d) of the paper (§5.2): physiological rebalancing
// with and without two helper nodes that take over log shipping and provide
// remote (rDMA) buffer space while the move is running. Helpers power up at
// t=0 and power down when rebalancing completes (paper: around t+370).
//
// Expected shape: with helpers, response times during the move improve and
// throughput holds up better, at the price of higher power draw — energy
// per query gets worse while they run ("trading energy efficiency for
// query performance").

#include <cstdio>

#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

inline SimTime Warmup() { return (SmokeMode() ? 30 : 180) * kUsPerSec; }
inline SimTime RunAfter() { return (SmokeMode() ? 130 : 570) * kUsPerSec; }
constexpr SimTime kBucket = 10 * kUsPerSec;

struct HelperOutcome {
  metrics::TimeSeries series{kBucket};
  int64_t completed = 0;
  double migration_secs = 0;
};

HelperOutcome RunOne(bool helpers) {
  RebalanceSetup setup;
  if (SmokeMode()) {
    setup.cost_scale = 4.0;
    setup.clients = 20;
    setup.warehouses = 4;
    setup.fill = 0.3;
  }
  RebalanceRig rig = MakeRig(setup);
  Db& db = *rig.db;

  HelperOutcome out;
  metrics::TimeSeries& series = out.series;
  series.SetOrigin(Warmup());
  db.cluster().StartSampling(&series);
  rig.pool->set_series(&series);
  rig.pool->Start();

  db.events().ScheduleAt(Warmup(), [&]() {
    if (helpers) {
      (void)db.AttachHelpers({NodeId(4), NodeId(5)},
                             {NodeId(0), NodeId(1), NodeId(2), NodeId(3)},
                             /*remote_buffer_pages=*/1500);
    }
    (void)db.TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, [&]() {
      // Helpers are brought down again once rebalancing finished.
      if (helpers) (void)db.DetachHelpers();
    });
  });
  db.RunUntil(Warmup() + RunAfter());
  rig.pool->Stop();
  out.completed = rig.pool->committed();
  out.migration_secs =
      db.scheme().stats().finished_at > db.scheme().stats().started_at
          ? ToSeconds(db.scheme().stats().finished_at -
                      db.scheme().stats().started_at)
          : -1.0;
  std::fprintf(stderr, "[%s] completed=%lld migration end t=%+.0fs\n",
               helpers ? "physio+helper" : "physiological",
               static_cast<long long>(out.completed),
               db.scheme().stats().finished_at == 0
                   ? -1.0
                   : ToSeconds(db.scheme().stats().finished_at - Warmup()));
  return out;
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  using namespace wattdb;
  using namespace wattdb::bench;
  PrintHeader("Figure 8", "physiological rebalancing with helper nodes");
  JsonReporter json("fig8_helper_nodes");

  const HelperOutcome plain = RunOne(false);
  const HelperOutcome helped = RunOne(true);

  json.Metric("plain_completed", static_cast<double>(plain.completed), "txn",
              JsonReporter::kHigherIsBetter);
  json.Metric("helped_completed", static_cast<double>(helped.completed), "txn",
              JsonReporter::kHigherIsBetter);
  if (plain.migration_secs >= 0) {
    json.Metric("plain_migration_s", plain.migration_secs, "s",
                JsonReporter::kLowerIsBetter);
  }
  if (helped.migration_secs >= 0) {
    json.Metric("helped_migration_s", helped.migration_secs, "s",
                JsonReporter::kLowerIsBetter);
  }

  const std::vector<std::string> labels = {"physiological", "physio+helper"};
  const std::vector<const metrics::TimeSeries*> series = {&plain.series,
                                                          &helped.series};
  const double bs = ToSeconds(kBucket);
  std::printf("\n(a) Throughput of the cluster [qps]\n%s\n",
              metrics::SideBySide(labels, series, "qps", bs).c_str());
  std::printf("\n(b) Avg. response time per query [ms]\n%s\n",
              metrics::SideBySide(labels, series, "ms", bs).c_str());
  std::printf("\n(c) Power consumption of the cluster [Watt]\n%s\n",
              metrics::SideBySide(labels, series, "watt", bs).c_str());
  std::printf("\n(d) Energy consumption per query [Joule/query]\n%s\n",
              metrics::SideBySide(labels, series, "jpq", bs).c_str());
  return 0;
}
