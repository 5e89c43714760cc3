// Reproduces Fig. 6 (a-d) of the paper: throughput, average response time,
// cluster power, and energy per query over time while the cluster
// rebalances 50% of all records from 2 nodes onto 2 additional nodes at
// t = 0, under physical, logical, and physiological partitioning.
//
// Expected shape (paper §5.2):
//  * all three dip right after t=0;
//  * physical never recovers fully (ownership pinned, remote page fetches);
//  * logical dips deepest/longest but ends strong once ranges moved;
//  * physiological moves at copy speed AND transfers ownership: it recovers
//    fastest and ends with the best response times and J/query;
//  * power steps up when the two target nodes leave standby.

#include <cstdio>

#include "bench/bench_util.h"

namespace wattdb::bench {
namespace {

// Paper axis: -180 s warmup, +570 s after the trigger. Smoke mode keeps
// the shape (dip + recovery) on a scaled-down window and data volume.
inline SimTime Warmup() { return (SmokeMode() ? 30 : 180) * kUsPerSec; }
inline SimTime RunAfter() { return (SmokeMode() ? 130 : 570) * kUsPerSec; }
constexpr SimTime kBucket = 10 * kUsPerSec;

struct SchemeOutcome {
  metrics::TimeSeries series{kBucket};
  int64_t completed = 0;
  int64_t aborted = 0;
  double migration_secs = 0;
};

SchemeOutcome RunScheme(const RebalanceSetup& setup,
                        const std::string& scheme_name) {
  RebalanceRig rig = MakeRig(setup, scheme_name);
  Db& db = *rig.db;

  SchemeOutcome out;
  metrics::TimeSeries& series = out.series;
  series.SetOrigin(Warmup());  // t=0 on the axis = rebalance start.
  db.cluster().StartSampling(&series);
  rig.pool->set_series(&series);
  rig.pool->Start();

  // Warm up, then trigger the Fig. 6 rebalance: 50% of the records to two
  // freshly booted nodes.
  db.events().ScheduleAt(Warmup(), [&]() {
    const Status s =
        db.TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, nullptr);
    if (!s.ok()) {
      std::fprintf(stderr, "trigger failed: %s\n", s.ToString().c_str());
    }
  });
  db.RunUntil(Warmup() + RunAfter());
  rig.pool->Stop();

  out.completed = rig.pool->committed();
  out.aborted = rig.pool->aborted();
  // Logical may still be mid-move when the window closes (it is the slow
  // scheme by design); a negative duration must not reach the gate.
  out.migration_secs =
      db.scheme().stats().finished_at > db.scheme().stats().started_at
          ? ToSeconds(db.scheme().stats().finished_at -
                      db.scheme().stats().started_at)
          : -1.0;
  // An unfinished move has no end time: say so instead of printing
  // finished_at = 0 as a time before the start.
  char end[32] = "unfinished";
  if (out.migration_secs >= 0) {
    std::snprintf(end, sizeof(end), "%.0fs",
                  ToSeconds(db.scheme().stats().finished_at - Warmup()));
  }
  std::fprintf(stderr,
               "[%s] completed=%lld aborted=%lld segs=%lld recs=%lld "
               "migration=[%.0fs..%s]\n",
               scheme_name.c_str(),
               static_cast<long long>(out.completed),
               static_cast<long long>(out.aborted),
               static_cast<long long>(db.scheme().stats().segments_moved),
               static_cast<long long>(db.scheme().stats().records_moved),
               ToSeconds(db.scheme().stats().started_at - Warmup()), end);
  return out;
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  using namespace wattdb;
  using namespace wattdb::bench;
  PrintHeader("Figure 6", "rebalancing under the three partitioning schemes");
  JsonReporter json("fig6_partitioning_schemes");

  RebalanceSetup setup;
  if (SmokeMode()) {
    // Shorter migration and lighter load; the ordering of the three
    // schemes (the figure's point) is preserved.
    setup.cost_scale = 4.0;
    setup.clients = 20;
    setup.warehouses = 4;
    setup.fill = 0.3;
  }
  json.Config("cost_scale", setup.cost_scale);
  json.Config("clients", setup.clients);
  const SchemeOutcome physical = RunScheme(setup, "physical");
  const SchemeOutcome logical = RunScheme(setup, "logical");
  const SchemeOutcome physio = RunScheme(setup, "physiological");

  for (const auto& [label, o] :
       {std::pair<const char*, const SchemeOutcome*>{"physical", &physical},
        {"logical", &logical},
        {"physiological", &physio}}) {
    json.Metric(std::string(label) + "_completed",
                static_cast<double>(o->completed), "txn",
                JsonReporter::kHigherIsBetter);
    if (o->migration_secs >= 0) {
      json.Metric(std::string(label) + "_migration_s", o->migration_secs,
                  "s", JsonReporter::kLowerIsBetter);
    }
  }

  const std::vector<std::string> labels = {"physical", "logical",
                                           "physiological"};
  const std::vector<const metrics::TimeSeries*> series = {
      &physical.series, &logical.series, &physio.series};
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
