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

// The Fig. 6 move: 50% of the records onto two freshly booted nodes.
MoveRun RunScheme(const RebalanceSetup& setup, const std::string& scheme_name) {
  MoveRun out = RunMove(setup, scheme_name, [](Db* db) {
    Must(db->TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, nullptr),
         "TriggerRebalance");
  });
  // An unfinished move has no end time: say so instead of printing
  // finished_at = 0 as a time before the start.
  char end[32] = "unfinished";
  if (out.migration_secs >= 0) {
    std::snprintf(end, sizeof(end), "%.0fs",
                  ToSeconds(out.move.finished_at - MoveWarmup()));
  }
  std::fprintf(stderr,
               "[%s] completed=%lld aborted=%lld segs=%lld recs=%lld "
               "migration=[%.0fs..%s]\n",
               scheme_name.c_str(), static_cast<long long>(out.completed),
               static_cast<long long>(out.aborted),
               static_cast<long long>(out.move.segments_moved),
               static_cast<long long>(out.move.records_moved),
               ToSeconds(out.move.started_at - MoveWarmup()), end);
  return out;
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  using namespace wattdb;
  using namespace wattdb::bench;
  PrintHeader("Figure 6", "rebalancing under the three partitioning schemes");
  JsonReporter json("fig6_partitioning_schemes");

  const RebalanceSetup setup = MoveSetup();
  json.Config("cost_scale", setup.cost_scale);
  json.Config("clients", setup.clients);
  const MoveRun physical = RunScheme(setup, "physical");
  const MoveRun logical = RunScheme(setup, "logical");
  const MoveRun physio = RunScheme(setup, "physiological");

  for (const auto& [label, o] :
       {std::pair<const char*, const MoveRun*>{"physical", &physical},
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

  PrintMovePanels({"physical", "logical", "physiological"},
                  {&physical, &logical, &physio});
  return 0;
}
