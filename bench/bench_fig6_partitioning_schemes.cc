// Reproduces Figs. 6 and 8 (a-d) of the paper: throughput, average
// response time, cluster power, and energy per query over time while the
// cluster rebalances 50% of all records from 2 nodes onto 2 additional
// nodes at t = 0.
//
// Fig. 6 runs the move under physical, logical, and physiological
// partitioning. Expected shape (paper §5.2):
//  * all three dip right after t=0;
//  * physical never recovers fully (ownership pinned, remote page fetches);
//  * logical dips deepest/longest but ends strong once ranges moved;
//  * physiological moves at copy speed AND transfers ownership: it recovers
//    fastest and ends with the best response times and J/query;
//  * power steps up when the two target nodes leave standby.
//
// Fig. 8 sets Fig. 6's physiological arm against the same move with two
// helper nodes that take over log shipping and provide remote (rDMA) buffer
// space while it runs. Helpers power up at t=0 and power down when
// rebalancing completes (paper: around t+370). Expected shape: with
// helpers, response times during the move improve and throughput holds up
// better, at the price of higher power draw — energy per query gets worse
// while they run ("trading energy efficiency for query performance").
// Fig. 8 gets its own header, panels and BENCH_fig8_helper_nodes.json.

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

// Fig. 8's stderr line of one arm.
void PrintHelperArm(const char* label, const MoveRun& run) {
  std::fprintf(stderr, "[%s] completed=%lld migration end t=%+.0fs\n", label,
               static_cast<long long>(run.completed),
               run.move.finished_at == 0
                   ? -1.0
                   : ToSeconds(run.move.finished_at - MoveWarmup()));
}

// The Fig. 8 helper arm: the Fig. 6 physiological move with helpers 4 and 5
// attached at t = 0 and detached once the move is done.
MoveRun RunWithHelpers(const RebalanceSetup& setup) {
  MoveRun out = RunMove(setup, "physiological", [](Db* db) {
    Must(db->AttachHelpers({NodeId(4), NodeId(5)},
                           {NodeId(0), NodeId(1), NodeId(2), NodeId(3)},
                           /*remote_buffer_pages=*/1500),
         "AttachHelpers");
    Must(db->TriggerRebalance(
             {NodeId(2), NodeId(3)}, 0.5,
             [db]() { Must(db->DetachHelpers(), "DetachHelpers"); }),
         "TriggerRebalance");
  });
  PrintHelperArm("physio+helper", out);
  return out;
}

void Fig8(const RebalanceSetup& setup, const MoveRun& plain) {
  PrintHeader("Figure 8", "physiological rebalancing with helper nodes");
  JsonReporter json("fig8_helper_nodes");
  PrintHelperArm("physiological", plain);
  const MoveRun helped = RunWithHelpers(setup);

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

  PrintMovePanels({"physiological", "physio+helper"}, {&plain, &helped});
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
  json.Flush();

  Fig8(setup, physio);
  return 0;
}
