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

MoveRun RunOne(bool helpers) {
  MoveRun out = RunMove(MoveSetup(), "physiological", [helpers](Db* db) {
    if (helpers) {
      Must(db->AttachHelpers({NodeId(4), NodeId(5)},
                             {NodeId(0), NodeId(1), NodeId(2), NodeId(3)},
                             /*remote_buffer_pages=*/1500),
           "AttachHelpers");
    }
    // Helpers are brought down again once rebalancing finished.
    const auto done = [db, helpers]() {
      if (helpers) Must(db->DetachHelpers(), "DetachHelpers");
    };
    Must(db->TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, done),
         "TriggerRebalance");
  });
  std::fprintf(stderr, "[%s] completed=%lld migration end t=%+.0fs\n",
               helpers ? "physio+helper" : "physiological",
               static_cast<long long>(out.completed),
               out.move.finished_at == 0
                   ? -1.0
                   : ToSeconds(out.move.finished_at - MoveWarmup()));
  return out;
}

}  // namespace
}  // namespace wattdb::bench

int main() {
  using namespace wattdb;
  using namespace wattdb::bench;
  PrintHeader("Figure 8", "physiological rebalancing with helper nodes");
  JsonReporter json("fig8_helper_nodes");

  const MoveRun plain = RunOne(false);
  const MoveRun helped = RunOne(true);

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
  return 0;
}
