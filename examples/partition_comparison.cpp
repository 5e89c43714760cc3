// Compare the three repartitioning schemes on one live migration, printing
// a compact before/during/after summary — a minute-scale version of the
// paper's Fig. 6 experiment.
//
//   $ ./examples/partition_comparison [physical|logical|physiological]
//
// Without an argument, runs all three paper schemes. Any other name fails
// at Db::Open with NotFound, naming the three.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/db.h"

using namespace wattdb;

namespace {

struct PhaseStats {
  double qps = 0;
  double avg_ms = 0;
};

PhaseStats Window(Db* db, workload::ClientPool* pool, SimTime duration) {
  pool->ResetStats();
  db->RunFor(duration);
  PhaseStats s;
  s.qps = pool->committed() / ToSeconds(duration);
  s.avg_ms = pool->latencies().mean() / kUsPerMs;
  return s;
}

void RunScheme(const std::string& name) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(6)
                             .WithActiveNodes(2)
                             .WithBufferPages(500)
                             .WithWarehouses(4)
                             .WithFill(0.25)
                             .WithHomeNodes({NodeId(0), NodeId(1)})
                             .WithScheme(name)
                             .WithCostScale(6.0));
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return;
  }
  Db& db = **opened;

  workload::ClientPoolConfig pool_cfg;
  pool_cfg.num_clients = 40;
  pool_cfg.think_time = 60 * kUsPerMs;
  workload::ClientPool& pool = db.AddClientPool(pool_cfg);
  pool.Start();

  const PhaseStats before = Window(&db, &pool, 30 * kUsPerSec);
  pool.ResetStats();
  const StatusOr<SimTime> moved =
      db.RebalanceAndWait({NodeId(2), NodeId(3)}, 0.5, 600 * kUsPerSec);
  const double move_secs =
      moved.ok() ? ToSeconds(*moved) : ToSeconds(600 * kUsPerSec);
  PhaseStats during;
  during.qps = pool.committed() / move_secs;
  during.avg_ms = pool.latencies().mean() / kUsPerMs;
  const PhaseStats after = Window(&db, &pool, 30 * kUsPerSec);
  pool.Stop();

  std::printf(
      "%-14s | before %6.1f qps %7.2f ms | during %6.1f qps %7.2f ms "
      "(%5.1fs) | after %6.1f qps %7.2f ms | moved %lld segs / %lld recs\n",
      db.scheme().name().c_str(), before.qps, before.avg_ms, during.qps,
      during.avg_ms, move_secs, after.qps, after.avg_ms,
      static_cast<long long>(db.scheme().stats().segments_moved),
      static_cast<long long>(db.scheme().stats().records_moved));
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("online repartitioning: 50%% of records, 2 -> 4 nodes\n");
  if (argc > 1) {
    RunScheme(argv[1]);
    return 0;
  }
  for (const char* scheme : {"physical", "logical", "physiological"}) {
    RunScheme(scheme);
  }
  std::printf(
      "\nphysical ships bytes but strands ownership (no 'after' gain);\n"
      "logical pays per-record transactions; physiological ships bytes AND\n"
      "transfers ownership — the paper's recommendation.\n");
  return 0;
}
