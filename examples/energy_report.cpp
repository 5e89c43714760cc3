// Energy-proportionality report: run the same TPC-C workload at several
// intensities on (a) a fixed "brawny" configuration with every node on and
// (b) a right-sized configuration with only as many nodes as the load
// needs, and compare watts and joules per query — the cluster thesis of
// §1/§3 ("a cluster of nodes may adjust the number of active nodes to the
// current demand and, thus, approximate energy proportionality").
//
//   $ ./examples/energy_report

#include <cstdio>
#include <vector>

#include "api/db.h"

using namespace wattdb;

namespace {

struct RunResult {
  double qps = 0;
  double watts = 0;
  double j_per_query = 0;
};

RunResult RunAt(int clients, int active_nodes) {
  std::vector<NodeId> home_nodes;
  for (int i = 0; i < active_nodes; ++i) home_nodes.push_back(NodeId(i));
  auto opened = Db::Open(DbOptions()
                             .WithNodes(10)
                             .WithActiveNodes(active_nodes)
                             .WithBufferPages(600)
                             .WithWarehouses(active_nodes * 2)
                             .WithFill(0.15)
                             .WithHomeNodes(home_nodes));
  if (!opened.ok()) return {};
  Db& db = **opened;

  workload::ClientPoolConfig pool_cfg;
  pool_cfg.num_clients = clients;
  pool_cfg.think_time = 80 * kUsPerMs;
  workload::ClientPool& pool = db.AddClientPool(pool_cfg);
  pool.Start();
  db.RunFor(20 * kUsPerSec);  // Warm up.
  pool.ResetStats();
  db.energy().Reset();
  constexpr SimTime kWindow = 60 * kUsPerSec;
  db.RunFor(kWindow);
  pool.Stop();

  RunResult r;
  r.qps = pool.committed() / ToSeconds(kWindow);
  r.watts = db.energy().joules() / ToSeconds(kWindow);
  r.j_per_query = pool.committed() > 0
                      ? db.energy().joules() / pool.committed()
                      : 0.0;
  return r;
}

}  // namespace

int main() {
  std::printf("energy proportionality: right-sized cluster vs all-on\n\n");
  std::printf("%8s | %28s | %28s\n", "", "right-sized (n nodes)",
              "over-provisioned (10 nodes)");
  std::printf("%8s | %6s %8s %8s %6s | %8s %8s %8s\n", "clients", "nodes",
              "qps", "W", "J/q", "qps", "W", "J/q");
  struct Point {
    int clients;
    int nodes;
  };
  for (const Point p :
       {Point{10, 1}, Point{40, 2}, Point{90, 3}}) {
    const RunResult sized = RunAt(p.clients, p.nodes);
    const RunResult allon = RunAt(p.clients, 10);
    std::printf("%8d | %6d %8.1f %8.1f %6.2f | %8.1f %8.1f %8.2f\n",
                p.clients, p.nodes, sized.qps, sized.watts, sized.j_per_query,
                allon.qps, allon.watts, allon.j_per_query);
  }
  std::printf(
      "\nA right-sized wimpy cluster tracks the load with its power draw;\n"
      "the all-on configuration wastes idle watts at every load level.\n");
  return 0;
}
