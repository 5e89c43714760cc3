#ifndef WATTDB_API_OPTIONS_H_
#define WATTDB_API_OPTIONS_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/master.h"
#include "fault/fault_injector.h"
#include "partition/migration.h"
#include "workload/tpcc_loader.h"

namespace wattdb {

/// Everything needed to open a wattdb::Db, with builder-style setters so a
/// scenario reads as one chained expression:
///
///   auto db = Db::Open(DbOptions()
///                          .WithNodes(10).WithActiveNodes(2)
///                          .WithWarehouses(8).WithFill(0.5)
///                          .WithHomeNodes({NodeId(0), NodeId(1)})
///                          .WithScheme("physiological"));
///
/// The sub-configs stay public: anything without a dedicated setter is
/// reachable as e.g. `options.master.cpu_upper = 0.1`.
struct DbOptions {
  /// Hardware/topology of the simulated cluster (§3.1-§3.2).
  cluster::ClusterConfig cluster;
  /// TPC-C data initially loaded (set `load_tpcc = false` for an empty db).
  workload::TpccLoadConfig load;
  /// Knobs of the repartitioning scheme selected by `scheme`.
  partition::MigrationConfig migration;
  /// Thresholds of the master's elasticity control loop (§3.4).
  cluster::MasterPolicy master;

  /// Repartitioning scheme: "physical", "logical" or "physiological" (§4).
  std::string scheme = "physiological";

  /// Load the TPC-C database during Open().
  bool load_tpcc = true;
  /// Start the master's periodic scale-out/in control loop (§3.4).
  bool start_master = false;
  /// Start periodic power/metric sampling (energy metering needs this).
  bool start_sampling = true;
  /// Periodic version-store GC (Fig. 3 MVCC runs turn it off).
  bool auto_vacuum = true;
  /// Restrict rebalancing to one TPC-C table; resolved into
  /// `migration.only_table` once table ids exist after loading.
  std::optional<workload::TpccTable> migrate_only;
  /// Crash schedule armed on the fault injector at Open (validated there:
  /// nodes must exist, never the master, progress fractions in [0, 1]).
  fault::FaultPlan fault_plan;

  // --- Cluster ------------------------------------------------------------
  DbOptions& WithNodes(int n) {
    cluster.num_nodes = n;
    return *this;
  }
  DbOptions& WithActiveNodes(int n) {
    cluster.initially_active = n;
    return *this;
  }
  DbOptions& WithBufferPages(size_t pages) {
    cluster.buffer.capacity_pages = pages;
    return *this;
  }
  DbOptions& WithCc(tx::CcScheme cc) {
    cluster.cc = cc;
    return *this;
  }
  DbOptions& WithSeed(uint64_t seed) {
    cluster.seed = seed;
    load.seed = seed;
    return *this;
  }

  // --- Workload -----------------------------------------------------------
  DbOptions& WithWarehouses(int warehouses) {
    load.warehouses = warehouses;
    return *this;
  }
  DbOptions& WithFill(double fill) {
    load.fill = fill;
    return *this;
  }
  DbOptions& WithHomeNodes(std::vector<NodeId> nodes) {
    load.home_nodes = std::move(nodes);
    return *this;
  }
  DbOptions& WithoutTpccLoad() {
    load_tpcc = false;
    return *this;
  }

  // --- Partitioning / elasticity ------------------------------------------
  DbOptions& WithScheme(std::string name) {
    scheme = std::move(name);
    return *this;
  }
  DbOptions& WithCostScale(double scale) {
    migration.cost_scale = scale;
    return *this;
  }
  DbOptions& WithCopyChunkBytes(size_t bytes) {
    migration.copy_chunk_bytes = bytes;
    return *this;
  }
  DbOptions& WithLogicalBatchRecords(size_t records) {
    migration.logical_batch_records = records;
    return *this;
  }
  DbOptions& WithMigrateOnly(workload::TpccTable table) {
    migrate_only = table;
    return *this;
  }
  DbOptions& WithMasterLoop(cluster::MasterPolicy policy) {
    master = policy;
    start_master = true;
    return *this;
  }

  /// Intra-node parallel data plane: per-core shared-nothing worker lanes
  /// (src/lanes). Routing charges segment work to the owning lane; with
  /// `balance_lanes` the master's heat tier re-lanes hot segments within a
  /// node before considering a cross-node move. Enforcement lives in the
  /// node/routing layers, so this does not imply starting the master loop —
  /// only the balancing tier needs it.
  DbOptions& WithLanePolicy(lanes::LanePolicy policy) {
    cluster.lanes = policy;
    return *this;
  }

  /// Structure backing every segment-local primary-key index (B+-tree by
  /// default; hash trades ordered scans' speed for cheaper point probes).
  DbOptions& WithIndexKind(index::IndexKind kind) {
    cluster.index_kind = kind;
    return *this;
  }

  /// Per-node admission queue caps with priority-class shedding
  /// (src/admission). Enforcement lives in the routing layer, so this does
  /// NOT imply starting the master loop — only overload *detection* (the
  /// kOverloadDetected events and scale-out pressure) needs the loop.
  DbOptions& WithAdmissionPolicy(admission::AdmissionPolicy policy) {
    master.admission = policy;
    return *this;
  }

  // --- Faults -------------------------------------------------------------
  DbOptions& WithFaultPlan(fault::FaultPlan plan) {
    fault_plan = std::move(plan);
    return *this;
  }

  // --- Bookkeeping --------------------------------------------------------
  DbOptions& WithSampling(bool on) {
    start_sampling = on;
    return *this;
  }
  DbOptions& WithAutoVacuum(bool on) {
    auto_vacuum = on;
    return *this;
  }
};

}  // namespace wattdb

#endif  // WATTDB_API_OPTIONS_H_
