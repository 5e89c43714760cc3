#ifndef WATTDB_API_DB_H_
#define WATTDB_API_DB_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/options.h"
#include "api/session.h"
#include "cluster/cluster.h"
#include "cluster/master.h"
#include "common/logging.h"
#include "common/status.h"
#include "fault/fault_injector.h"
#include "fault/recovery_manager.h"
#include "replica/replica_manager.h"
#include "workload/client.h"
#include "workload/driver.h"
#include "workload/kv.h"
#include "workload/micro.h"
#include "workload/tpcc_loader.h"

namespace wattdb {

/// One routing-table row as seen through the facade (who serves which key
/// range) — introspection without handing out catalog::Partition pointers.
struct TableRoute {
  KeyRange range;
  PartitionId partition;
  NodeId owner;
  size_t segments = 0;
};

/// The front door of the engine: owns the simulated cluster, the loaded
/// TPC-C database, the repartitioning scheme selected by name (one of the
/// three of §4), and the master's elasticity controller — everything the
/// benches and examples previously wired together by hand (§3-§4 of the
/// paper as one handle).
///
///   auto db = Db::Open(DbOptions().WithNodes(4).WithActiveNodes(2));
///   Session s = (*db)->OpenSession();
///   auto rec = s.Get(table, key);
///
/// Data access goes through OpenSession(); elasticity through
/// TriggerRebalance()/AttachHelpers(); simulated time through RunFor().
class Db {
 public:
  /// Builds and wires the whole system. Fails (without side effects) when
  /// the scheme name is unknown or the initial load fails.
  static StatusOr<std::unique_ptr<Db>> Open(DbOptions options);

  ~Db();
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  // --- Data access --------------------------------------------------------
  /// A client connection; cheap, create one per simulated client.
  Session OpenSession() { return Session(cluster_.get()); }

  /// Table id of a TPC-C table (requires the TPC-C load).
  TableId table(workload::TpccTable t) const {
    WATTDB_CHECK_MSG(tpcc_ != nullptr, "table() requires the TPC-C load");
    return tpcc_->table(t);
  }

  /// The routing table of `table`: key range -> partition -> owner node.
  std::vector<TableRoute> Routes(TableId table) const;

  /// Create a generic single-column KV table whose key space [0, max_key)
  /// is range-partitioned evenly across the currently active nodes. The
  /// entry point for non-TPC-C scenarios driven through Session.
  /// `segments_per_partition` > 0 pre-splits each partition's range into
  /// that many segments up front — the granularity at which the heat
  /// balancer can later move key ranges between nodes; 0 keeps the default
  /// lazy materialization (one segment grown on first insert).
  StatusOr<TableId> CreateKvTable(const std::string& name, size_t value_bytes,
                                  Key max_key,
                                  int segments_per_partition = 0);

  // --- Workload drivers ---------------------------------------------------
  /// Take ownership of any workload generator implementing WorkloadDriver
  /// (stopped on Db destruction). Call Start() on the returned driver to
  /// begin issuing queries.
  workload::WorkloadDriver& AttachWorkload(
      std::unique_ptr<workload::WorkloadDriver> driver);

  /// Attached drivers, in attach order.
  const std::vector<std::unique_ptr<workload::WorkloadDriver>>& workloads()
      const {
    return drivers_;
  }

  /// Attach a closed-loop TPC-C client pool; owned by the Db. Call Start()
  /// on the returned pool to begin issuing queries.
  workload::ClientPool& AddClientPool(const workload::ClientPoolConfig& cfg);

  /// Attach a Fig. 3-style read/update micro-workload; owned by the Db.
  workload::MicroWorkload& AddMicroWorkload(const workload::MicroConfig& cfg);

  /// Create the driver's KV table (named `<name>-<n>` per attach), load its
  /// key space, and attach a YCSB-style driver running on the batched
  /// Session API. Works with or without the TPC-C load.
  StatusOr<workload::KvWorkload*> AddKvWorkload(const workload::KvConfig& cfg);

  // --- Elasticity ---------------------------------------------------------
  /// Move `fraction` of the data onto `targets` (booting them first if
  /// needed); `done` fires when every move completed. Runs online.
  Status TriggerRebalance(const std::vector<NodeId>& targets, double fraction,
                          std::function<void()> done = nullptr);

  /// TriggerRebalance, then drive the simulation until the move completes.
  /// Returns the simulated duration of the move; TimedOut when it is still
  /// running after `max_wait`.
  StatusOr<SimTime> RebalanceAndWait(const std::vector<NodeId>& targets,
                                     double fraction,
                                     SimTime max_wait = 900 * kUsPerSec);

  /// Fig. 8: power up helper nodes for log shipping and remote buffers.
  Status AttachHelpers(const std::vector<NodeId>& helpers,
                       const std::vector<NodeId>& assisted,
                       size_t remote_buffer_pages);
  Status DetachHelpers();

  // --- Faults & recovery --------------------------------------------------
  /// Abrupt failure of `node`: its volatile state is lost (buffered pages
  /// and unflushed post-checkpoint inserts), routed operations on its data
  /// return Unavailable, queued migration tasks touching it are abandoned,
  /// and in-flight copies abort. Never the master (InvalidArgument).
  Status CrashNode(NodeId node);

  /// Boot a crashed (or powered-off) node and redo-replay its log tails
  /// (LogManager::TailAfter + Node::RedoInto, honoring kCheckpoint
  /// records). `on_recovered` fires on the event loop at the simulated
  /// time recovery completes.
  Status RestartNode(NodeId node,
                     std::function<void(const fault::RecoveryReport&)>
                         on_recovered = nullptr);

  /// RestartNode, then drive the simulation until recovery completes.
  /// Returns the recovery report; TimedOut if still recovering after
  /// `max_wait`.
  StatusOr<fault::RecoveryReport> RestartNodeAndWait(
      NodeId node, SimTime max_wait = 60 * kUsPerSec);

  /// Cut the master<->node control link: the failure detector stops seeing
  /// `node`'s heartbeats while its data path keeps serving — the master
  /// will declare it dead and fail its replicated ranges over, and epoch
  /// fencing keeps the still-alive owner from serving a moved route.
  /// Never the master (InvalidArgument).
  Status PartitionNode(NodeId node);

  /// Restore the control link and reconcile the node's stale copies (see
  /// cluster::Cluster::HealPartition).
  Status HealPartition(NodeId node);

  /// The crash scheduler (armed from DbOptions::WithFaultPlan; scenarios
  /// can Schedule more, e.g. "crash the target at 50% progress").
  fault::FaultInjector& fault() { return *fault_; }
  /// Crash/redo bookkeeping: per-node down state and recovery reports.
  fault::RecoveryManager& recovery() { return *recovery_; }

  // --- Warm replicas -------------------------------------------------------
  /// The warm-standby subsystem (always constructed; idle unless
  /// MasterPolicy::replica enabled it). Observers for replica state and the
  /// replication network tax; its decisions are counted on the master's
  /// timeline (master().event_count).
  replica::ReplicaManager& replicas() { return *replicas_; }

  // --- Self-healing observers ---------------------------------------------
  /// Timeline of the master control loop's decisions (scale events, failure
  /// detections, auto-restarts, drains, helper failovers) in simulated-time
  /// order. Populated only while the control loop runs (WithMasterLoop).
  const std::vector<cluster::ControlEvent>& control_events() const {
    return master_->control_events();
  }
  /// Subscribe to control events as they are emitted (the benchmark report
  /// folds each finished heat-rebalance round's move totals through it).
  void SetControlEventListener(
      std::function<void(const cluster::ControlEvent&)> listener) {
    master_->set_control_event_listener(std::move(listener));
  }

  // --- Simulated time -----------------------------------------------------
  SimTime Now() const { return cluster_->Now(); }
  void RunUntil(SimTime until) { cluster_->RunUntil(until); }
  void RunFor(SimTime duration) { cluster_->RunUntil(Now() + duration); }
  /// Schedule work on the simulation's event loop (phase changes, surges).
  sim::EventQueue& events() { return cluster_->events(); }

  // --- Power / energy (§3.1) ----------------------------------------------
  int ActiveNodeCount() const { return cluster_->ActiveNodeCount(); }
  double WattsIn(SimTime from, SimTime to) const {
    return cluster_->WattsIn(from, to);
  }
  hw::EnergyMeter& energy() { return cluster_->energy(); }

  // --- Components (read-mostly escape hatches) ----------------------------
  cluster::Cluster& cluster() { return *cluster_; }
  const cluster::Cluster& cluster() const { return *cluster_; }
  /// Per-node admission queues (src/admission): depth gauges and per-class
  /// admitted/shed counters. Tracking is always on; shedding only under an
  /// enabled WithAdmissionPolicy.
  admission::AdmissionController& admission() {
    return cluster_->admission();
  }
  cluster::Master& master() { return *master_; }
  cluster::Monitor& monitor() { return master_->monitor(); }
  cluster::Repartitioner& scheme() { return *scheme_; }
  /// Loaded TPC-C database handle (null without the TPC-C load).
  workload::TpccDatabase* tpcc() { return tpcc_.get(); }
  const DbOptions& options() const { return options_; }

 private:
  explicit Db(DbOptions options);

  DbOptions options_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<workload::TpccDatabase> tpcc_;
  std::unique_ptr<cluster::Repartitioner> scheme_;
  std::unique_ptr<cluster::Master> master_;
  std::unique_ptr<fault::RecoveryManager> recovery_;
  std::unique_ptr<fault::FaultInjector> fault_;
  std::unique_ptr<replica::ReplicaManager> replicas_;
  /// All attached workload generators, owned through the common interface.
  std::vector<std::unique_ptr<workload::WorkloadDriver>> drivers_;
};

}  // namespace wattdb

#endif  // WATTDB_API_DB_H_
