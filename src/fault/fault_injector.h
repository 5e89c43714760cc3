#ifndef WATTDB_FAULT_FAULT_INJECTOR_H_
#define WATTDB_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/types.h"
#include "fault/recovery_manager.h"

namespace wattdb::partition {
class MigrationManagerBase;
}  // namespace wattdb::partition

namespace wattdb::replica {
class ReplicaManager;
}  // namespace wattdb::replica

namespace wattdb::fault {

/// A declarative crash schedule, built fluently and handed to
/// DbOptions::WithFaultPlan (or armed directly on the injector):
///
///   fault::FaultPlan()
///       .CrashAt(NodeId(1), 20 * kUsPerSec, /*restart_after=*/5 * kUsPerSec)
///       .CrashEvery(NodeId(2), 60 * kUsPerSec, 5 * kUsPerSec)
///       .CrashAtMigrationProgress(NodeId(3), 0.5, 10 * kUsPerSec);
struct FaultPlan {
  struct Crash {
    NodeId node;
    /// Absolute simulated crash time (the first one when periodic).
    SimTime at = 0;
    /// > 0: re-crash every `period` after the first crash.
    SimTime period = 0;
    /// In [0, 1]: ignore `at` and crash when the active rebalance's task
    /// progress first reaches this fraction ("crash node X at migration
    /// progress p%"); < 0 disables the trigger.
    double at_migration_progress = -1.0;
    /// In [0, 1]: ignore `at` and crash when ReplicaManager::progress()
    /// first reaches this fraction ("crash the owner at replica catch-up
    /// p%"); < 0 disables the trigger.
    double at_replica_progress = -1.0;
    /// > 0: automatically restart (and redo-recover) this long after each
    /// crash; 0 leaves the node down until Db::RestartNode.
    SimTime restart_after = 0;
  };

  /// A master<->node control-link cut: heartbeats from `node` stop at
  /// `at`, the data path keeps serving, and the link heals `heal_after`
  /// later (0 = stays cut until Db::HealPartition).
  struct NetSplit {
    NodeId node;
    SimTime at = 0;
    SimTime heal_after = 0;
  };

  std::vector<Crash> crashes;
  std::vector<NetSplit> splits;

  FaultPlan& CrashAt(NodeId node, SimTime at, SimTime restart_after = 0) {
    Crash c;
    c.node = node;
    c.at = at;
    c.restart_after = restart_after;
    crashes.push_back(c);
    return *this;
  }
  FaultPlan& CrashEvery(NodeId node, SimTime period, SimTime restart_after) {
    Crash c;
    c.node = node;
    c.at = period;
    c.period = period;
    c.restart_after = restart_after;
    crashes.push_back(c);
    return *this;
  }
  FaultPlan& CrashAtMigrationProgress(NodeId node, double fraction,
                                      SimTime restart_after = 0) {
    Crash c;
    c.node = node;
    c.at_migration_progress = fraction;
    c.restart_after = restart_after;
    crashes.push_back(c);
    return *this;
  }
  /// Crash `node` the moment the replica subsystem's aggregate lifecycle
  /// progress reaches `fraction` — e.g. 0.5 lands mid-catch-up, after the
  /// bootstrap stream but before the standby is caught up. Used to prove
  /// exactly-once apply across an owner crash during replica catch-up.
  FaultPlan& CrashAtReplicaProgress(NodeId node, double fraction,
                                    SimTime restart_after = 0) {
    Crash c;
    c.node = node;
    c.at_replica_progress = fraction;
    c.restart_after = restart_after;
    crashes.push_back(c);
    return *this;
  }

  /// Partition `node` from the master at `at`; heal `heal_after` later
  /// (0 = never, until an explicit Db::HealPartition).
  FaultPlan& PartitionAt(NodeId node, SimTime at, SimTime heal_after = 0) {
    NetSplit s;
    s.node = node;
    s.at = at;
    s.heal_after = heal_after;
    splits.push_back(s);
    return *this;
  }

  bool empty() const { return crashes.empty() && splits.empty(); }
};

/// Schedules node failures on the simulated event loop and hands them to
/// the RecoveryManager: one-shot crashes, periodic crash/restart churn, and
/// migration-progress triggers that poll the active scheme's RebalanceStats
/// and fire the moment task progress crosses the requested fraction.
class FaultInjector {
 public:
  /// Crashes go through `recovery`; the progress triggers poll `scheme`
  /// and `replicas`. No pointer may be null.
  FaultInjector(cluster::Cluster* cluster, RecoveryManager* recovery,
                partition::MigrationManagerBase* scheme,
                replica::ReplicaManager* replicas);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every crash of `plan`. Validate with FaultPlan checks in
  /// Db::Open first — Arm trusts its input.
  void Arm(const FaultPlan& plan);

  /// Schedule one crash spec.
  void Schedule(const FaultPlan::Crash& spec);

  /// Schedule one network-split spec.
  void Schedule(const FaultPlan::NetSplit& spec);

  /// Cancel all pending injections (already-crashed nodes stay down; their
  /// pending auto-restarts still run so the cluster is not left wedged).
  void Disarm() { ++generation_; }

  int crashes_injected() const { return crashes_injected_; }
  int restarts_injected() const { return restarts_injected_; }
  int partitions_injected() const { return partitions_injected_; }

 private:
  void Fire(FaultPlan::Crash spec, uint64_t generation);
  void PollProgress(FaultPlan::Crash spec, uint64_t generation);

  cluster::Cluster* cluster_;
  RecoveryManager* recovery_;
  partition::MigrationManagerBase* scheme_;
  replica::ReplicaManager* replicas_;
  /// Bumped by Disarm(); events from older generations become no-ops.
  uint64_t generation_ = 0;
  int crashes_injected_ = 0;
  int restarts_injected_ = 0;
  int partitions_injected_ = 0;
};

}  // namespace wattdb::fault

#endif  // WATTDB_FAULT_FAULT_INJECTOR_H_
