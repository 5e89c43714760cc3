#ifndef WATTDB_REPLICA_REPLICA_MANAGER_H_
#define WATTDB_REPLICA_REPLICA_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/master.h"
#include "cluster/monitor.h"
#include "common/status.h"
#include "common/types.h"

namespace wattdb::replica {

/// Lifecycle of one warm standby.
enum class ReplicaState {
  kBootstrapping,  ///< Base copy streaming from the owner's disk.
  kCatchingUp,     ///< Base installed; applying the owner's log tail.
  kCaughtUp,       ///< Lag under the policy bound; serving fanned-out reads.
};

const char* ToString(ReplicaState state);

/// One warm standby of one hot segment: where it came from, where the
/// copy lives, and how far behind the owner's log it is.
struct ReplicaInfo {
  TableId table;
  SegmentId src_segment;
  KeyRange range;
  PartitionId src_partition;
  NodeId src_node;
  PartitionId replica_partition;
  SegmentId replica_segment;  ///< Invalid until bootstrap installs.
  NodeId host;
  ReplicaState state = ReplicaState::kBootstrapping;
  /// Last source-log LSN applied to the copy.
  uint64_t applied_lsn = 0;
  /// Unapplied source-log records at the start of the last catch-up round
  /// (the replication lag the staleness bound is checked against).
  int64_t lag_records = 0;
  /// Bootstrap + log-shipping bytes this replica has moved (network tax).
  int64_t bytes_shipped = 0;
  /// Bootstrap stream accounting (for progress()).
  size_t bootstrap_total_bytes = 0;
  size_t bootstrap_streamed_bytes = 0;
  SimTime created_at = 0;
  /// When the source segment's heat first dipped under the policy
  /// threshold (0 while hot) — the drop-hysteresis clock.
  SimTime cold_since = 0;
};

/// Maintains warm standbys of the hottest segments on other nodes: picks
/// them off the Monitor's per-segment heat EWMA, bootstraps a base copy by
/// byte-streaming the owner's segment (the migration path's cost model),
/// then keeps the copy fresh by applying the owner's log tail through the
/// same idempotent redo the crash path uses. The master owns it and calls
/// Tick from its control tick and PromoteReplicasOf / DropReplicasOn from
/// its failure and drain paths; failover promotes the freshest standby of
/// a dead owner (catch-up-and-flip) instead of waiting out the owner's full
/// WAL redo. Heat, policy, and the event timeline are the master's.
class ReplicaManager {
 public:
  ReplicaManager(cluster::Cluster* cluster, cluster::Master* master);

  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  /// One maintenance round, called from the master's control tick:
  /// drop invalidated replicas, apply the owners' log tails (advancing
  /// lag / serving state), then start bootstraps for under-replicated hot
  /// segments within the policy budget.
  void Tick();

  /// Owner `dead` was declared dead: for every segment it owned that has a
  /// bootstrapped standby, apply the final tail from the dead node's
  /// surviving WAL and flip the route to the freshest standby. Returns the
  /// number of promotions.
  int PromoteReplicasOf(NodeId dead);

  /// Drop every replica hosted on `node` (it died, or is being drained or
  /// excluded — replica state is unlogged and either gone or about to be).
  /// Also aborts bootstraps streaming *from* or *to* the node. Returns the
  /// number of replicas dropped.
  int DropReplicasOn(NodeId node);

  // --- Observers ----------------------------------------------------------
  const std::vector<std::shared_ptr<ReplicaInfo>>& replicas() const {
    return replicas_;
  }
  /// Bootstrap + log-shipping bytes across all replicas ever (the
  /// replication network tax reported by bench_warm_replicas).
  int64_t replication_bytes() const { return replication_bytes_; }

  /// Lifecycle progress of the current replica set, for fault triggers
  /// ("crash the owner at 50% of replica catch-up"): each replica
  /// contributes 0..0.5 while its base copy streams, 0.75 while applying
  /// the log tail, 1.0 once caught up; 0.0 with no replicas yet.
  double progress() const;

  /// The part of the owner's log tail past rep.applied_lsn that `rep`
  /// applies: its source partition's data records within its range,
  /// retargeted at the replica partition, in log order. Adds their size to
  /// `*bytes`. Reads only the records past rep.applied_lsn and copies only
  /// those it keeps.
  static std::vector<tx::LogRecord> CutTail(const ReplicaInfo& rep,
                                            const tx::LogManager& owner_log,
                                            size_t* bytes);

 private:
  const cluster::ReplicaPolicy& policy() const {
    return master_->policy().replica;
  }
  void ApplyLogTails(SimTime now);
  void ValidateReplicas(SimTime now);
  void MaybeCreateReplicas(SimTime now);
  void StartBootstrap(const std::shared_ptr<ReplicaInfo>& rep);
  void StreamChunk(const std::weak_ptr<ReplicaInfo>& weak, SimTime at);
  void FinishBootstrap(const std::shared_ptr<ReplicaInfo>& rep, SimTime now);
  /// Apply the source-log records for `rep`'s range beyond applied_lsn to
  /// the replica partition, charging network + host CPU. Returns how many
  /// records were pending before the apply (the lag).
  int64_t CatchUp(const std::shared_ptr<ReplicaInfo>& rep, SimTime now);
  /// Ship `tail` (`bytes` long) from rep's owner, leaving at `ship_at`, and
  /// replay it into the replica partition `part` on rep's host; counts the
  /// records and bytes once applied. Returns when the replay completes.
  StatusOr<SimTime> ApplyTail(ReplicaInfo* rep, catalog::Partition* part,
                              const std::vector<tx::LogRecord>& tail,
                              size_t bytes, SimTime ship_at);
  void DropReplica(const std::shared_ptr<ReplicaInfo>& rep,
                   const std::string& reason);
  NodeId PickHost(const std::shared_ptr<ReplicaInfo>& rep) const;
  std::string Describe(const ReplicaInfo& rep) const;

  cluster::Cluster* cluster_;
  cluster::Master* master_;

  /// shared_ptr so in-flight bootstrap events can hold weak references
  /// that expire when a replica is dropped mid-stream.
  std::vector<std::shared_ptr<ReplicaInfo>> replicas_;

  int64_t replication_bytes_ = 0;
};

}  // namespace wattdb::replica

#endif  // WATTDB_REPLICA_REPLICA_MANAGER_H_
