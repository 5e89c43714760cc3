#ifndef WATTDB_PARTITION_MIGRATION_H_
#define WATTDB_PARTITION_MIGRATION_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/master.h"
#include "common/status.h"
#include "common/types.h"

namespace wattdb::partition {

/// Tuning knobs common to all repartitioning schemes.
struct MigrationConfig {
  /// Copy streaming granularity: one event-loop step ships this many bytes
  /// (disk read -> network -> disk write), so queries interleave with the
  /// copy instead of stalling behind one giant transfer.
  size_t copy_chunk_bytes = 4 * 1024 * 1024;

  /// Records moved per logical-migration batch (one system transaction).
  size_t logical_batch_records = 256;

  /// Cost scale-up: every materialized byte/record stands for `cost_scale`
  /// paper-scale bytes/records. The benches use this to reproduce the
  /// paper's SF-1000 (~200 GB) migration durations with a smaller
  /// materialized database; hardware resources are kept busy accordingly.
  double cost_scale = 1.0;

  /// Restrict rebalancing to one table (invalid = all tables). The Fig. 3
  /// micro-benchmark moves only the table its workload hammers.
  TableId only_table;
};

/// Base class of the three schemes: the skeleton every segment move runs
/// in. It owns the task queue, the plan that selects which segments leave
/// which source partitions, the chunked copy machinery, the §4.3
/// ownership-transfer preamble and the abandon path. Subclasses decide only
/// what one move does (§4.1-§4.3): ship bytes, drain records, or ship bytes
/// and flip ownership.
class MigrationManagerBase : public cluster::Repartitioner {
 public:
  MigrationManagerBase(cluster::Cluster* cluster, MigrationConfig config);

  Status StartRebalance(const std::vector<NodeId>& targets, double fraction,
                        std::function<void()> done) override;
  Status Drain(NodeId victim, std::function<void()> done) override;
  /// Targeted moves (the master's heat balancer): the moves join the
  /// shared task queue as given, so §4.3 two-pointer safety, chunked
  /// streaming, and crash abandonment apply unchanged.
  Status StartMoves(const std::vector<cluster::SegmentMove>& moves,
                    std::function<void()> done) override;
  bool InProgress() const override { return stats_.running; }

  /// Crash notification: queued tasks whose source or target is `down` are
  /// abandoned (counted in stats().tasks_failed); the in-flight copy, if
  /// any, aborts at its next chunk boundary via the liveness check in
  /// StreamBytes. The rebalance still completes (and fires `done`) with
  /// whatever tasks survived.
  void OnNodeFailure(NodeId down) override;

  const cluster::RebalanceStats& stats() const override { return stats_; }
  const MigrationConfig& config() const { return config_; }

 protected:
  /// Subclass hook: execute one move, then call `next()` (possibly from a
  /// deferred event) to pull the next task — directly on success, through
  /// Abandon on failure.
  virtual void ExecuteTask(const cluster::SegmentMove& task,
                           std::function<void()> next) = 0;

  /// The §4.3 preamble of an ownership-transferring move, run once the
  /// scheme's own checks passed: the route check, the destination pick,
  /// stale-copy eviction, then the master's two-pointer entry (BeginMove)
  /// and the source's forwarding pointer. Returns the destination
  /// partition, or Invalid once the task was abandoned (`next` pulled).
  PartitionId BeginOwnershipMove(const cluster::SegmentMove& task,
                                 catalog::Partition* src,
                                 const std::function<void()>& next);

  /// Count `task` as failed (stats().tasks_failed) and pull the next task.
  void Abandon(const cluster::SegmentMove& task, const std::string& why,
               const std::function<void()>& next);

  /// Chunked byte shipping: schedules events that stream
  /// `bytes * cost_scale` from src disk through the network to a dst disk,
  /// then invokes `done` at the completion time. Maintenance pins are held
  /// on both buffer managers while streaming. If either endpoint crashes
  /// mid-stream, the copy aborts at the next chunk boundary and `done`
  /// receives nullptr — the caller must not install the move.
  void StreamBytes(SegmentId seg, NodeId src, NodeId dst, size_t bytes,
                   std::function<void(hw::Disk* dst_disk)> done);

  cluster::Cluster* cluster_;
  MigrationConfig config_;
  cluster::RebalanceStats stats_;

 private:
  /// Build the task list for moving `fraction` of each table away from its
  /// current owners onto `targets`. Picks segments round-robin across the
  /// key order so moved ranges interleave with retained ones.
  std::vector<cluster::SegmentMove> PlanRebalance(
      const std::vector<NodeId>& targets, double fraction);
  /// Task list that empties `victim`.
  std::vector<cluster::SegmentMove> PlanDrain(NodeId victim);
  /// Nodes a drain of `victim` may ship data to: active, not the victim,
  /// and not partitioned from the master. A partitioned node's data path
  /// is alive (it is still "active"), but the master has declared it dead
  /// and a promotion may depose it at any moment — shipping drain data
  /// there wedges the drain until the next control tick re-plans it.
  std::vector<NodeId> DrainSurvivors(NodeId victim) const;

  /// Whether `task`'s source partition is still the routed primary of every
  /// entry covering its range. A plan goes stale between planning and
  /// execution: a promotion can depose the source (owner partitioned from
  /// the master or crashed) and re-point the route at a standby — completing
  /// such a move would install the deposed owner's stale segment copy over
  /// the promoted one, silently dropping every write the new owner has
  /// committed since. BeginOwnershipMove checks this before BeginMove and
  /// abandons the task when it fails.
  bool SourceOwnsRoute(const cluster::SegmentMove& task) const;

  /// Drop any segments of `dst` that intersect `task.range` but are no
  /// longer routed to it. Valid only after SourceOwnsRoute(task) held: the
  /// route names the source, so such segments are stale copies left behind
  /// when `dst` was deposed (promotion while its node was partitioned) and
  /// never reconciled. Returns false — install must be abandoned — when a
  /// stale segment also backs a range `dst` still legitimately serves.
  bool EvictStaleDstCopies(catalog::Partition* dst,
                           const cluster::SegmentMove& task);

  /// Destination partition for moving `range` of `table` onto `node`,
  /// created on first use. Keyed by the range start so that warehouse-
  /// grained source partitions map to equally fine target partitions
  /// (preserving the §4.3 lock granularity after the move).
  PartitionId DstPartitionFor(TableId table, NodeId node, Key range_lo);

  void StartTasks(std::vector<cluster::SegmentMove> tasks,
                  std::function<void()> done);
  void RunNextTask();
  void FinishAll();

  /// One round of PlanDrain + StartTasks. If the victim still holds
  /// segments afterwards (a survivor died mid-drain and its tasks were
  /// abandoned, or writes landed behind the planner), the remainder is
  /// re-planned onto the nodes still standing — bounded by `attempt` so a
  /// victim that died mid-drain cannot loop forever.
  void StartDrainAttempt(NodeId victim, int attempt,
                         std::function<void()> done);

  std::deque<cluster::SegmentMove> queue_;
  std::function<void()> done_;
  /// Victim of the drain currently running (invalid outside a drain).
  /// OnNodeFailure uses it to tell a drain task orphaned by its
  /// *destination* dying — re-targetable onto another survivor — from an
  /// ordinary rebalance task, which is simply abandoned.
  NodeId drain_victim_ = NodeId::Invalid();
  struct DstKey {
    uint64_t table_node;
    Key range_lo;
    friend bool operator==(const DstKey& a, const DstKey& b) {
      return a.table_node == b.table_node && a.range_lo == b.range_lo;
    }
  };
  struct DstKeyHash {
    size_t operator()(const DstKey& k) const {
      return std::hash<uint64_t>()(k.table_node) * 1000003 +
             std::hash<Key>()(k.range_lo);
    }
  };
  std::unordered_map<DstKey, PartitionId, DstKeyHash> dst_cache_;
};

}  // namespace wattdb::partition

#endif  // WATTDB_PARTITION_MIGRATION_H_
