#ifndef WATTDB_FAULT_RECOVERY_MANAGER_H_
#define WATTDB_FAULT_RECOVERY_MANAGER_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/types.h"

namespace wattdb::partition {
class MigrationManagerBase;
}  // namespace wattdb::partition

namespace wattdb::fault {

/// What one node restart recovered; surfaced through Db::RestartNode and
/// collected by bench_crash_recovery (recovery time vs. log-tail length).
struct RecoveryReport {
  NodeId node;
  /// Partitions owned by the node that went through redo.
  int partitions_recovered = 0;
  /// Log records scanned from the per-partition redo tails (everything
  /// after the last kCheckpoint of each partition, §4.3).
  int64_t tail_records = 0;
  /// Bytes of those tails, sequentially read off the log disk.
  size_t tail_bytes = 0;
  /// Insert/update/delete records actually re-applied by Node::RedoInto.
  int64_t records_replayed = 0;
  /// Committed-but-unflushed inserts the crash wiped and redo rebuilt.
  int64_t records_lost_at_crash = 0;
  /// Top-index ranges whose routing entry had to be re-registered with the
  /// master's global partition table.
  int64_t routes_restored = 0;
  /// Ranges whose reclaim was fenced off by a newer ownership epoch — a
  /// warm replica was promoted while this node was down. The local copy is
  /// stale and its segment is dropped instead of resurrected.
  int64_t routes_superseded = 0;
  SimTime crashed_at = 0;    ///< When Crash() hit (0 if never crashed).
  SimTime restarted_at = 0;  ///< When the node finished booting.
  SimTime recovered_at = 0;  ///< When redo finished; node fully serving.
  SimTime redo_us = 0;       ///< recovered_at - restarted_at.
  SimTime outage_us = 0;     ///< recovered_at - crashed_at.
};

/// Node-local crash and ARIES-style redo recovery, driven through the
/// wattdb::Db facade (§4.3: "the log file is needed to reconstruct
/// partitions and to perform appropriate UNDO and REDO").
///
/// Crash(n) is abrupt: unlike Cluster::PowerOff it never refuses a node
/// that still holds data. The node's volatile state dies with it — buffered
/// pages are dropped, and committed inserts newer than the partition's last
/// checkpoint are wiped from its segments (their pages are treated as
/// never having been flushed; the WAL, which was forced at commit, is the
/// only survivor). The active repartitioning scheme is notified so queued
/// moves touching the node are abandoned and in-flight copies abort.
///
/// Restart(n) boots the node, then replays each owned partition's log tail
/// after its last kCheckpoint via LogManager::TailAfter + Node::RedoInto,
/// charging the sequential log read and per-record CPU. Partitions stuck in
/// a move state are re-opened, and any top-index range the routing tree no
/// longer covers is re-registered with the GlobalPartitionTable.
class RecoveryManager {
 public:
  /// `scheme` is told of every crash; neither pointer may be null.
  RecoveryManager(cluster::Cluster* cluster,
                  partition::MigrationManagerBase* scheme);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Abrupt failure of `node`. InvalidArgument for the master (it holds the
  /// catalog and the txn domain), FailedPrecondition if already down.
  Status Crash(NodeId node);

  /// Boot `node` back up and run redo once active. `on_recovered` fires on
  /// the event loop at the simulated time recovery completes. Fails with
  /// FailedPrecondition when the node is already active.
  Status Restart(NodeId node,
                 std::function<void(const RecoveryReport&)> on_recovered =
                     nullptr);

  int crashes() const { return crashes_; }
  int recoveries() const { return static_cast<int>(reports_.size()); }
  /// Completed recoveries, in completion order.
  const std::vector<RecoveryReport>& reports() const { return reports_; }

 private:
  /// Runs at boot-completion time; returns the filled report with
  /// recovered_at set to the simulated redo completion time.
  RecoveryReport Redo(NodeId node);

  cluster::Cluster* cluster_;
  partition::MigrationManagerBase* scheme_;
  /// Unflushed inserts wiped by the crash, per node (for the report).
  std::unordered_map<NodeId, int64_t> wiped_at_crash_;
  std::vector<RecoveryReport> reports_;
  int crashes_ = 0;
};

}  // namespace wattdb::fault

#endif  // WATTDB_FAULT_RECOVERY_MANAGER_H_
