#ifndef WATTDB_CLUSTER_NODE_H_
#define WATTDB_CLUSTER_NODE_H_

#include <functional>
#include <memory>
#include <vector>

#include "catalog/global_partition_table.h"
#include "common/status.h"
#include "common/types.h"
#include "hw/network.h"
#include "hw/node_hardware.h"
#include "lanes/lane_manager.h"
#include "storage/buffer_manager.h"
#include "storage/record.h"
#include "storage/segment_manager.h"
#include "tx/log_manager.h"
#include "tx/transaction_manager.h"

namespace wattdb::cluster {

/// CPU service-time constants for kernel operations. These are the
/// calibration points of the simulation; defaults approximate an Atom-class
/// core (the paper's local table scan sustains ~40k records/s, §3.3 Fig. 1).
struct NodeCostConfig {
  SimTime cpu_index_probe_us = 4;   ///< Top-index + B+-tree descent.
  SimTime cpu_record_read_us = 5;   ///< Slot read + tuple materialization.
  SimTime cpu_record_write_us = 10; ///< Page write + version bookkeeping.
  SimTime cpu_scan_record_us = 20;  ///< Per-record scan cost (~50k rec/s/core).
  /// Generous initial lock-hold estimate; settled to the actual commit time.
  SimTime lock_hold_estimate_us = 1 * kUsPerSec;
};

/// One WattDB cluster node: Atom-class hardware plus the node-local DBMS
/// services — buffer pool, WAL, and the transactional record operations it
/// performs as the owner of its partitions. All operations thread simulated
/// time through the Txn's private clock and tally the component times that
/// feed the Fig. 7 breakdown.
class Node {
 public:
  Node(NodeId id, const hw::NodeHardwareSpec& hw_spec,
       const storage::BufferSpec& buffer_spec, const NodeCostConfig& costs,
       tx::CcScheme cc, DiskId first_disk_id,
       storage::SegmentManager* segments, tx::TransactionManager* tm,
       hw::Network* network, storage::BufferManager::DiskResolver resolver);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  bool IsMaster() const { return id_.value() == 0; }

  hw::NodeHardware& hardware() { return hw_; }
  const hw::NodeHardware& hardware() const { return hw_; }
  /// Cluster-owned worker lanes; when the lane policy is enabled, CPU work
  /// on a known segment is charged to the segment's lane instead of the
  /// shared core pool (shared-nothing intra-node parallelism).
  void set_lane_manager(lanes::LaneManager* lanes) { lanes_ = lanes; }
  /// Routed range covering (table, key), injected by the cluster. Bounds
  /// the key range a lazily materialized segment claims in the top index:
  /// without it the first insert claims [kMinKey, kMaxKey), and a segment
  /// claiming keys its partition never owned poisons every consumer that
  /// treats segment ranges as ownership (replica routes, partition-heal
  /// reconciliation, promotion fencing).
  void set_route_bound_fn(std::function<KeyRange(TableId, Key)> fn) {
    route_bound_ = std::move(fn);
  }
  storage::BufferManager& buffer() { return buffer_; }
  tx::LogManager& log() { return *log_; }
  void set_cc_scheme(tx::CcScheme cc) { cc_ = cc; }
  const NodeCostConfig& costs() const { return costs_; }

  bool IsActive() const {
    return hw_.power_state() == hw::PowerState::kActive;
  }

  // --- Transactional record operations (this node must own `part`) -------

  /// Point read under the transaction's snapshot (MVCC) or S lock (MGL-RX).
  Status Read(tx::Txn* txn, catalog::Partition* part, Key key,
              storage::Record* out);

  /// Insert a new record; allocates/splits segments as needed.
  Status Insert(tx::Txn* txn, catalog::Partition* part, Key key,
                const std::vector<uint8_t>& payload);

  /// Update the record's payload.
  Status Update(tx::Txn* txn, catalog::Partition* part, Key key,
                const std::vector<uint8_t>& payload);

  /// Delete the record (old snapshots keep seeing it via the chain).
  Status Delete(tx::Txn* txn, catalog::Partition* part, Key key);

  /// Visit visible records with keys in [range.lo, range.hi). Records
  /// deleted from pages but visible to this snapshot are merged in from the
  /// version chains (order is per-segment).
  Status ScanRange(tx::Txn* txn, catalog::Partition* part,
                   const KeyRange& range,
                   const std::function<bool(const storage::Record&)>& fn);

  /// Write the commit record to the WAL and advance the txn to durability.
  Status LogCommit(tx::Txn* txn);

  /// Apply MVCC undo entries to pages after an abort. `resolve` maps
  /// (table, key) to the partition currently holding the key.
  void ApplyUndo(
      const std::vector<tx::VersionStore::UndoEntry>& undo,
      const std::function<catalog::Partition*(TableId, Key)>& resolve);

  /// Redo-recover partition contents from a log tail (used by recovery
  /// tests; §4.3: the log reconstructs partitions).
  Status RedoInto(catalog::Partition* part,
                  const std::vector<tx::LogRecord>& tail);

  // --- Segment plumbing used by migration -------------------------------

  /// Create a fresh segment on this node's least-loaded disk and attach it
  /// to `part` covering `range`.
  StatusOr<storage::Segment*> AllocateSegment(SimTime now,
                                              catalog::Partition* part,
                                              const KeyRange& range);

  /// The segment that should receive an insert of `key`, allocating or
  /// tail-splitting as necessary. `txn` may be null (bulk load, redo
  /// recovery) — costs then go unaccounted.
  StatusOr<storage::Segment*> SegmentForInsert(SimTime now, tx::Txn* txn,
                                               catalog::Partition* part,
                                               Key key);

  /// SSD to place a new data segment on (HDD is reserved for the WAL).
  hw::Disk* DataDisk(SimTime now);

  // --- Charges on behalf of a transaction (also used by exec operators) --

  /// Charge CPU work in 4 ms timeslices (so concurrent transactions share
  /// the cores instead of demanding one contiguous reservation): queueing +
  /// service on this node's core pool — or, when the lane policy is on and
  /// the work targets a known segment, on that segment's worker lane (its
  /// private execution timeline). Ops on different lanes never queue
  /// behind each other; ops on one lane serialize, which is exactly the
  /// shared-nothing contract.
  void ChargeCpu(tx::Txn* txn, SimTime service_us,
                 storage::Segment* seg = nullptr);
  /// Fetch a page on behalf of `txn`, folding component times into it.
  void FetchPage(tx::Txn* txn, SegmentId seg, uint16_t page, bool for_write);

 private:
  /// Index-probe service time against `seg`'s index structure (nullptr:
  /// the B+-tree baseline cost).
  SimTime ProbeCost(const storage::Segment* seg) const;
  /// Acquire a lock on behalf of `txn`, folding wait time into it.
  void AcquireLock(tx::Txn* txn, const tx::LockResource& res,
                   tx::LockMode mode);
  /// Read-modify-write of an existing record under Update/Delete:
  /// `after` is the new payload, or null to delete the record.
  Status Rewrite(tx::Txn* txn, catalog::Partition* part, Key key,
                 const std::vector<uint8_t>* after);
  /// Locks taken before reading/writing one record, per CC scheme.
  void LockForRead(tx::Txn* txn, catalog::Partition* part, Key key);
  void LockForWrite(tx::Txn* txn, catalog::Partition* part, Key key);
  void AppendWal(tx::Txn* txn, tx::LogRecordType type,
                 catalog::Partition* part, Key key,
                 const std::vector<uint8_t>* after);

  NodeId id_;
  NodeCostConfig costs_;
  tx::CcScheme cc_;
  hw::NodeHardware hw_;
  storage::BufferManager buffer_;
  std::unique_ptr<tx::LogManager> log_;
  storage::SegmentManager* segments_;
  tx::TransactionManager* tm_;
  hw::Network* network_;
  lanes::LaneManager* lanes_ = nullptr;
  std::function<KeyRange(TableId, Key)> route_bound_;
};

}  // namespace wattdb::cluster

#endif  // WATTDB_CLUSTER_NODE_H_
