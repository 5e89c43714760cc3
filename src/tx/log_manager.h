#ifndef WATTDB_TX_LOG_MANAGER_H_
#define WATTDB_TX_LOG_MANAGER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.h"
#include "hw/disk.h"
#include "hw/network.h"
#include "tx/transaction.h"

namespace wattdb::tx {

enum class LogRecordType : uint8_t {
  kBegin,
  kInsert,
  kUpdate,
  kDelete,
  kCommit,
  kAbort,
  kCheckpoint,  ///< Written when a partition move completes (§4.3 Logging).
};

/// Insert, update or delete: the records redo re-applies.
inline bool IsDataRecord(LogRecordType type) {
  return type == LogRecordType::kInsert || type == LogRecordType::kUpdate ||
         type == LogRecordType::kDelete;
}

/// A write-ahead log record. After-images are retained so node-local redo
/// recovery can reconstruct partitions (§4.3: "the log file is needed to
/// reconstruct partitions and to perform appropriate UNDO and REDO").
struct LogRecord {
  uint64_t lsn = 0;
  LogRecordType type = LogRecordType::kBegin;
  TxnId txn;
  TableId table;
  PartitionId partition;
  Key key = 0;
  std::vector<uint8_t> after_image;
  /// Approximate serialized size for I/O costing.
  size_t Bytes() const { return 48 + after_image.size(); }
};

/// Per-node write-ahead log (§4.3 Logging). Appends normally pay a
/// sequential write on the node's log disk; when a helper node is attached
/// (Fig. 8's improved rebalancing), appends are shipped over the network to
/// the helper instead, relieving the local storage subsystem.
class LogManager {
 public:
  LogManager(NodeId node, hw::Disk* log_disk, hw::Network* network);

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Append a record at simulated time `now`; returns the time the record
  /// is durable (on disk or at the helper).
  SimTime Append(SimTime now, LogRecord record);

  /// Charge log-volume I/O without materializing records (used by the
  /// migration cost scale-up: each materialized record stands for many
  /// paper-scale records whose log volume must still hit the disk/helper).
  /// The one write path, Append's too: shipped to the helper's disk while
  /// one is attached, else appended to the local log disk.
  SimTime ChargeBytes(SimTime now, size_t bytes);

  /// Redirect appends to `helper` (log shipping via the network), persisted
  /// on `helper_disk`, which must not be null.
  void AttachHelper(NodeId helper, hw::Disk* helper_disk);

  /// Graceful detach (helper is alive, e.g. DetachHelpers powering it
  /// down): the log tail shipped since attach lives only on the helper's
  /// disk, so it is read back there, shipped over the network, and
  /// appended to the local log disk before the redirect is dropped.
  /// Returns the time local durability is restored (`now` when nothing
  /// was shipped). Detaching mid-append is safe: every record appended so
  /// far is counted in the held tail, whether or not its own durability
  /// time has passed yet.
  SimTime DetachHelper(SimTime now);

  /// Detach after the helper *crashed*: its disk (and the shipped tail's
  /// only durable copy) is gone. The tail is re-forced from the in-memory
  /// log buffer to the local disk — commits were acknowledged at ship
  /// time, so the force must happen now, not lazily. Returns the time the
  /// local re-force completes.
  SimTime DetachHelperLost(SimTime now);

  bool HasHelper() const { return helper_node_.valid(); }

  /// Log bytes whose only durable copy currently sits on the helper's
  /// disk (shipped since attach, not yet re-localized).
  int64_t helper_held_bytes() const { return helper_held_bytes_; }

  /// Records with lsn > `from_lsn`, for recovery and tests.
  std::vector<LogRecord> Tail(uint64_t from_lsn) const;

  /// The redo tail of one partition: its records with lsn greater than its
  /// last `kCheckpoint` record (a completed partition move acts as a
  /// checkpoint, §4.3 — everything before it is already durable in the
  /// moved segments). The whole log when no checkpoint names the partition;
  /// empty when nothing was logged after the checkpoint.
  std::vector<LogRecord> TailAfter(PartitionId partition) const;

  /// LSN of the last `kCheckpoint` record naming `partition` (0 if none) —
  /// the redo lower bound used by TailAfter.
  uint64_t LastCheckpointLsn(PartitionId partition) const;

  /// Charge a sequential read of `bytes` from wherever the log lives (the
  /// local log disk, or the helper's disk while shipping): the I/O cost of
  /// scanning the tail during crash recovery.
  SimTime ChargeReplayRead(SimTime now, size_t bytes);

  const std::vector<LogRecord>& records() const { return records_; }

  /// Truncate everything up to `lsn` (checkpointing after a partition move
  /// makes the old log obsolete, §4.3).
  void TruncateUpTo(uint64_t lsn);

  uint64_t next_lsn() const { return next_lsn_; }
  int64_t bytes_written() const { return bytes_written_; }

 private:
  /// Drop the helper redirect; returns the bytes it held.
  int64_t ResetHelper();

  NodeId node_;
  hw::Disk* log_disk_;
  hw::Network* network_;
  NodeId helper_node_;
  hw::Disk* helper_disk_ = nullptr;
  /// Bytes shipped to the current helper since AttachHelper.
  int64_t helper_held_bytes_ = 0;

  uint64_t next_lsn_ = 1;
  int64_t bytes_written_ = 0;
  std::vector<LogRecord> records_;
};

}  // namespace wattdb::tx

#endif  // WATTDB_TX_LOG_MANAGER_H_
