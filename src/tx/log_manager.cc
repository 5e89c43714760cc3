#include "tx/log_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::tx {

LogManager::LogManager(NodeId node, hw::Disk* log_disk, hw::Network* network)
    : node_(node), log_disk_(log_disk), network_(network) {
  WATTDB_CHECK(log_disk_ != nullptr);
}

SimTime LogManager::Append(SimTime now, LogRecord record) {
  record.lsn = next_lsn_++;
  const size_t bytes = record.Bytes();
  records_.push_back(std::move(record));
  return ChargeBytes(now, bytes);
}

SimTime LogManager::ChargeBytes(SimTime now, size_t bytes) {
  bytes_written_ += static_cast<int64_t>(bytes);
  if (!helper_node_.valid()) return log_disk_->AccessAppend(now, bytes);
  // Log shipping: the bytes travel to the helper and are persisted on the
  // helper's disk; the local log disk stays idle (Fig. 8 setup).
  helper_held_bytes_ += static_cast<int64_t>(bytes);
  const SimTime arrived = network_->Transfer(now, node_, helper_node_, bytes);
  return helper_disk_->AccessAppend(arrived, bytes);
}

void LogManager::AttachHelper(NodeId helper, hw::Disk* helper_disk) {
  WATTDB_CHECK(helper.valid() && helper_disk != nullptr);
  helper_node_ = helper;
  helper_disk_ = helper_disk;
  helper_held_bytes_ = 0;
}

int64_t LogManager::ResetHelper() {
  const int64_t held = helper_held_bytes_;
  helper_node_ = NodeId::Invalid();
  helper_disk_ = nullptr;
  helper_held_bytes_ = 0;
  return held;
}

SimTime LogManager::DetachHelper(SimTime now) {
  hw::Disk* held_on = helper_disk_;
  const NodeId held_at = helper_node_;
  const int64_t held = ResetHelper();
  if (held <= 0) return now;
  // Everything shipped since attach is durable only at the helper; before
  // the helper is released (typically to be powered off), that tail must
  // come home: sequential read there, network hop back, local append.
  const size_t bytes = static_cast<size_t>(held);
  const SimTime read_done = held_on->AccessSequential(now, bytes);
  const SimTime arrived = network_->Transfer(read_done, held_at, node_, bytes);
  return log_disk_->AccessAppend(arrived, bytes);
}

SimTime LogManager::DetachHelperLost(SimTime now) {
  const int64_t held = ResetHelper();
  if (held <= 0) return now;
  // The helper's disk is gone and with it the shipped tail's only durable
  // copy. The records still sit in this node's in-memory log buffer
  // (records_), and their commits were acknowledged — re-force them to the
  // local log disk immediately to restore durability.
  return log_disk_->AccessAppend(now, static_cast<size_t>(held));
}

std::vector<LogRecord> LogManager::Tail(uint64_t from_lsn) const {
  std::vector<LogRecord> out;
  for (const LogRecord& r : records_) {
    if (r.lsn > from_lsn) out.push_back(r);
  }
  return out;
}

uint64_t LogManager::LastCheckpointLsn(PartitionId partition) const {
  uint64_t lsn = 0;
  for (const LogRecord& r : records_) {
    if (r.type == LogRecordType::kCheckpoint && r.partition == partition) {
      lsn = r.lsn;
    }
  }
  return lsn;
}

std::vector<LogRecord> LogManager::TailAfter(PartitionId partition) const {
  const uint64_t from_lsn = LastCheckpointLsn(partition);
  std::vector<LogRecord> out;
  for (const LogRecord& r : records_) {
    if (r.lsn > from_lsn && r.partition == partition) out.push_back(r);
  }
  return out;
}

SimTime LogManager::ChargeReplayRead(SimTime now, size_t bytes) {
  if (bytes == 0) return now;
  if (helper_node_.valid()) {
    // The log lives at the helper: read it there and ship it back.
    const SimTime read_done = helper_disk_->AccessSequential(now, bytes);
    return network_->Transfer(read_done, helper_node_, node_, bytes);
  }
  return log_disk_->AccessSequential(now, bytes);
}

void LogManager::TruncateUpTo(uint64_t lsn) {
  records_.erase(
      std::remove_if(records_.begin(), records_.end(),
                     [&](const LogRecord& r) { return r.lsn <= lsn; }),
      records_.end());
}

}  // namespace wattdb::tx
