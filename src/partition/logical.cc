#include "partition/logical.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace wattdb::partition {

void LogicalPartitioning::ExecuteTask(const cluster::SegmentMove& task,
                                      std::function<void()> next) {
  catalog::Partition* src =
      cluster_->catalog().GetPartition(task.src_partition);
  if (src == nullptr || src->top_index().RangeOf(task.segment).Empty()) {
    next();
    return;
  }
  const PartitionId dst_id = BeginOwnershipMove(task, src, next);
  if (!dst_id.valid()) return;
  MoveBatch(task, dst_id, task.range.lo, std::move(next));
}

void LogicalPartitioning::MoveBatch(const cluster::SegmentMove& task,
                                    PartitionId dst_id, Key cursor,
                                    std::function<void()> next) {
  auto& cat = cluster_->catalog();
  catalog::Partition* src = cat.GetPartition(task.src_partition);
  catalog::Partition* dst = cat.GetPartition(dst_id);
  cluster::Node* src_node = cluster_->node(task.src_node);
  cluster::Node* dst_node = cluster_->node(task.dst_node);
  WATTDB_CHECK(src != nullptr && dst != nullptr);

  // A batch runs to completion inside one event, so a crash can only land
  // between batches: check endpoint liveness here and abandon the task if
  // either node died. The records moved by earlier batches stay reachable
  // through the BeginMove two-pointer entry, which is deliberately kept —
  // after the dead node restarts, reads resolve at the secondary again.
  if (!src_node->IsActive() || !dst_node->IsActive()) {
    Abandon(task, "endpoint crashed", next);
    return;
  }

  // One system transaction per batch: scan, delete at source, re-insert at
  // target. Records are locked X while moving — MVCC readers keep reading
  // old versions, MGL-RX readers block (the Fig. 3 contrast).
  tx::Txn* sys = cluster_->tm().Begin(cluster_->Now(), /*read_only=*/false,
                                      /*system=*/true);
  std::vector<storage::Record> batch;
  batch.reserve(config_.logical_batch_records);
  const Status scanned =
      src_node->ScanRange(sys, src, KeyRange{cursor, task.range.hi},
                          [&](const storage::Record& rec) {
                            batch.push_back(rec);
                            return batch.size() <
                                   config_.logical_batch_records;
                          });
  if (!scanned.ok()) {
    // Defensive: an unreadable source must abandon the task, never
    // finalize it (finalizing would flip routing away from unmoved data).
    cluster_->AbortTxn(sys);
    cluster_->tm().Release(sys->id);
    Abandon(task, "source scan failed: " + scanned.ToString(), next);
    return;
  }
  if (batch.empty()) {
    cluster_->tm().Commit(sys);
    cluster_->tm().Release(sys->id);
    if (cursor > task.range.lo) {
      // Sweep once more from the start: user transactions may have inserted
      // behind the cursor while the range was moving.
      MoveBatch(task, dst_id, task.range.lo, std::move(next));
      return;
    }
    FinalizeRange(task, dst_id);
    next();
    return;
  }

  size_t batch_bytes = 0;
  for (const auto& rec : batch) {
    const Status del = src_node->Delete(sys, src, rec.key);
    if (!del.ok()) continue;  // Deleted by a racing user txn; skip.
    batch_bytes += rec.StoredSize();
    // Ship the record to the target node.
    const SimTime shipped = cluster_->network().Transfer(
        sys->now, task.src_node, task.dst_node, rec.StoredSize());
    sys->net_us += shipped - sys->now;
    sys->AdvanceTo(shipped);
    const Status ins = dst_node->Insert(sys, dst, rec.key, rec.payload);
    if (!ins.ok()) {
      // Target unreachable (or refused) mid-batch: roll the whole batch
      // back — the deletes at the source and the inserts already applied at
      // the target are undone — and abandon the task.
      cluster_->AbortTxn(sys);
      cluster_->tm().Release(sys->id);
      Abandon(task, "batch rolled back: " + ins.ToString(), next);
      return;
    }
    ++stats_.records_moved;
  }
  stats_.bytes_shipped += static_cast<int64_t>(batch_bytes);

  // Cost scale-up: each materialized record stands for `cost_scale`
  // paper-scale records; keep the hardware (disks, network, CPUs, WAL)
  // busy for the difference and pace the migration accordingly.
  if (config_.cost_scale > 1.0) {
    const double extra = config_.cost_scale - 1.0;
    const size_t extra_bytes =
        static_cast<size_t>(static_cast<double>(batch_bytes) * extra);
    storage::Segment* seg = cluster_->segments().Get(task.segment);
    if (seg != nullptr && extra_bytes > 0) {
      hw::Disk* src_disk = cluster_->FindDisk(seg->disk());
      if (src_disk != nullptr) {
        sys->AdvanceTo(src_disk->AccessSequential(sys->now, extra_bytes));
      }
      sys->AdvanceTo(cluster_->network().Transfer(sys->now, task.src_node,
                                                  task.dst_node, extra_bytes));
      hw::Disk* dst_disk = dst_node->DataDisk(sys->now);
      sys->AdvanceTo(dst_disk->AccessSequential(sys->now, extra_bytes));
      // Per-record CPU (scan + delete + insert + index maintenance) and WAL
      // volume scale likewise; the slower of the two nodes paces the batch.
      const SimTime cpu_extra = static_cast<SimTime>(
          static_cast<double>(batch.size()) * extra *
          (src_node->costs().cpu_record_write_us * 2));
      const SimTime src_done =
          src_node->hardware().cpu().Acquire(sys->now, cpu_extra / 2);
      const SimTime dst_done =
          dst_node->hardware().cpu().Acquire(sys->now, cpu_extra / 2);
      sys->AdvanceTo(std::max(src_done, dst_done));
      sys->AdvanceTo(src_node->log().ChargeBytes(sys->now, extra_bytes));
    }
  }

  src_node->LogCommit(sys);
  cluster_->tm().Commit(sys);
  const Key next_cursor = batch.back().key + 1;
  const SimTime resume_at = sys->now;
  cluster_->tm().Release(sys->id);
  cluster_->events().ScheduleAt(
      resume_at, [this, task, dst_id, next_cursor, next = std::move(next)]() {
        MoveBatch(task, dst_id, next_cursor, next);
      });
}

void LogicalPartitioning::FinalizeRange(const cluster::SegmentMove& task,
                                        PartitionId dst_id) {
  auto& cat = cluster_->catalog();
  catalog::Partition* src = cat.GetPartition(task.src_partition);
  WATTDB_CHECK(cat.CompleteMove(task.table, task.range, dst_id).ok());
  // The drained segment is empty: detach and drop it.
  storage::Segment* seg = cluster_->segments().Get(task.segment);
  if (seg != nullptr && src != nullptr &&
      !src->top_index().RangeOf(task.segment).Empty()) {
    if (seg->record_count() == 0) {
      WATTDB_CHECK(cluster_->node(task.src_node)
                       ->DiscardSegment(src, task.segment)
                       .ok());
    }
  }
  if (src != nullptr) {
    src->set_forward_to(PartitionId::Invalid());
    src->set_state(catalog::PartitionState::kNormal);
  }
  ++stats_.segments_moved;
}

}  // namespace wattdb::partition
