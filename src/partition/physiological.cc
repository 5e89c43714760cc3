#include "partition/physiological.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::partition {

namespace {
/// How long the source keeps forwarding after a move (old readers drain).
constexpr SimTime kForwardWindow = 5 * kUsPerSec;
}  // namespace

SimTime PhysiologicalPartitioning::EstimateCopyUs(size_t bytes) const {
  // Pipeline estimate: each chunk pays read + ship + write sequentially.
  const double disk_bw = 100e6;  // Conservative HDD-class floor.
  const double net_bw = cluster_->network().spec().link_bandwidth_bps;
  const double secs = static_cast<double>(bytes) *
                      (1.0 / disk_bw + 1.0 / net_bw + 1.0 / disk_bw);
  const size_t chunks = bytes / config_.copy_chunk_bytes + 1;
  return FromSeconds(secs) +
         static_cast<SimTime>(chunks) *
             cluster_->network().spec().message_latency_us;
}

void PhysiologicalPartitioning::ExecuteTask(const cluster::SegmentMove& task,
                                            std::function<void()> next) {
  auto& cat = cluster_->catalog();
  catalog::Partition* src = cat.GetPartition(task.src_partition);
  storage::Segment* seg = cluster_->segments().Get(task.segment);
  if (src == nullptr || seg == nullptr ||
      src->top_index().RangeOf(task.segment).Empty()) {
    // Segment already moved or dropped; skip.
    next();
    return;
  }
  if (!cluster_->node(task.src_node)->IsActive() ||
      !cluster_->node(task.dst_node)->IsActive()) {
    // An endpoint died between planning and execution: abandon before
    // registering anything with the master.
    Abandon(task, "endpoint down", next);
    return;
  }
  // (1) Master: two-pointer routing entry; source forwards stragglers.
  const PartitionId dst_id = BeginOwnershipMove(task, src, next);
  if (!dst_id.valid()) return;

  // (2) Read lock on the source partition: waits for in-flight writers to
  // commit ("updating transactions need to commit before the lock is
  // granted", §4.3); MVCC readers are unaffected.
  tx::Txn* sys = cluster_->tm().Begin(cluster_->Now(), /*read_only=*/false,
                                      /*system=*/true);
  // Lock-hold fidelity: the cost stream below may represent cost_scale
  // paper-scale segments, but the paper locks one 32 MB segment's partition
  // at a time — so this partition's writers are drained for one *real*
  // segment copy, while the scaled stream keeps the hardware busy for the
  // full data volume.
  const SimTime lock_window = EstimateCopyUs(seg->DiskBytes());
  const tx::LockGrant grant = cluster_->tm().locks().Acquire(
      tx::LockResource::Partition(task.src_partition), tx::LockMode::kS,
      sys->id, sys->now, sys->now + lock_window);
  sys->lock_wait_us += grant.waited_us;
  sys->AdvanceTo(grant.granted_at);
  // Release (settle) the partition read lock after the real copy window.
  const TxnId sys_id = sys->id;
  cluster_->events().ScheduleAt(
      grant.granted_at + lock_window, [this, sys_id]() {
        tx::Txn* sys = cluster_->tm().Get(sys_id);
        if (sys == nullptr) return;
        sys->AdvanceTo(cluster_->Now());
        cluster_->tm().Commit(sys);
        cluster_->tm().Release(sys_id);
      });
  cluster_->events().ScheduleAt(grant.granted_at, [this, task, dst_id, sys_id,
                                                   next = std::move(next)]() {
    storage::Segment* seg = cluster_->segments().Get(task.segment);
    WATTDB_CHECK(seg != nullptr);
    // (3) Stream the segment (pages + its local PK index go verbatim).
    StreamBytes(task.segment, task.src_node, task.dst_node, seg->DiskBytes(),
                [this, task, dst_id, sys_id,
                 next = std::move(next)](hw::Disk* dst_disk) {
                  auto& cat = cluster_->catalog();
                  catalog::Partition* src = cat.GetPartition(task.src_partition);
                  catalog::Partition* dst = cat.GetPartition(dst_id);
                  storage::Segment* seg = cluster_->segments().Get(task.segment);
                  const SimTime now = cluster_->Now();

                  if (dst_disk == nullptr) {
                    // Source or target crashed mid-copy. Nothing installed:
                    // the segment (and every committed record in it) is
                    // still wholly at the source, so the move is simply
                    // rolled off the master's books (§4.3 two-pointer entry
                    // removed) and the source partition reopens to writers.
                    WATTDB_CHECK(
                        cat.AbortMove(task.table, task.range, dst_id).ok());
                    if (src != nullptr) {
                      src->set_forward_to(PartitionId::Invalid());
                      src->set_state(catalog::PartitionState::kNormal);
                    }
                    Abandon(task, "endpoint crashed mid-copy", next);
                    return;
                  }

                  // (4) Install: only the two top indexes change (§4.3 —
                  // "moving a segment ... does not invalidate the
                  // primary-key index of the segment").
                  WATTDB_CHECK(src->DetachSegment(task.segment).ok());
                  WATTDB_CHECK(dst->AttachSegment(task.range, task.segment).ok());
                  WATTDB_CHECK(cluster_->segments()
                                   .Relocate(task.segment, task.dst_node,
                                             dst_disk->id())
                                   .ok());
                  cluster_->node(task.src_node)
                      ->buffer()
                      .InvalidateSegment(task.segment);

                  // Checkpoint records on both logs: the move acts as a
                  // checkpoint, the old log becomes obsolete for this data.
                  tx::LogRecord ckpt;
                  ckpt.type = tx::LogRecordType::kCheckpoint;
                  ckpt.partition = task.src_partition;
                  cluster_->node(task.src_node)->log().Append(now, ckpt);
                  ckpt.partition = dst_id;
                  cluster_->node(task.dst_node)->log().Append(now, ckpt);

                  // (5) Master flips routing (the partition read lock was
                  // settled at the end of its per-segment window).
                  WATTDB_CHECK(
                      cat.CompleteMove(task.table, task.range, dst_id).ok());

                  // Forwarding grace window for old readers (§4.3).
                  src->set_state(catalog::PartitionState::kForwarding);
                  const PartitionId src_id = task.src_partition;
                  cluster_->events().ScheduleAfter(
                      kForwardWindow, [this, src_id]() {
                        catalog::Partition* p =
                            cluster_->catalog().GetPartition(src_id);
                        if (p != nullptr &&
                            p->state() == catalog::PartitionState::kForwarding) {
                          p->set_state(catalog::PartitionState::kNormal);
                          p->set_forward_to(PartitionId::Invalid());
                        }
                      });

                  ++stats_.segments_moved;
                  stats_.records_moved +=
                      static_cast<int64_t>(seg->record_count());
                  next();
                });
  });
}

}  // namespace wattdb::partition
