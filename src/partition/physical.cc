#include "partition/physical.h"

#include "common/logging.h"

namespace wattdb::partition {

void PhysicalPartitioning::ExecuteTask(const cluster::SegmentMove& task,
                                       std::function<void()> next) {
  storage::Segment* seg = cluster_->segments().Get(task.segment);
  if (seg == nullptr || seg->storage_node() == task.dst_node) {
    next();
    return;
  }
  // No transactions, no catalog changes: "a lightweight latching mechanism,
  // locking segments on the move for a short time, is sufficient" (§4.1).
  // The maintenance pins inside StreamBytes model that latch pressure.
  StreamBytes(task.segment, task.src_node, task.dst_node, seg->DiskBytes(),
              [this, task, next = std::move(next)](hw::Disk* dst_disk) {
                if (dst_disk == nullptr) {
                  // An endpoint crashed mid-copy; the bytes stay where they
                  // were and the task is abandoned.
                  Abandon(task, "endpoint crashed mid-copy", next);
                  return;
                }
                storage::Segment* seg = cluster_->segments().Get(task.segment);
                WATTDB_CHECK(seg != nullptr);
                // Bytes now live on the target node; the owner is unchanged
                // and will fetch pages remotely from here on.
                WATTDB_CHECK(cluster_->segments()
                                 .Relocate(task.segment, task.dst_node,
                                           dst_disk->id())
                                 .ok());
                cluster_->node(task.src_node)
                    ->buffer()
                    .InvalidateSegment(task.segment);
                ++stats_.segments_moved;
                stats_.records_moved +=
                    static_cast<int64_t>(seg->record_count());
                next();
              });
}

}  // namespace wattdb::partition
