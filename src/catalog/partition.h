#ifndef WATTDB_CATALOG_PARTITION_H_
#define WATTDB_CATALOG_PARTITION_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "index/top_index.h"

namespace wattdb::catalog {

/// Lifecycle state of a partition during online repartitioning (§4.3).
enum class PartitionState {
  kNormal,
  /// The source of a completed physiological move, for a grace window. A
  /// placement gate only: the replica manager creates no replica of it,
  /// chaos settle waits for the window to close, the invariant audit flags
  /// a partition left in it, and crash recovery resets it.
  kForwarding,
};

/// A horizontal partition: the unit of ownership, integrity control, and
/// query evaluation (§4). It holds a *top index* mapping key ranges to the
/// segments (mini-partitions) attached to it. The owning node is
/// responsible for locking, logging, and buffering of all data reachable
/// from here.
class Partition {
 public:
  Partition(PartitionId id, TableId table, NodeId owner)
      : id_(id), table_(table), owner_(owner) {}

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  PartitionId id() const { return id_; }
  TableId table() const { return table_; }

  NodeId owner() const { return owner_; }
  void set_owner(NodeId owner) { owner_ = owner; }

  /// Warm standby of another partition's segments: never routed as a
  /// primary, skipped by heat/drain/scale planners and by crash redo (its
  /// content is reconstructed from the source, not from this node's log).
  bool is_replica() const { return is_replica_; }
  void set_is_replica(bool v) { is_replica_ = v; }

  /// Catalog epoch of the newest routing entry naming this partition as
  /// primary. A recovering node must present this epoch to reclaim its
  /// ranges; a promotion that happened while it was down carries a newer
  /// one, so the deposed owner cannot steal the route back (fencing).
  uint64_t route_epoch() const { return route_epoch_; }
  void set_route_epoch(uint64_t e) {
    if (e > route_epoch_) route_epoch_ = e;
  }

  PartitionState state() const { return state_; }
  void set_state(PartitionState s) { state_ = s; }

  index::TopIndex& top_index() { return top_index_; }
  const index::TopIndex& top_index() const { return top_index_; }

  /// Convenience: attach/detach segments in the top index.
  Status AttachSegment(const KeyRange& range, SegmentId seg) {
    return top_index_.Attach(range, seg);
  }
  Status DetachSegment(SegmentId seg) { return top_index_.Detach(seg); }

  SegmentId SegmentFor(Key key) const { return top_index_.Lookup(key); }
  std::vector<index::TopIndex::Entry> SegmentsInRange(const KeyRange& r) const {
    return top_index_.Intersecting(r);
  }

  size_t segment_count() const { return top_index_.size(); }

 private:
  PartitionId id_;
  TableId table_;
  NodeId owner_;
  PartitionState state_ = PartitionState::kNormal;
  bool is_replica_ = false;
  uint64_t route_epoch_ = 0;
  index::TopIndex top_index_;
};

}  // namespace wattdb::catalog

#endif  // WATTDB_CATALOG_PARTITION_H_
