#ifndef WATTDB_STORAGE_SEGMENT_H_
#define WATTDB_STORAGE_SEGMENT_H_

#include <memory>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "common/types.h"
#include "index/record_index.h"
#include "storage/free_space_tree.h"
#include "storage/page.h"
#include "storage/record.h"

namespace wattdb::storage {

/// A 32 MB unit of storage and of migration (§4, Fig. 4): up to 4096 pages
/// plus — key to physiological partitioning — a segment-local primary-key
/// B+-tree over exactly the records it stores. Moving the segment between
/// nodes never invalidates this index; only the partitions' top indexes need
/// updating (§4.3).
///
/// The segment also records where its bytes physically live (node + disk),
/// which the buffer manager uses to decide between local disk I/O and a
/// remote fetch (the physical-partitioning penalty).
class Segment {
 public:
  /// A lane value of kLaneUnassigned means "not yet sharded": the node's
  /// LaneManager assigns one lazily on first access and a cross-node move
  /// resets it (the destination node re-lanes by its own map).
  static constexpr int kLaneUnassigned = -1;

  Segment(SegmentId id, NodeId storage_node, DiskId disk,
          index::IndexKind index_kind = index::IndexKind::kBTree);

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  SegmentId id() const { return id_; }

  /// Node whose disk holds the bytes (may differ from the owning partition's
  /// node under physical partitioning).
  NodeId storage_node() const { return storage_node_; }
  DiskId disk() const { return disk_; }
  void Relocate(NodeId node, DiskId disk) {
    storage_node_ = node;
    disk_ = disk;
    // The lane shard is a per-node notion: after a cross-node move the
    // destination's LaneManager assigns a fresh lane on first access.
    lane_ = kLaneUnassigned;
  }

  /// Worker lane owning this segment on its storage node (intra-node
  /// shared-nothing sharding), or kLaneUnassigned.
  int lane() const { return lane_; }
  void set_lane(int lane) { lane_ = lane; }

  /// Insert a record. Fails with ResourceExhausted when all 4096 pages are
  /// full, AlreadyExists on duplicate key.
  StatusOr<RecordPos> Insert(Key key, const std::vector<uint8_t>& payload);

  /// Latest stored record for `key`.
  StatusOr<Record> Read(Key key) const;
  /// Record at a known position (index-free access for scans).
  StatusOr<Record> ReadAt(RecordPos pos) const;

  /// Overwrite the payload of `key`. May relocate the record within the
  /// segment if it grew; the local index is kept consistent.
  Status Update(Key key, const std::vector<uint8_t>& payload);
  /// Update of the record `key` already found at `pos` by Locate, without a
  /// second index lookup.
  Status UpdateAt(RecordPos pos, Key key, const std::vector<uint8_t>& payload);

  Status Delete(Key key);
  /// Delete of the record `key` already found at `pos` by Locate.
  Status DeleteAt(RecordPos pos, Key key);

  bool Contains(Key key) const { return pk_index_->Contains(key); }
  StatusOr<RecordPos> Locate(Key key) const;

  /// Visit records with keys in [lo, hi) in key order; fn returns false to
  /// stop. Returns number visited.
  size_t ScanRange(Key lo, Key hi,
                   const std::function<bool(const Record&)>& fn) const;
  /// As above, with each record's position as the index scan found it.
  size_t ScanRange(
      Key lo, Key hi,
      const std::function<bool(const Record&, RecordPos)>& fn) const;

  /// Visit every record in key order.
  size_t ScanAll(const std::function<bool(const Record&)>& fn) const;

  size_t record_count() const { return pk_index_->size(); }
  /// Number of materialized pages.
  size_t page_count() const { return pages_.size(); }

  /// Bytes of live record bodies across all pages.
  size_t LiveBytes() const;
  /// Bytes this segment occupies on disk (whole pages).
  size_t DiskBytes() const { return pages_.size() * kPageSize; }
  /// Heap bytes of the segment-local index.
  size_t IndexBytes() const { return pk_index_->MemoryBytes(); }

  /// Structure backing the segment-local index, and its relative point-
  /// probe cost (the CPU model scales cpu_index_probe_us by this).
  index::IndexKind index_kind() const { return pk_index_->kind(); }
  double probe_cost_factor() const { return pk_index_->probe_cost_factor(); }

  /// Smallest/largest key present (0/0 when empty).
  Key MinKey() const;
  Key MaxKey() const;

  /// Access statistics for the master's hot-segment detection.
  int64_t reads() const { return reads_; }
  int64_t writes() const { return writes_; }
  void ResetStats() { reads_ = writes_ = 0; }
  /// Restore counters to a snapshot. Crash recovery uses this to unwind
  /// the bumps of redo replay — administrative I/O that the heat monitor
  /// must not mistake for workload (a freshly-recovered node would
  /// otherwise look like the hottest in the cluster).
  void SetStats(int64_t reads, int64_t writes) {
    reads_ = reads;
    writes_ = writes;
  }

  /// Index consistency: every index entry resolves to a live record with the
  /// same key, and counts match.
  bool CheckInvariants() const;

 private:
  /// Where a record of `record_size` bytes goes: the first page at or
  /// after the insert cursor with room, else pages_.size() (a page still to
  /// add), else FreeSpaceTree::kNone (the segment is full).
  size_t PlaceFor(size_t record_size) const;
  bool HasRoomFor(size_t record_size) const {
    return PlaceFor(record_size) != FreeSpaceTree::kNone;
  }
  /// The page PlaceFor picks, added if new (nullptr when full); advances
  /// the insert cursor.
  Page* PageWithRoom(size_t record_size, uint16_t* out_idx);
  /// Bring page `idx`'s leaf in free_space_ up to date after it changed.
  void RefreshFreeSpace(size_t idx) {
    free_space_.Set(idx, pages_[idx]->FreeSpace());
  }

  SegmentId id_;
  NodeId storage_node_;
  DiskId disk_;
  int lane_ = kLaneUnassigned;
  std::vector<std::unique_ptr<Page>> pages_;
  /// Every page's FreeSpace(), kept current by each page mutation.
  FreeSpaceTree free_space_;
  std::unique_ptr<index::RecordIndex> pk_index_;
  /// Inserts look for room at or after this page. It moves only past
  /// leading pages with too little space for even a small record.
  size_t insert_cursor_ = 0;
  mutable int64_t reads_ = 0;
  int64_t writes_ = 0;
};

}  // namespace wattdb::storage

#endif  // WATTDB_STORAGE_SEGMENT_H_
