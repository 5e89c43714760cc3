#ifndef WATTDB_STORAGE_BUFFER_MANAGER_H_
#define WATTDB_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "common/constants.h"
#include "common/types.h"
#include "hw/disk.h"
#include "hw/network.h"
#include "storage/segment_manager.h"

namespace wattdb::storage {

/// Tuning knobs of a node's buffer pool. The paper's nodes have 2 GB DRAM
/// against ~20 GB of data per node, so benches configure `capacity_pages` to
/// a comparable fraction of their (smaller) datasets.
struct BufferSpec {
  size_t capacity_pages = 4096;
  /// Base page-latch acquisition cost, charged on every access.
  SimTime latch_us = 2;
  /// CPU-side cost of serving a buffered page.
  SimTime hit_us = 3;
  /// Request message size for a remote page fetch.
  size_t remote_request_bytes = 64;
};

/// Outcome of a page access, with the component times the Fig. 7 breakdown
/// needs.
struct PageAccess {
  SimTime done = 0;        ///< Completion time.
  bool hit = false;        ///< Served from the local pool.
  bool remote_memory = false;  ///< Served from a helper node's rDMA tier.
  bool remote_disk = false;    ///< Segment bytes live on another node.
  SimTime disk_us = 0;
  SimTime net_us = 0;
  SimTime latch_us = 0;
};

/// Per-node page buffer. Pages are addressed as (segment, page-in-segment);
/// replacement is LRU. Dirty pages pay an asynchronous write-back to the
/// segment's disk upon eviction (the disk is kept busy but the evicting
/// request does not wait).
///
/// Two paper-specific behaviors:
///  * If a segment's bytes live on a *different* node (physical
///    partitioning after a move), a miss pays a network round trip plus the
///    remote disk's service time (§4.1's "multitudes higher" access cost).
///  * An optional remote-memory tier (helper nodes with rDMA, §5.2) absorbs
///    evictions; hits there cost a round trip but no disk access.
class BufferManager {
 public:
  using DiskResolver = std::function<hw::Disk*(DiskId)>;

  BufferManager(NodeId node, BufferSpec spec, SegmentManager* segments,
                hw::Network* network, DiskResolver disk_resolver);

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Access one page at simulated time `now`. `for_write` marks the frame
  /// dirty.
  PageAccess FetchPage(SimTime now, SegmentId seg, uint16_t page_idx,
                       bool for_write);

  /// Drop every cached frame of `seg` (after the segment migrated away).
  void InvalidateSegment(SegmentId seg);

  /// Attach a helper node's memory as an eviction tier (rDMA buffering).
  void AttachRemoteTier(NodeId helper, size_t capacity_pages);
  void DetachRemoteTier();
  bool HasRemoteTier() const { return remote_tier_node_.valid(); }

  /// Maintenance pins model buffer contention from rebalancing jobs: while
  /// pins are held, page latches cost more (queries pile up behind copy
  /// jobs, §5.2's latching/buffer observations).
  void AddMaintenancePins(int64_t pages) { maintenance_pins_ += pages; }
  void ReleaseMaintenancePins(int64_t pages) {
    maintenance_pins_ -= pages;
    if (maintenance_pins_ < 0) maintenance_pins_ = 0;
  }

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t remote_memory_hits() const { return remote_memory_hits_; }
  int64_t dirty_writebacks() const { return dirty_writebacks_; }
  size_t resident_pages() const { return frames_.size(); }

  NodeId node() const { return node_; }
  const BufferSpec& spec() const { return spec_; }

 private:
  struct FrameKey {
    SegmentId segment;
    uint16_t page;
    friend bool operator==(const FrameKey& a, const FrameKey& b) {
      return a.segment == b.segment && a.page == b.page;
    }
  };
  struct FrameKeyHash {
    size_t operator()(const FrameKey& k) const {
      return std::hash<SegmentId>()(k.segment) * 8191 + k.page;
    }
  };
  struct Frame {
    bool dirty = false;
    std::list<FrameKey>::iterator lru_it;
  };

  /// Current effective latch cost (inflated by maintenance pins).
  SimTime LatchCost() const;
  void EvictIfFull(SimTime now);
  void TouchLru(const FrameKey& key, Frame* frame);

  NodeId node_;
  BufferSpec spec_;
  SegmentManager* segments_;
  hw::Network* network_;
  DiskResolver disk_resolver_;

  std::unordered_map<FrameKey, Frame, FrameKeyHash> frames_;
  std::list<FrameKey> lru_;  // Front = most recent.

  // Helper-node remote memory tier (page identity only; bytes stay in the
  // functional Segment objects).
  NodeId remote_tier_node_;
  size_t remote_tier_capacity_ = 0;
  std::unordered_map<FrameKey, std::list<FrameKey>::iterator, FrameKeyHash>
      remote_tier_;
  std::list<FrameKey> remote_lru_;

  int64_t maintenance_pins_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t remote_memory_hits_ = 0;
  int64_t dirty_writebacks_ = 0;
};

}  // namespace wattdb::storage

#endif  // WATTDB_STORAGE_BUFFER_MANAGER_H_
