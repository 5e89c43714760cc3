#ifndef WATTDB_CLUSTER_MONITOR_H_
#define WATTDB_CLUSTER_MONITOR_H_

#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace wattdb::cluster {

class Cluster;

/// Utilization snapshot of one node over a sampling window. Nodes report
/// these "every few seconds" to the master (§3.4), which correlates them
/// with per-partition activity to locate the source of imbalance.
struct NodeStats {
  NodeId node;
  bool active = false;
  double cpu = 0.0;  ///< Core-pool utilization in [0, 1].
};

/// Per-segment activity since the previous sample (the "performance-
/// critical data collected for each DB partition", §3.4).
struct SegmentHeat {
  SegmentId segment;
  NodeId storage_node;
  int64_t reads = 0;
  int64_t writes = 0;
};

/// Outstanding admitted operations on one node, as sampled from the
/// cluster's admission controller. The master's overload detector and the
/// bench snapshots read these instead of poking the controller directly.
struct QueueDepthGauge {
  NodeId node;
  int64_t queued_ops = 0;
};

/// Per-lane roll-up on one node (lane policy on): the EWMA heat of the
/// segments mapped to the lane, and the lane's outstanding scheduled work.
/// The master's intra-node balancing tier ranks lanes by these.
struct LaneStats {
  int lane = 0;
  double heat = 0.0;       ///< Sum of mapped segments' EWMA heat.
  SimTime backlog_us = 0;  ///< Work scheduled beyond "now" on the lane.
};

/// Smoothed activity of one segment: an exponentially weighted moving
/// average of its access rate, attributed to the node currently storing it.
/// The master's BalancePolicy ranks segments and nodes by this value.
struct HeatEntry {
  SegmentId segment;
  NodeId node;        ///< Where the segment lives as of the last sample.
  double heat = 0.0;  ///< EWMA of (reads + writes) per second.
};

/// Computes utilization windows over the cluster's resource timelines.
class Monitor {
 public:
  explicit Monitor(Cluster* cluster) : cluster_(cluster) {}

  /// Stats for every node over [now - window, now).
  std::vector<NodeStats> Sample(SimTime window) const;

  /// Heat of every segment since the last call (counters are deltas).
  std::vector<SegmentHeat> SampleSegments();

  /// Fold one SampleSegments() window into the per-segment EWMA heat:
  /// heat' = alpha * rate + (1 - alpha) * heat, where rate is the segment's
  /// (reads + writes) / window. Segments no longer present decay toward
  /// zero and are dropped once negligible. Call once per control tick with
  /// the tick period as `window` (§3.4: the master correlates node reports
  /// with per-partition activity).
  void UpdateHeat(SimTime window, double alpha);

  /// Current per-segment heat, unordered.
  std::vector<HeatEntry> SegmentHeats() const;

  /// EWMA heat of one segment (0 if never seen).
  double HeatOf(SegmentId segment) const {
    auto it = heat_.find(segment);
    return it == heat_.end() ? 0.0 : it->second.heat;
  }

  /// Per-node roll-up: sum of the heat of the segments each node stores.
  std::unordered_map<NodeId, double> NodeHeats() const;

  /// Admission-queue depth of every *active* node as of now. Works whether
  /// or not shedding is enabled — the controller tracks depths regardless.
  std::vector<QueueDepthGauge> QueueDepths() const;

  /// Per-lane heat/backlog roll-up for `node` (one entry per lane, in lane
  /// order). Empty when the lane policy is off. Heat of segments whose lane
  /// is not yet assigned (fresh, or just moved in from another node) is
  /// omitted — they join a lane on first access.
  std::vector<LaneStats> LaneStatsFor(NodeId node) const;

 private:
  Cluster* cluster_;
  std::vector<std::pair<SegmentId, std::pair<int64_t, int64_t>>> last_counts_;
  std::unordered_map<SegmentId, HeatEntry> heat_;
};

}  // namespace wattdb::cluster

#endif  // WATTDB_CLUSTER_MONITOR_H_
