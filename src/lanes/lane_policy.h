#ifndef WATTDB_LANES_LANE_POLICY_H_
#define WATTDB_LANES_LANE_POLICY_H_

#include "common/types.h"

namespace wattdb::lanes {

/// Intra-node parallel data plane (KVell-style): each node hosts
/// `lanes_per_node` shared-nothing worker lanes, each an independent
/// `sim::Resource` execution timeline owning a shard of the node's
/// segments. A single-segment op runs entirely on its owning lane —
/// lock-free by construction, no cross-lane coordination — and cross-lane
/// batches group per lane and run the groups in parallel, exactly how
/// `RoutedMulti*` groups per owner node one level up.
///
/// Default-off: with `enabled == false` every node keeps charging its CPU
/// core pool and nothing else in the system changes. Validated at
/// Db::Open even when disabled (the repo-wide policy convention).
struct LanePolicy {
  bool enabled = false;

  /// Worker lanes per node. 1 is a legal (serial) configuration and the
  /// natural sweep baseline.
  int lanes_per_node = 4;

  /// Intra-node lane balancing: when the master's heat tier fires on a
  /// node, re-lane hot segments between that node's lanes (cheap, no
  /// network) before considering a cross-node move.
  bool balance_lanes = true;
  /// Hottest lane vs mean lane heat before re-laning is worthwhile.
  double lane_trigger_ratio = 1.5;
  /// Per-segment cooldown between re-lanes, against lane ping-pong.
  SimTime relane_cooldown = 10 * kUsPerSec;
};

}  // namespace wattdb::lanes

#endif  // WATTDB_LANES_LANE_POLICY_H_
