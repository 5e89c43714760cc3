#ifndef WATTDB_ADMISSION_ADMISSION_H_
#define WATTDB_ADMISSION_ADMISSION_H_

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace wattdb::admission {

/// Priority class of one routed operation. When a node's admission queue
/// fills up, the cheap class is refused first: batch/scan traffic can be
/// retried at leisure, while a shed point lookup is a user-visible error.
enum class OpClass {
  kLatencySensitive = 0,  ///< Point ops of interactive transactions.
  kBatch = 1,             ///< Batch-priority transactions and all scans.
};

inline const char* ToString(OpClass cls) {
  return cls == OpClass::kBatch ? "batch" : "latency-sensitive";
}

/// Fraction of max_queue_ops available to the batch class: batch ops are
/// refused once depth reaches kBatchShare * max_queue_ops, so under
/// pressure the remaining headroom is reserved for latency-sensitive
/// traffic (shedding hits the cheap class first).
inline constexpr double kBatchShare = 0.5;

/// Consecutive overloaded control ticks before the master emits the
/// overload event and treats it as scale-out/balance pressure.
inline constexpr int kOverloadTriggerAfter = 2;

/// Per-node admission queue caps and the overload signal they feed the
/// master. Shedding refuses work with ResourceExhausted at the routing
/// layer — before any hop is charged or any node op runs — instead of
/// letting an open-loop arrival process grow a node's queue without bound.
/// Validated at Db::Open even when disabled, like BalancePolicy and
/// ReplicaPolicy: a typo'd knob must fail the first time the options are
/// used, not when shedding is eventually switched on.
struct AdmissionPolicy {
  /// Refuse work once a node's outstanding-op queue is full. Off by
  /// default: queue depths are still *tracked* (the Monitor's gauges and
  /// the bench snapshots work either way), nothing is refused.
  bool enabled = false;
  /// Per-node cap on outstanding admitted ops (queued + executing). The
  /// latency-sensitive class is admitted up to this depth.
  int max_queue_ops = 256;
  /// A node whose depth reaches overload_ratio * max_queue_ops counts as
  /// overloaded in the master's control tick.
  double overload_ratio = 0.75;
};

/// Tracks every node's outstanding admitted operations and enforces the
/// policy's depth caps. One instance lives on the Cluster; the routing
/// layer (cluster/routed_ops) calls Admit before running an op (or an
/// owner-group of a batch) on a node and Complete once the op's simulated
/// completion time is known.
///
/// Time discipline: Admit/QueueDepth take the *global* event-loop time
/// (monotone), while Complete records the op's txn-private completion time
/// (always >= the global clock). Entries whose completion has passed the
/// global clock are pruned lazily, so depth is exact as of the current
/// event — a transaction's private clock running ahead never un-counts
/// work another arrival would still queue behind.
class AdmissionController {
 public:
  void set_policy(const AdmissionPolicy& policy) { policy_ = policy; }
  const AdmissionPolicy& policy() const { return policy_; }

  /// Admit `ops` operations of `cls` onto `node` as of global time `now`.
  /// ResourceExhausted (naming the node, depth, and cap) when the class's
  /// cap would be exceeded; always OK while the policy is disabled (the
  /// ops are still tracked so depth gauges stay live).
  Status Admit(NodeId node, OpClass cls, SimTime now, int ops = 1);

  /// Record that previously admitted ops leave `node`'s queue at
  /// `completion` (the issuing transaction's private clock after the op).
  void Complete(NodeId node, SimTime completion, int ops = 1);

  /// Outstanding admitted ops on `node` (queued + executing) as of global
  /// time `now`. The Monitor's per-node gauge.
  int64_t QueueDepth(NodeId node, SimTime now) const;

  // --- Counters (since construction) --------------------------------------
  // One Admit call = one decision: an owner-group of a batch counts once,
  // however many ops it carries.
  int64_t admitted(OpClass cls) const {
    return admitted_[static_cast<int>(cls)];
  }
  int64_t shed(OpClass cls) const { return shed_[static_cast<int>(cls)]; }
  int64_t shed_total() const {
    return shed_[0] + shed_[1];
  }

 private:
  /// Min-heap of (completion time, op count) per node; `outstanding` is the
  /// sum of counts still in the heap.
  struct NodeQueue {
    std::priority_queue<std::pair<SimTime, int64_t>,
                        std::vector<std::pair<SimTime, int64_t>>,
                        std::greater<std::pair<SimTime, int64_t>>>
        completions;
    int64_t outstanding = 0;
  };

  /// Drop entries whose completion time is <= `now`. `now` is the global
  /// event-loop clock, which is monotone — so pruning is destructive-safe.
  static void Prune(NodeQueue* q, SimTime now);

  AdmissionPolicy policy_;
  /// Mutable: QueueDepth is logically const but prunes lazily.
  mutable std::unordered_map<NodeId, NodeQueue> queues_;
  int64_t admitted_[2] = {0, 0};
  int64_t shed_[2] = {0, 0};
};

}  // namespace wattdb::admission

#endif  // WATTDB_ADMISSION_ADMISSION_H_
