#include "admission/admission.h"

#include <algorithm>
#include <string>

namespace wattdb::admission {

void AdmissionController::Prune(NodeQueue* q, SimTime now) {
  while (!q->completions.empty() && q->completions.top().first <= now) {
    q->outstanding -= q->completions.top().second;
    q->completions.pop();
  }
}

Status AdmissionController::Admit(NodeId node, OpClass cls, SimTime now,
                                  int ops) {
  NodeQueue& q = queues_[node];
  Prune(&q, now);
  if (policy_.enabled) {
    // The batch class only sees a slice of the queue: once depth crosses
    // kBatchShare * cap the remaining headroom is reserved for
    // latency-sensitive ops, so shedding hits the cheap class first.
    const int64_t full_cap = std::max(1, policy_.max_queue_ops);
    const int64_t batch_cap = std::max<int64_t>(
        1, static_cast<int64_t>(kBatchShare * static_cast<double>(full_cap)));
    const int64_t cap = cls == OpClass::kBatch ? batch_cap : full_cap;
    if (q.outstanding + ops > cap) {
      shed_[static_cast<int>(cls)] += 1;
      return Status::ResourceExhausted(
          "node " + std::to_string(node.value()) + " admission queue full (" +
          std::to_string(q.outstanding) + " outstanding + " +
          std::to_string(ops) + " > cap " + std::to_string(cap) + " for " +
          ToString(cls) + " class)");
    }
  }
  admitted_[static_cast<int>(cls)] += 1;
  return Status::OK();
}

void AdmissionController::Complete(NodeId node, SimTime completion, int ops) {
  NodeQueue& q = queues_[node];
  q.completions.push({completion, ops});
  q.outstanding += ops;
}

int64_t AdmissionController::QueueDepth(NodeId node, SimTime now) const {
  auto it = queues_.find(node);
  if (it == queues_.end()) return 0;
  Prune(&it->second, now);
  return it->second.outstanding;
}

}  // namespace wattdb::admission
