#ifndef WATTDB_CHAOS_HISTORY_H_
#define WATTDB_CHAOS_HISTORY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace wattdb::chaos {

/// What one recorded client operation did. kTxn entries are whole-
/// transaction markers from workloads whose transactions are not register
/// ops (TPC-C); the linearizability checker skips them, but they land in
/// history dumps so a violation's surroundings are visible.
enum class OpKind { kRead, kWrite, kDelete, kTxn };

/// How the operation ended, from the *client's* point of view — the only
/// view a history checker may trust.
enum class OpOutcome {
  /// The client got a definite success: a committed write took effect
  /// exactly once, a committed read's observation is authoritative.
  kOk,
  /// Definitely no effect: the op (or its transaction) was refused before
  /// reaching any record — admission shed, unavailable route — or was
  /// deliberately rolled back. Its value must never be observed.
  kFailed,
  /// The commit's fate is unknown (the fault may have landed after the
  /// commit point). The op may or may not have taken effect, and no
  /// response-time ordering can be asserted for it.
  kIndeterminate,
};

/// One operation of a concurrent history: invocation/response in simulated
/// time, the register op it performed, and its outcome. Payloads of the
/// history workload encode (key, seq), so `seq` identifies the value: for
/// writes the value written, for reads the value observed (0 = absent).
struct HistoryOp {
  uint64_t id = 0;
  int client = 0;
  OpKind kind = OpKind::kRead;
  Key key = 0;
  uint64_t seq = 0;
  OpOutcome outcome = OpOutcome::kOk;
  SimTime invoked_at = 0;
  /// For kIndeterminate ops this is when the client gave up, not when the
  /// effect (if any) landed — the checker treats their response as infinite.
  SimTime responded_at = 0;
  /// The read was served by a bounded-staleness warm replica, not the
  /// authoritative owner: it gets the relaxed visibility check instead of
  /// the strict register check.
  bool from_replica = false;
};

/// Collects the per-operation history of one scenario. Plain append-only
/// storage; ids are assigned in record order, which on the deterministic
/// event loop makes the whole history replayable bit-identically.
class HistoryRecorder {
 public:
  /// Append `op` (its id is assigned here) and return the id.
  uint64_t Record(HistoryOp op);

  /// Declare that `key` held the value `seq` before the recorded window
  /// opened (the workload's bulk load). Checked histories start from this
  /// state instead of from an empty register.
  void RecordInitial(Key key, uint64_t seq) { initial_[key] = seq; }

  const std::vector<HistoryOp>& ops() const { return ops_; }
  const std::map<Key, uint64_t>& initial() const { return initial_; }
  size_t size() const { return ops_.size(); }

 private:
  uint64_t next_id_ = 1;
  std::vector<HistoryOp> ops_;
  std::map<Key, uint64_t> initial_;
};

/// One linearizability (or replica-visibility) violation: the named
/// anomaly and the minimal failing sub-history that exhibits it — the
/// offending key's ops truncated at the earliest cut time where the search
/// already fails, so a report is diagnosable without replaying the seed.
struct HistoryViolation {
  std::string anomaly;
  Key key = 0;
  std::vector<HistoryOp> sub_history;
};

/// Outcome of checking one recorded history.
struct HistoryCheckResult {
  std::vector<HistoryViolation> violations;
  int keys_checked = 0;
  /// Keys whose Wing–Gong search exhausted its state budget; reported, not
  /// failed — a budget miss is a cost problem, never evidence of a bug.
  /// Expected to be 0 on the shipped chaos scenarios, where pruning the
  /// unobserved indeterminate writes keeps every key within budget.
  int keys_over_budget = 0;
  int64_t ops_checked = 0;
  /// Search states visited over all keys, each key's spend against its
  /// state budget (a repeat visit counts, as it costs budget).
  int64_t search_states = 0;
};

/// Check `recorder`'s history for per-key register linearizability
/// (Wing–Gong style search; per-key independence keeps the cost
/// tractable). Ops with OpOutcome::kFailed must never be observed; ops
/// with kIndeterminate may take effect or not; reads served by warm
/// replicas are held to the relaxed bounded-staleness visibility rules
/// (definite anomalies only) instead of the strict register semantics.
HistoryCheckResult CheckHistory(const HistoryRecorder& recorder);

/// One history op as a JSON object (for violation reports).
std::string ToJson(const HistoryOp& op);

/// A violation with its minimal failing sub-history as one JSON object.
std::string ToJson(const HistoryViolation& v);

}  // namespace wattdb::chaos

#endif  // WATTDB_CHAOS_HISTORY_H_
