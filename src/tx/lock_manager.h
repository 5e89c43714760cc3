#ifndef WATTDB_TX_LOCK_MANAGER_H_
#define WATTDB_TX_LOCK_MANAGER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "tx/transaction.h"

namespace wattdb::tx {

/// Multi-granularity lock modes (MGL-RX, §3.5): intention locks on coarse
/// granules, S/X on the accessed granule.
enum class LockMode : uint8_t { kIS, kIX, kS, kX };

bool LockCompatible(LockMode held, LockMode requested);
const char* LockModeName(LockMode mode);

/// A lockable resource in the granule hierarchy table -> partition ->
/// record. Segments are latched, not locked (physical moves need only
/// lightweight synchronization, §4.1).
struct LockResource {
  enum class Kind : uint8_t { kTable, kPartition, kRecord } kind;
  uint64_t a = 0;  ///< table/partition id value.
  uint64_t b = 0;  ///< record key for kRecord.

  static LockResource Table(TableId t) {
    return {Kind::kTable, t.value(), 0};
  }
  static LockResource Partition(PartitionId p) {
    return {Kind::kPartition, p.value(), 0};
  }
  static LockResource Record(PartitionId p, Key k) {
    return {Kind::kRecord, p.value(), k};
  }

  friend bool operator==(const LockResource& x, const LockResource& y) {
    return x.kind == y.kind && x.a == y.a && x.b == y.b;
  }
};

struct LockResourceHash {
  size_t operator()(const LockResource& r) const {
    size_t h = static_cast<size_t>(r.kind);
    h = h * 1000003 + std::hash<uint64_t>()(r.a);
    h = h * 1000003 + std::hash<uint64_t>()(r.b);
    return h;
  }
};

/// Result of a lock request under the timeline model.
struct LockGrant {
  SimTime granted_at = 0;  ///< When the lock becomes held (>= request time).
  SimTime waited_us = 0;   ///< granted_at - request time.
};

/// Deterministic lock table over simulated time. Because transactions are
/// evaluated as timelines (each carries its own clock), a grant is an
/// interval [granted_at, release_at): a conflicting request arriving at time
/// t is granted at the latest incompatible holder's release time. This
/// reproduces blocking delays and drain semantics (e.g. the migration read
/// lock of §4.3) exactly and deterministically, without thread scheduling.
class LockManager {
 public:
  /// Request `mode` on `res` at time `now`, intending to hold it until
  /// `release_at` (the requester's projected completion). Same-transaction
  /// re-requests upgrade in place: a transaction holds at most one grant per
  /// resource.
  LockGrant Acquire(const LockResource& res, LockMode mode, TxnId txn,
                    SimTime now, SimTime release_at);

  /// Earliest time `mode` could be granted, without taking the lock.
  SimTime EarliestGrant(const LockResource& res, LockMode mode, TxnId txn,
                        SimTime now) const;

  /// Truncate every grant of `txn` to release exactly at `at` (its actual
  /// commit/abort time). The grants stay in the table and expire by time:
  /// later-arriving transactions still observe the wait they would have
  /// experienced. Use this — not ReleaseAll — at commit.
  void SettleAll(TxnId txn, SimTime at);

  /// Physically drop all grants of `txn` (tests and teardown only).
  void ReleaseAll(TxnId txn);

  /// Number of live grant entries (expired grants are pruned lazily).
  size_t GrantCount() const;

  /// Drop grants whose release time is before `before`.
  void Prune(SimTime before);

 private:
  struct Grant {
    TxnId txn;
    LockMode mode;
    SimTime from;
    SimTime until;
  };

  /// One resource's grants, with how many of them hold each mode and the
  /// largest transaction id ever granted. A request whose conflicting modes
  /// all count zero is granted without a scan, and a transaction newer than
  /// every grant skips the search for its own, so the thousands of intention
  /// grants a partition collects cost nothing.
  struct Entry {
    std::vector<Grant> grants;
    std::array<uint32_t, 4> held{};  ///< Indexed by LockMode.
    uint64_t max_txn = 0;
  };

  static SimTime EarliestIn(const Entry& entry, LockMode mode, TxnId txn,
                            SimTime now);
  /// Drop the grants matching `drop`, keeping the mode counts; returns true
  /// when the entry is left empty.
  template <typename Pred>
  static bool EraseIf(Entry& entry, Pred drop);

  std::unordered_map<LockResource, Entry, LockResourceHash> table_;
  std::unordered_map<TxnId, std::vector<LockResource>> by_txn_;
};

}  // namespace wattdb::tx

#endif  // WATTDB_TX_LOCK_MANAGER_H_
