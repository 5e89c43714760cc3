#ifndef WATTDB_API_SESSION_H_
#define WATTDB_API_SESSION_H_

#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/routed_ops.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/future.h"
#include "storage/record.h"

namespace wattdb {

class Db;
class Session;

/// Futures of the data plane resolve on the cluster's simulated event loop:
/// the value is computed eagerly, continuations fire in sim-time order when
/// the simulation reaches the operation's completion time.
template <typename T>
using Future = sim::Future<T>;

/// One key->payload pair of a batched write (re-exported from the routing
/// layer so callers need only the api headers).
using KeyValue = cluster::KeyValue;

/// Result of a batched read: per-key records parallel to the key list, the
/// batch's hop accounting, and the txn-private sim time it finished at.
struct MultiGetResult {
  std::vector<StatusOr<storage::Record>> records;
  cluster::BatchStats stats;
  SimTime completed_at = 0;
  /// Elapsed sim time of the autocommit wrapper (0 for in-txn batches).
  SimTime latency_us = 0;

  /// Count of keys that resolved to a record.
  int64_t hits() const {
    int64_t n = 0;
    for (const auto& r : records) n += r.ok() ? 1 : 0;
    return n;
  }
};

/// Result of a batched upsert, parallel to the kv list.
struct MultiPutResult {
  std::vector<Status> statuses;
  cluster::BatchStats stats;
  SimTime completed_at = 0;
  SimTime latency_us = 0;

  /// Count of keys whose upsert succeeded.
  int64_t oks() const {
    int64_t n = 0;
    for (const auto& s : statuses) n += s.ok() ? 1 : 0;
    return n;
  }
};

/// RAII handle on one open transaction. Obtained from Session::Begin();
/// destroying an uncommitted handle aborts the transaction, so no code path
/// can leak a txn slot. All record operations run through the master's
/// routing layer with the §4.3 two-pointer retry and client-hop charging —
/// callers never see catalog::Partition. Moved-from handles stay safe to
/// call: every operation returns FailedPrecondition instead of touching the
/// stolen state.
class TxnHandle {
 public:
  TxnHandle(const TxnHandle&) = delete;
  TxnHandle& operator=(const TxnHandle&) = delete;
  TxnHandle(TxnHandle&& other) noexcept;
  TxnHandle& operator=(TxnHandle&& other) noexcept;
  ~TxnHandle();

  /// False once the transaction committed or aborted (or the handle was
  /// moved from).
  bool active() const { return txn_ != nullptr; }

  /// Point read of (table, key) under this transaction's snapshot/locks.
  StatusOr<storage::Record> Get(TableId table, Key key);

  /// Upsert: update (table, key), inserting when the key does not exist.
  Status Put(TableId table, Key key, const std::vector<uint8_t>& payload);

  /// Insert; AlreadyExists when the key is present.
  Status Insert(TableId table, Key key, const std::vector<uint8_t>& payload);

  /// Update; NotFound when the key is absent.
  Status Update(TableId table, Key key, const std::vector<uint8_t>& payload);

  /// Delete; NotFound when the key is absent.
  Status Delete(TableId table, Key key);

  /// Visit visible records with keys in `range` (may span partitions
  /// mid-migration). Returning false from `fn` stops early. Returns the
  /// number of records visited.
  StatusOr<int64_t> Scan(TableId table, const KeyRange& range,
                         const std::function<bool(const storage::Record&)>& fn);

  // --- Batched tier -------------------------------------------------------
  /// Batched point reads: keys grouped by owner node, one master<->owner
  /// round trip per owner per batch (stragglers mid-move retried per key,
  /// §4.3). `records` is parallel to `keys`.
  StatusOr<MultiGetResult> MultiGet(TableId table,
                                    const std::vector<Key>& keys);

  /// Batched upserts with the same owner-grouped hop charging.
  StatusOr<MultiPutResult> MultiPut(TableId table,
                                    const std::vector<KeyValue>& kvs);

  // --- Async tier ---------------------------------------------------------
  /// Get whose future resolves on the event loop at the operation's
  /// simulated completion time. The operation still runs under this
  /// transaction (in issue order on its private clock).
  Future<StatusOr<storage::Record>> GetAsync(TableId table, Key key);

  /// Durably commit (commit record on the master, locks settled) and close.
  Status Commit();

  /// Roll back and close. Safe on an already-closed handle.
  void Abort();

  /// Sim time the transaction finished (valid after Commit/Abort).
  SimTime completed_at() const { return completed_at_; }
  /// Total latency of the transaction (valid after Commit/Abort).
  SimTime latency_us() const { return latency_us_; }

  /// The underlying engine transaction — escape hatch for the volcano
  /// operator plans (exec::ExecContext) that thread it through directly.
  tx::Txn* txn() { return txn_; }

 private:
  friend class Session;
  TxnHandle(cluster::Cluster* cluster, tx::Txn* txn)
      : cluster_(cluster), txn_(txn) {}

  /// Non-OK when the handle cannot run operations: FailedPrecondition for a
  /// moved-from handle, InvalidArgument for a committed/aborted one.
  Status CheckUsable() const;

  cluster::Cluster* cluster_ = nullptr;
  tx::Txn* txn_ = nullptr;
  SimTime completed_at_ = 0;
  SimTime latency_us_ = 0;
};

/// A client connection to the database. Cheap to create; hand one to each
/// simulated client. Transactions begin at the cluster's current simulated
/// time. The one-shot Get/Put/Scan/MultiGet/MultiPut helpers run an
/// autocommit transaction; GetAsync runs one autocommit transaction per
/// read, so independent futures resolve in sim-time order, not issue
/// order. Moved-from sessions return FailedPrecondition.
class Session {
 public:
  Session(Session&& other) noexcept : cluster_(other.cluster_) {
    other.cluster_ = nullptr;
  }
  Session& operator=(Session&& other) noexcept {
    if (this != &other) {
      cluster_ = other.cluster_;
      other.cluster_ = nullptr;
    }
    return *this;
  }

  /// Start a transaction (read_only transactions skip write locks and can
  /// read old snapshots under MVCC). `batch_priority` marks the transaction
  /// as batch-class for admission control: under overload its ops are shed
  /// (ResourceExhausted) before latency-sensitive traffic. On a moved-from
  /// session the returned handle is inert: every operation fails with
  /// FailedPrecondition.
  TxnHandle Begin(bool read_only = false, bool batch_priority = false);

  /// Autocommit point read.
  StatusOr<storage::Record> Get(TableId table, Key key);

  /// Autocommit upsert.
  Status Put(TableId table, Key key, const std::vector<uint8_t>& payload);

  /// Autocommit range scan; returns the number of records visited.
  StatusOr<int64_t> Scan(TableId table, const KeyRange& range,
                         const std::function<bool(const storage::Record&)>& fn);

  /// Autocommit batched read (read-only transaction around the batch).
  StatusOr<MultiGetResult> MultiGet(TableId table,
                                    const std::vector<Key>& keys);

  /// Autocommit batched upsert.
  StatusOr<MultiPutResult> MultiPut(TableId table,
                                    const std::vector<KeyValue>& kvs);

  /// Autocommit async read in its own transaction; the future resolves at
  /// the read's simulated completion time.
  Future<StatusOr<storage::Record>> GetAsync(TableId table, Key key);

 private:
  friend class Db;
  explicit Session(cluster::Cluster* cluster) : cluster_(cluster) {}

  cluster::Cluster* cluster_;
};

}  // namespace wattdb

#endif  // WATTDB_API_SESSION_H_
