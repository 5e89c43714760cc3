#ifndef WATTDB_CLUSTER_ROUTED_OPS_H_
#define WATTDB_CLUSTER_ROUTED_OPS_H_

#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/record.h"

namespace wattdb::cluster {

/// Client-side record operations through the master's routing layer: resolve
/// (table, key) with the two-pointer protocol, charge the master<->owner
/// network hop, run the operation on the owner node, and — for reads,
/// updates, and deletes — retry on the secondary location while a move is in
/// flight ("queries are advised to visit both", §4.3). A crashed owner
/// surfaces as Unavailable: the secondary is tried first (mid-move the data
/// may already live there), and Unavailable is returned only when no live
/// location holds the key — callers retry after the master remaps or the
/// node recovers (src/fault). These are the only
/// sanctioned way for workload drivers and the facade API to touch records;
/// they keep catalog::Partition handles out of caller code.
///
/// Read responses are billed by the record actually shipped (32-byte
/// header + StoredSize; header only on a miss).
Status RoutedRead(Cluster* c, tx::Txn* txn, TableId table, Key key,
                  storage::Record* out);

/// What RoutedWrite does to an existing record.
enum class WriteOp {
  kUpdate,  ///< Replace its payload; NotFound when the key is absent.
  /// Update, or insert at the currently-routed partition when the key is
  /// absent, as ONE admission unit: the update probe, the §4.3 secondary
  /// retry, and the insert fall-through ride one Admit/Complete pair, as
  /// RoutedMultiWrite's keys ride their group admission. An update and a
  /// separate insert would take two admission decisions (and possibly shed
  /// half of one logical op), double-counting queue depth exactly when the
  /// cluster is loaded enough for it to matter.
  kUpsert,
  kDelete,  ///< Delete it (old snapshots keep it); takes no payload.
};

/// Write one record: one admission, one request hop to the primary owner
/// carrying `payload`, the §4.3 secondary retry (re-shipping the payload)
/// while a move is in flight, and the upsert insert tail.
Status RoutedWrite(Cluster* c, tx::Txn* txn, TableId table, Key key,
                   WriteOp op, const std::vector<uint8_t>& payload = {});

Status RoutedInsert(Cluster* c, tx::Txn* txn, TableId table, Key key,
                    const std::vector<uint8_t>& payload);

/// Visit visible records with keys in `range`. A range may span several
/// partitions mid-migration: every route overlapping the range is visited.
/// Returning false from `fn` stops the scan early.
Status RoutedScan(Cluster* c, tx::Txn* txn, TableId table,
                  const KeyRange& range,
                  const std::function<bool(const storage::Record&)>& fn);

// --- Owner-grouped batches -------------------------------------------------

/// One key->payload pair of a batched write.
struct KeyValue {
  Key key;
  std::vector<uint8_t> payload;
};

/// Accounting of one batched operation, for tests and benches: a batch
/// charges one master<->owner round trip per *owner node* it touches (plus
/// one per straggler key that needed the §4.3 second-location retry),
/// instead of one per key.
struct BatchStats {
  int owner_round_trips = 0;  ///< Hops charged to non-master owner groups.
  int straggler_retries = 0;  ///< Per-key second-location visits (§4.3).
  int inserts = 0;            ///< MultiWrite keys that fell through to insert.
  int shed_ops = 0;           ///< Keys refused by admission control.

  void Add(const BatchStats& other) {
    owner_round_trips += other.owner_round_trips;
    straggler_retries += other.straggler_retries;
    inserts += other.inserts;
    shed_ops += other.shed_ops;
  }
};

/// Batched point reads. Keys are grouped by the owner of their primary
/// route; each owner group ships as ONE request message listing its keys
/// and ONE response carrying the found records, so a batch pays one
/// master<->owner round trip per owner node rather than per key. Keys that
/// miss at the primary while a move is in flight are retried individually
/// at their secondary location, charged per straggler ("queries are advised
/// to visit both", §4.3). `out` is parallel to `keys`; the returned Status
/// is non-OK only for malformed calls — per-key misses land in `out`.
Status RoutedMultiRead(Cluster* c, tx::Txn* txn, TableId table,
                       const std::vector<Key>& keys,
                       std::vector<StatusOr<storage::Record>>* out,
                       BatchStats* stats = nullptr);

/// Batched upserts with the same owner-grouped hop charging: one request
/// per owner group carrying all of the group's payloads, one response.
/// Each key then runs as a WriteOp::kUpsert does after its request hop
/// (secondary retry per straggler, insert tail). `out` is parallel to
/// `kvs`.
Status RoutedMultiWrite(Cluster* c, tx::Txn* txn, TableId table,
                        const std::vector<KeyValue>& kvs,
                        std::vector<Status>* out, BatchStats* stats = nullptr);

}  // namespace wattdb::cluster

#endif  // WATTDB_CLUSTER_ROUTED_OPS_H_
