#ifndef WATTDB_TX_VERSION_STORE_H_
#define WATTDB_TX_VERSION_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "tx/transaction.h"

namespace wattdb::tx {

/// One version of a record. `end_ts` is the begin timestamp of the
/// superseding version (kInfinityTs while current). A provisional version
/// (uncommitted writer) carries `committed == false` and is visible only to
/// its own transaction until Commit() stamps it.
struct Version {
  Timestamp begin_ts = 0;
  Timestamp end_ts = kInfinityTs;
  bool deleted = false;
  bool committed = true;
  TxnId writer;
  std::vector<uint8_t> payload;
};

/// Multiversion store backing MVCC (§3.5). Bulk-loaded records have no
/// chain: they are implicitly one committed version with begin_ts 0 whose
/// payload lives in the data page. Any transactional write creates chain
/// entries here, so old snapshots can keep reading while newer versions (or
/// in-flight writers) exist — the property the paper exploits to keep
/// readers running while records move between partitions.
class VersionStore {
 public:
  VersionStore() = default;
  /// Write sets hold iterators into this store's own chain map.
  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// What a snapshot read resolved to.
  struct ReadView {
    enum class Source {
      kPage,     ///< No chain (or chain agrees): read the data page.
      kChain,    ///< Old version served from the chain; payload set.
      kDeleted,  ///< Visible version is a delete: record does not exist.
      kInvisible ///< Record created after the snapshot: does not exist.
    } source = Source::kPage;
    const std::vector<uint8_t>* payload = nullptr;  ///< For kChain.
  };

  /// Install a provisional version (insert/update/delete) for `txn`.
  /// `prior_in_page` must be the pre-image currently materialized in the
  /// data page when this is the first chain entry for the key (so old
  /// readers can still see it); pass std::nullopt if the key has no visible
  /// pre-image (fresh insert).
  Status Write(TableId table, Key key, const Txn& txn,
               std::optional<std::vector<uint8_t>> prior_in_page,
               std::optional<std::vector<uint8_t>> new_payload, bool deleted);

  /// Stamp all provisional versions of `txn` with its commit timestamp.
  void Commit(const Txn& txn);

  /// Discard provisional versions of `txn`. Returns the pre-images that must
  /// be restored into data pages: (table, key, payload-or-nullopt-if-the-
  /// record-did-not-exist).
  struct UndoEntry {
    TableId table;
    Key key;
    std::optional<std::vector<uint8_t>> pre_image;
  };
  std::vector<UndoEntry> Abort(const Txn& txn);

  /// Resolve `key` under `snapshot` (reader's begin_ts). `self` lets a
  /// transaction see its own provisional writes.
  ReadView Read(TableId table, Key key, Timestamp snapshot, TxnId self) const;

  /// True if the newest version is a provisional write by another active
  /// transaction (write-write conflict under first-updater-wins).
  bool HasConflictingWriter(TableId table, Key key, TxnId self) const;

  /// Visit every version chain with a key in [lo, hi) of `table`, in key
  /// order, resolved under `snapshot`/`self`. Lets scans overlay chain
  /// results on page contents — in particular, records that were deleted
  /// from the pages but are still visible to old snapshots.
  void ForEachResolvedInRange(
      TableId table, Key lo, Key hi, Timestamp snapshot, TxnId self,
      const std::function<void(Key, const ReadView&)>& fn) const;

  /// Drop versions no snapshot older than `min_active` can need. Chains
  /// reduced to one committed, non-deleted entry older than `min_active`
  /// are removed entirely (the page copy suffices).
  void Gc(Timestamp min_active);

  /// Bytes held in version chains — the MVCC storage overhead of Fig. 3.
  size_t OverheadBytes() const { return overhead_bytes_; }
  size_t ChainCount() const { return chains_.size(); }
  size_t VersionCount() const;

 private:
  struct ChainKey {
    TableId table;
    Key key;
    friend bool operator==(const ChainKey& a, const ChainKey& b) {
      return a.table == b.table && a.key == b.key;
    }
    friend bool operator<(const ChainKey& a, const ChainKey& b) {
      if (a.table != b.table) return a.table < b.table;
      return a.key < b.key;
    }
  };
  /// Oldest-first version list.
  using Chain = std::vector<Version>;

  static size_t VersionBytes(const Version& v) {
    return sizeof(Version) + v.payload.size();
  }

  /// Resolve one chain under a snapshot (shared by Read and range visits).
  ReadView Resolve(const Chain& chain, Timestamp snapshot, TxnId self) const;

  using ChainMap = std::map<ChainKey, Chain>;

  /// Ordered so range scans can merge chain state with page state. GC keeps
  /// this map small (only recently-written keys have chains).
  ChainMap chains_;
  /// Chains provisionally written per active transaction, so Commit/Abort
  /// touch only the write set, with no lookup. The iterators stay valid:
  /// while a transaction is active its provisional version is the newest of
  /// each chain it wrote, and neither Gc nor another transaction's Abort
  /// erases such a chain.
  std::unordered_map<TxnId, std::vector<ChainMap::iterator>> write_sets_;
  size_t overhead_bytes_ = 0;
};

}  // namespace wattdb::tx

#endif  // WATTDB_TX_VERSION_STORE_H_
