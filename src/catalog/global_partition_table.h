#ifndef WATTDB_CATALOG_GLOBAL_PARTITION_TABLE_H_
#define WATTDB_CATALOG_GLOBAL_PARTITION_TABLE_H_

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "catalog/partition.h"
#include "catalog/schema.h"

namespace wattdb::catalog {

/// Where a key's data lives right now. During repartitioning the master
/// keeps *two* pointers — the old and the new location — and "queries are
/// advised to visit both" (§4.3 Housekeeping on the master).
struct RouteEntry {
  KeyRange range;
  PartitionId primary;
  PartitionId secondary;  ///< Invalid unless a move is in flight.
  /// Monotone ownership epoch, bumped whenever the primary changes hands
  /// (assignment, move completion, replica promotion). A deposed owner
  /// coming back from a crash carries the epoch it last owned the range
  /// under; if the catalog's entry is newer, its reclaim is refused and
  /// its local copy is known stale (fencing against split ownership).
  uint64_t epoch = 0;
};

/// A warm standby of one routed range: `partition` (marked
/// Partition::is_replica) holds a copy of the range's segment on another
/// node, kept fresh by applying the owner's shipped log tail. `serving`
/// means the copy is within the policy's staleness bound and reads may fan
/// out to it; writes always go to the primary route.
struct ReplicaRoute {
  KeyRange range;
  PartitionId partition;
  /// Primary partition this standby replicates. A segment's top-index
  /// range can be wider than what its partition actually owns (lazily
  /// materialized segments claim the whole key space), so `range` alone
  /// over-matches: read fan-out must also check that the key's routed
  /// primary IS this source, or a replica of partition A starts answering
  /// NotFound for partition B's keys during A-unrelated failovers.
  PartitionId src;
  bool serving = false;
};

/// Master-side catalog: table schemas, all partition objects, and the
/// global key-range routing tree used by query optimization (§4.3:
/// "the master keeps a tree with the primary-key ranges of all
/// partitions"). The registry owns the Partition objects; nodes hold
/// non-owning pointers to the partitions assigned to them.
class GlobalPartitionTable {
 public:
  GlobalPartitionTable() = default;
  GlobalPartitionTable(const GlobalPartitionTable&) = delete;
  GlobalPartitionTable& operator=(const GlobalPartitionTable&) = delete;

  // --- Tables -----------------------------------------------------------
  TableId CreateTable(TableSchema schema);
  const TableSchema* GetSchema(TableId table) const;
  const TableSchema* GetSchemaByName(const std::string& name) const;
  std::vector<TableId> Tables() const;

  // --- Partitions -------------------------------------------------------
  Partition* CreatePartition(TableId table, NodeId owner);
  Partition* GetPartition(PartitionId id);
  const Partition* GetPartition(PartitionId id) const;
  Status DropPartition(PartitionId id);
  std::vector<Partition*> PartitionsOf(TableId table);
  std::vector<Partition*> PartitionsOwnedBy(NodeId node);

  // --- Routing ----------------------------------------------------------
  /// Route `range` to `partition`, splitting/trimming any overlapped
  /// entries (their primary keeps owning the uncovered remainder).
  Status AssignRange(TableId table, const KeyRange& range,
                     PartitionId partition);

  /// Remove routing for `range` entirely.
  Status UnassignRange(TableId table, const KeyRange& range);

  /// Mark a move: entries covered by `range` gain `to` as secondary.
  Status BeginMove(TableId table, const KeyRange& range, PartitionId to);

  /// Complete a move: covered entries flip primary to `to`, secondary
  /// cleared.
  Status CompleteMove(TableId table, const KeyRange& range, PartitionId to);

  /// Abort a move registered with BeginMove: covered entries drop `to` as
  /// their secondary, the primary keeps owning the range (crash recovery:
  /// the copy never installed, the data never left the source).
  Status AbortMove(TableId table, const KeyRange& range, PartitionId to);

  /// Routing entry covering `key`, if any.
  std::optional<RouteEntry> Route(TableId table, Key key) const;

  // --- Replica routes ---------------------------------------------------
  /// Register `partition` as a warm standby of `range` (not serving yet),
  /// replicating primary partition `src`. The replica partition takes a
  /// route reference like a primary, so it cannot be dropped while the
  /// route exists. One replica route per partition: AlreadyExists on a
  /// second registration. An invalid `src` records an untied route
  /// (unit-test convenience); the routing layer then trusts `range` alone.
  Status AddReplicaRoute(TableId table, const KeyRange& range,
                         PartitionId partition,
                         PartitionId src = PartitionId());

  /// Remove the replica route held by `partition` (NotFound if none).
  Status RemoveReplicaRoute(TableId table, PartitionId partition);

  /// Flip whether reads may fan out to `partition`'s replica route.
  Status SetReplicaServing(TableId table, PartitionId partition, bool serving);

  /// Replica routes whose range contains `key`, serving or not.
  std::vector<ReplicaRoute> ReplicasFor(TableId table, Key key) const;

  /// All replica routes of a table.
  std::vector<ReplicaRoute> ReplicaRoutes(TableId table) const;

  /// Cheap guard for the read hot path: any replica routes at all?
  bool HasReplicas(TableId table) const {
    auto it = replica_routes_.find(table);
    return it != replica_routes_.end() && !it->second.empty();
  }

  /// Catch-up-and-flip failover: make `replica` the primary owner of
  /// `range`, bumping the covered entries' epoch so the deposed owner's
  /// later reclaim is fenced off. Refused (FailedPrecondition) while a
  /// move is in flight over the range. Consumes the replica route.
  ///
  /// `fence_epoch` > 0 makes the flip conditional (compare-and-swap): it is
  /// refused when any covered entry's epoch moved past the fence since
  /// FenceRange stamped it — the deposed owner finished a full redo in the
  /// meantime and reclaimed the range, so the standby's snapshot (cut at
  /// fence time) would silently drop the writes the owner served since.
  ///
  /// A valid `deposed` clamps the flip to the entries `deposed` actually
  /// owns: entries inside `range` routed to *other* partitions are left
  /// untouched (a replica route's range may over-cover, see ReplicaRoute).
  /// Refused (FailedPrecondition) when `deposed` owns nothing in `range` —
  /// the standby would become an owner of nothing.
  Status PromoteReplica(TableId table, const KeyRange& range,
                        PartitionId replica, uint64_t fence_epoch = 0,
                        PartitionId deposed = PartitionId());

  /// Seal the current primary of every entry covering `range`: bump the
  /// entries' epoch WITHOUT mirroring it into the primary partition's
  /// route_epoch. The owner's claim token is now stale, so (a) the routing
  /// layer's epoch check refuses to serve the range through it and (b) a
  /// later ReclaimRange under the old token is superseded. Promotion calls
  /// this before reading the deposed owner's final log tail — from that
  /// instant no write can land on the old owner and miss the flip, even if
  /// the owner is merely partitioned from the master and still alive.
  /// Returns the fence epoch (to pass to the conditional PromoteReplica),
  /// or 0 when nothing covers the range. A valid `only_primary` seals just
  /// the entries routed to that partition — fencing a live neighbor whose
  /// keys merely fall inside an over-wide replica range would refuse its
  /// reads for nothing.
  uint64_t FenceRange(TableId table, const KeyRange& range,
                      PartitionId only_primary = PartitionId());

  /// Epoch of the entry covering `key` (0 if unrouted).
  uint64_t EpochOf(TableId table, Key key) const;

  /// Re-register `range` -> `claimant` after a crash restart. No-op if the
  /// covering entries already name the claimant; FailedPrecondition if any
  /// covering entry carries an epoch newer than `claim_epoch` (the range
  /// was promoted away while the claimant was down — its copy is stale);
  /// otherwise assigns the range like AssignRange. Entries that still name
  /// the claimant as primary but were fenced past its token (a promotion
  /// started and never flipped — the standby died first) are restamped:
  /// the claimant just replayed its full WAL, so its copy is authoritative
  /// again and the orphaned fence must not refuse it forever.
  Status ReclaimRange(TableId table, const KeyRange& range,
                      PartitionId claimant, uint64_t claim_epoch);

  /// Heal the orphaned fences over `range` of `owner`'s table: every entry
  /// still naming `owner` as primary whose epoch a promotion fenced past
  /// `claim_token` (the sealed range never flipped — the standby died
  /// first) is reclaimed under the token, which restamps it. Per covering
  /// entry, since a split range may be part-promoted (a reclaim of the
  /// whole would be refused). Returns the number of entries healed.
  int HealOrphanedFences(const Partition& owner, const KeyRange& range,
                         uint64_t claim_token);

  /// All routing entries intersecting `range`, in key order.
  std::vector<RouteEntry> RoutesInRange(TableId table,
                                        const KeyRange& range) const;

  /// All routing entries of a table, in key order.
  std::vector<RouteEntry> AllRoutes(TableId table) const;

  /// Routing invariant: entries disjoint, each names a live partition of
  /// the right table.
  bool CheckInvariants() const;

  /// Routing entries currently referencing `partition` as primary or
  /// secondary (the drop guard's O(1) source of truth).
  int RouteRefs(PartitionId partition) const {
    auto it = route_refs_.find(partition);
    return it == route_refs_.end() ? 0 : it->second;
  }

 private:
  using RangeMap = std::map<Key, RouteEntry>;  // Keyed by range.lo.

  /// Split the entry straddling `boundary` (if any) in two at it.
  void SplitAt(RangeMap* rm, Key boundary);

  /// The one split-and-walk of every range edit: split `table`'s entries
  /// at both bounds of `range`, then call `edit(entry)` on each entry
  /// inside it, in key order. An entry for which `edit` returns true is
  /// unreferenced and erased. NotFound (nothing edited) for an unknown
  /// table.
  template <typename Edit>
  Status EditRange(TableId table, const KeyRange& range, Edit edit);

  /// Reference counting of partitions by routing entries: every entry's
  /// primary and (valid) secondary holds one reference. Kept in sync by
  /// the range edits and SplitAt so DropPartition's still-routed guard is
  /// O(1) instead of a scan over every range of every table.
  void Ref(PartitionId id) {
    if (id.valid()) ++route_refs_[id];
  }
  void Unref(PartitionId id);
  /// Reference both sides of one entry (insertion/removal helpers).
  void RefEntry(const RouteEntry& e) {
    Ref(e.primary);
    Ref(e.secondary);
  }
  void UnrefEntry(const RouteEntry& e) {
    Unref(e.primary);
    Unref(e.secondary);
  }

  /// Stamp `entry`'s epoch from the global counter and mirror it into the
  /// primary partition's route_epoch (the claim token recovery presents).
  void StampEpoch(RouteEntry* entry);

  uint32_t next_table_id_ = 1;
  uint32_t next_partition_id_ = 1;
  uint64_t next_epoch_ = 0;
  std::unordered_map<TableId, TableSchema> schemas_;
  /// Name -> id, maintained by CreateTable (lookups by name were a linear
  /// scan over all schemas and sit on the facade's table-open path).
  std::unordered_map<std::string, TableId> schema_by_name_;
  std::unordered_map<PartitionId, std::unique_ptr<Partition>> partitions_;
  std::unordered_map<TableId, RangeMap> routes_;
  /// Warm-standby routes per table; small (bounded by the replica policy's
  /// budget), so point lookups scan linearly.
  std::unordered_map<TableId, std::vector<ReplicaRoute>> replica_routes_;
  std::unordered_map<PartitionId, int> route_refs_;
};

}  // namespace wattdb::catalog

#endif  // WATTDB_CATALOG_GLOBAL_PARTITION_TABLE_H_
