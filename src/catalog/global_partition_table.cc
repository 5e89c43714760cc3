#include "catalog/global_partition_table.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::catalog {

TableId GlobalPartitionTable::CreateTable(TableSchema schema) {
  const TableId id(next_table_id_++);
  schema.id = id;
  schema_by_name_.emplace(schema.name, id);
  schemas_.emplace(id, std::move(schema));
  routes_.emplace(id, RangeMap{});
  return id;
}

const TableSchema* GlobalPartitionTable::GetSchema(TableId table) const {
  auto it = schemas_.find(table);
  return it == schemas_.end() ? nullptr : &it->second;
}

const TableSchema* GlobalPartitionTable::GetSchemaByName(
    const std::string& name) const {
  auto it = schema_by_name_.find(name);
  if (it == schema_by_name_.end()) return nullptr;
  return GetSchema(it->second);
}

std::vector<TableId> GlobalPartitionTable::Tables() const {
  std::vector<TableId> out;
  out.reserve(schemas_.size());
  for (const auto& [id, schema] : schemas_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

Partition* GlobalPartitionTable::CreatePartition(TableId table, NodeId owner) {
  WATTDB_CHECK_MSG(schemas_.count(table) > 0, "unknown table");
  const PartitionId id(next_partition_id_++);
  auto part = std::make_unique<Partition>(id, table, owner);
  Partition* raw = part.get();
  partitions_.emplace(id, std::move(part));
  return raw;
}

Partition* GlobalPartitionTable::GetPartition(PartitionId id) {
  auto it = partitions_.find(id);
  return it == partitions_.end() ? nullptr : it->second.get();
}

const Partition* GlobalPartitionTable::GetPartition(PartitionId id) const {
  auto it = partitions_.find(id);
  return it == partitions_.end() ? nullptr : it->second.get();
}

void GlobalPartitionTable::Unref(PartitionId id) {
  if (!id.valid()) return;
  auto it = route_refs_.find(id);
  WATTDB_CHECK_MSG(it != route_refs_.end(), "route refcount underflow");
  if (--it->second <= 0) route_refs_.erase(it);
}

Status GlobalPartitionTable::DropPartition(PartitionId id) {
  auto it = partitions_.find(id);
  if (it == partitions_.end()) return Status::NotFound("no such partition");
  // Refuse to drop a partition that still routes traffic — primary *or*
  // stale secondary. The refcount is maintained by every routing mutator,
  // so this is O(1) instead of a scan over all ranges of all tables.
  if (RouteRefs(id) > 0) {
    return Status::Busy("partition still routed (" +
                        std::to_string(RouteRefs(id)) + " entry reference" +
                        (RouteRefs(id) == 1 ? "" : "s") + ")");
  }
  partitions_.erase(it);
  return Status::OK();
}

std::vector<Partition*> GlobalPartitionTable::PartitionsOf(TableId table) {
  std::vector<Partition*> out;
  for (auto& [id, p] : partitions_) {
    if (p->table() == table) out.push_back(p.get());
  }
  std::sort(out.begin(), out.end(),
            [](Partition* a, Partition* b) { return a->id() < b->id(); });
  return out;
}

std::vector<Partition*> GlobalPartitionTable::PartitionsOwnedBy(NodeId node) {
  std::vector<Partition*> out;
  for (auto& [id, p] : partitions_) {
    if (p->owner() == node) out.push_back(p.get());
  }
  std::sort(out.begin(), out.end(),
            [](Partition* a, Partition* b) { return a->id() < b->id(); });
  return out;
}

void GlobalPartitionTable::SplitAt(RangeMap* rm, Key boundary) {
  auto it = rm->upper_bound(boundary);
  if (it == rm->begin()) return;
  --it;
  RouteEntry& e = it->second;
  if (e.range.lo < boundary && boundary < e.range.hi) {
    RouteEntry right = e;
    right.range.lo = boundary;
    e.range.hi = boundary;
    RefEntry(right);  // The clone references the same partitions again.
    rm->emplace(boundary, right);
  }
}

template <typename Edit>
Status GlobalPartitionTable::EditRange(TableId table, const KeyRange& range,
                                       Edit edit) {
  auto rit = routes_.find(table);
  if (rit == routes_.end()) return Status::NotFound("unknown table");
  RangeMap& rm = rit->second;
  SplitAt(&rm, range.lo);
  SplitAt(&rm, range.hi);
  auto it = rm.lower_bound(range.lo);
  while (it != rm.end() && it->second.range.lo < range.hi) {
    if (edit(it->second)) {
      UnrefEntry(it->second);
      it = rm.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status GlobalPartitionTable::AssignRange(TableId table, const KeyRange& range,
                                         PartitionId partition) {
  if (range.Empty()) return Status::InvalidArgument("empty range");
  if (partitions_.count(partition) == 0) {
    return Status::NotFound("unknown partition");
  }
  // Remove fully covered entries.
  WATTDB_RETURN_IF_ERROR(
      EditRange(table, range, [](RouteEntry&) { return true; }));
  Ref(partition);
  RouteEntry entry{range, partition, PartitionId::Invalid()};
  StampEpoch(&entry);
  routes_.at(table).emplace(range.lo, entry);
  return Status::OK();
}

void GlobalPartitionTable::StampEpoch(RouteEntry* entry) {
  entry->epoch = ++next_epoch_;
  auto it = partitions_.find(entry->primary);
  if (it != partitions_.end()) it->second->set_route_epoch(entry->epoch);
}

Status GlobalPartitionTable::UnassignRange(TableId table,
                                           const KeyRange& range) {
  return EditRange(table, range, [](RouteEntry&) { return true; });
}

Status GlobalPartitionTable::BeginMove(TableId table, const KeyRange& range,
                                       PartitionId to) {
  return EditRange(table, range, [&](RouteEntry& e) {
    Unref(e.secondary);  // Overwriting a stale move's pointer.
    e.secondary = to;
    Ref(to);
    return false;
  });
}

Status GlobalPartitionTable::CompleteMove(TableId table, const KeyRange& range,
                                          PartitionId to) {
  return EditRange(table, range, [&](RouteEntry& e) {
    Unref(e.primary);
    e.primary = to;
    Ref(to);
    Unref(e.secondary);
    e.secondary = PartitionId::Invalid();
    StampEpoch(&e);
    return false;
  });
}

Status GlobalPartitionTable::AbortMove(TableId table, const KeyRange& range,
                                       PartitionId to) {
  return EditRange(table, range, [&](RouteEntry& e) {
    if (e.secondary == to) {
      Unref(e.secondary);
      e.secondary = PartitionId::Invalid();
    }
    return false;
  });
}

std::optional<RouteEntry> GlobalPartitionTable::Route(TableId table,
                                                      Key key) const {
  auto rit = routes_.find(table);
  if (rit == routes_.end()) return std::nullopt;
  const RangeMap& rm = rit->second;
  auto it = rm.upper_bound(key);
  if (it == rm.begin()) return std::nullopt;
  --it;
  if (!it->second.range.Contains(key)) return std::nullopt;
  return it->second;
}

Status GlobalPartitionTable::AddReplicaRoute(TableId table,
                                             const KeyRange& range,
                                             PartitionId partition,
                                             PartitionId src) {
  if (range.Empty()) return Status::InvalidArgument("empty range");
  if (routes_.count(table) == 0) return Status::NotFound("unknown table");
  auto pit = partitions_.find(partition);
  if (pit == partitions_.end()) return Status::NotFound("unknown partition");
  if (pit->second->table() != table) {
    return Status::InvalidArgument("partition belongs to another table");
  }
  auto& routes = replica_routes_[table];
  for (const ReplicaRoute& r : routes) {
    if (r.partition == partition) {
      return Status::AlreadyExists("partition already holds a replica route");
    }
  }
  if (src.valid()) {
    auto sit = partitions_.find(src);
    if (sit == partitions_.end()) return Status::NotFound("unknown source");
    if (sit->second->table() != table) {
      return Status::InvalidArgument("source belongs to another table");
    }
  }
  Ref(partition);
  routes.push_back(ReplicaRoute{range, partition, src, false});
  return Status::OK();
}

Status GlobalPartitionTable::RemoveReplicaRoute(TableId table,
                                                PartitionId partition) {
  auto it = replica_routes_.find(table);
  if (it == replica_routes_.end()) return Status::NotFound("no replica route");
  auto& routes = it->second;
  for (auto rit = routes.begin(); rit != routes.end(); ++rit) {
    if (rit->partition == partition) {
      Unref(partition);
      routes.erase(rit);
      return Status::OK();
    }
  }
  return Status::NotFound("no replica route");
}

Status GlobalPartitionTable::SetReplicaServing(TableId table,
                                               PartitionId partition,
                                               bool serving) {
  auto it = replica_routes_.find(table);
  if (it == replica_routes_.end()) return Status::NotFound("no replica route");
  for (ReplicaRoute& r : it->second) {
    if (r.partition == partition) {
      r.serving = serving;
      return Status::OK();
    }
  }
  return Status::NotFound("no replica route");
}

std::vector<ReplicaRoute> GlobalPartitionTable::ReplicasFor(TableId table,
                                                            Key key) const {
  std::vector<ReplicaRoute> out;
  auto it = replica_routes_.find(table);
  if (it == replica_routes_.end()) return out;
  for (const ReplicaRoute& r : it->second) {
    if (r.range.Contains(key)) out.push_back(r);
  }
  return out;
}

std::vector<ReplicaRoute> GlobalPartitionTable::ReplicaRoutes(
    TableId table) const {
  auto it = replica_routes_.find(table);
  if (it == replica_routes_.end()) return {};
  return it->second;
}

Status GlobalPartitionTable::PromoteReplica(TableId table,
                                            const KeyRange& range,
                                            PartitionId replica,
                                            uint64_t fence_epoch,
                                            PartitionId deposed) {
  auto pit = partitions_.find(replica);
  if (pit == partitions_.end()) return Status::NotFound("unknown partition");
  if (pit->second->table() != table) {
    return Status::InvalidArgument("partition belongs to another table");
  }
  // A move in flight over the range would leave the mover holding a
  // secondary pointer at a partition that no longer owns anything; the
  // caller must wait for the move to settle (or abort it) first. Entries
  // routed to partitions other than `deposed` are bystanders under an
  // over-wide replica range: not flipped, so not checked.
  int owned = 0;
  for (const RouteEntry& e : RoutesInRange(table, range)) {
    if (deposed.valid() && e.primary != deposed) continue;
    ++owned;
    if (e.secondary.valid()) {
      return Status::FailedPrecondition("move in flight over range");
    }
    // Conditional flip: an entry restamped past the fence means the deposed
    // owner reclaimed the range (full redo) after the standby's state cut —
    // installing the standby now would drop every write served since.
    if (fence_epoch > 0 && e.epoch > fence_epoch) {
      return Status::FailedPrecondition(
          "fence superseded (entry epoch " + std::to_string(e.epoch) +
          " > fence " + std::to_string(fence_epoch) +
          "): range reclaimed since the promotion's state cut");
    }
  }
  if (deposed.valid() && owned == 0) {
    return Status::FailedPrecondition(
        "deposed partition owns nothing in the promoted range");
  }
  WATTDB_RETURN_IF_ERROR(EditRange(table, range, [&](RouteEntry& e) {
    if (deposed.valid() && e.primary != deposed) return false;
    Unref(e.primary);
    e.primary = replica;
    Ref(replica);
    StampEpoch(&e);
    return false;
  }));
  // The standby is now the owner: its replica route is consumed and it
  // stops being invisible to the heat/drain planners.
  (void)RemoveReplicaRoute(table, replica);
  pit->second->set_is_replica(false);
  return Status::OK();
}

uint64_t GlobalPartitionTable::FenceRange(TableId table, const KeyRange& range,
                                          PartitionId only_primary) {
  if (range.Empty()) return 0;
  uint64_t fence = 0;
  (void)EditRange(table, range, [&](RouteEntry& e) {
    if (only_primary.valid() && e.primary != only_primary) return false;
    // Bump the entry's epoch but deliberately do NOT mirror it into the
    // primary's route_epoch: the owner's claim token is now behind the
    // entry, which is exactly the "fenced" condition the routing layer
    // and ReclaimRange test for.
    e.epoch = ++next_epoch_;
    fence = e.epoch;
    return false;
  });
  return fence;
}

int GlobalPartitionTable::HealOrphanedFences(const Partition& owner,
                                             const KeyRange& range,
                                             uint64_t claim_token) {
  int healed = 0;
  for (const RouteEntry& e : RoutesInRange(owner.table(), range)) {
    if (e.primary != owner.id() || e.epoch <= claim_token) continue;
    const Status heal =
        ReclaimRange(owner.table(), e.range, owner.id(), claim_token);
    WATTDB_CHECK_MSG(heal.ok(), "orphaned-fence heal failed: "
                                    << heal.ToString());
    ++healed;
  }
  return healed;
}

uint64_t GlobalPartitionTable::EpochOf(TableId table, Key key) const {
  auto e = Route(table, key);
  return e.has_value() ? e->epoch : 0;
}

Status GlobalPartitionTable::ReclaimRange(TableId table, const KeyRange& range,
                                          PartitionId claimant,
                                          uint64_t claim_epoch) {
  if (range.Empty()) return Status::InvalidArgument("empty range");
  if (routes_.count(table) == 0) return Status::NotFound("unknown table");
  if (partitions_.count(claimant) == 0) {
    return Status::NotFound("unknown partition");
  }
  const std::vector<RouteEntry> covering = RoutesInRange(table, range);
  bool all_claimant = !covering.empty();
  for (const RouteEntry& e : covering) {
    if (e.primary != claimant && e.secondary != claimant) {
      all_claimant = false;
    }
    if (e.primary != claimant && e.epoch > claim_epoch) {
      return Status::FailedPrecondition(
          "route superseded (epoch " + std::to_string(e.epoch) + " > claim " +
          std::to_string(claim_epoch) + ")");
    }
  }
  if (all_claimant) {
    // Routes survived the crash intact. Heal any orphaned fence: entries
    // still naming the claimant as primary but stamped past its token mean
    // a promotion fenced the range and never flipped (the standby died
    // first). The claimant just replayed its full WAL, so its copy is
    // authoritative again — restamp so routing serves it once more.
    RangeMap& rm = routes_.find(table)->second;
    auto it = rm.upper_bound(range.lo);
    if (it != rm.begin()) --it;  // Predecessor may straddle range.lo.
    for (; it != rm.end() && it->second.range.lo < range.hi; ++it) {
      if (it->second.range.hi <= range.lo) continue;
      if (it->second.primary == claimant && it->second.epoch > claim_epoch) {
        StampEpoch(&it->second);
      }
    }
    return Status::OK();
  }
  return AssignRange(table, range, claimant);
}

std::vector<RouteEntry> GlobalPartitionTable::RoutesInRange(
    TableId table, const KeyRange& range) const {
  std::vector<RouteEntry> out;
  auto rit = routes_.find(table);
  if (rit == routes_.end() || range.Empty()) return out;
  const RangeMap& rm = rit->second;
  auto it = rm.upper_bound(range.lo);
  if (it != rm.begin()) {
    auto prev = std::prev(it);
    if (prev->second.range.hi > range.lo) out.push_back(prev->second);
  }
  for (; it != rm.end() && it->second.range.lo < range.hi; ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::vector<RouteEntry> GlobalPartitionTable::AllRoutes(TableId table) const {
  std::vector<RouteEntry> out;
  auto rit = routes_.find(table);
  if (rit == routes_.end()) return out;
  for (const auto& [lo, e] : rit->second) out.push_back(e);
  return out;
}

bool GlobalPartitionTable::CheckInvariants() const {
  for (const auto& [table, rm] : routes_) {
    Key prev_hi = kMinKey;
    bool first = true;
    for (const auto& [lo, e] : rm) {
      if (lo != e.range.lo || e.range.Empty()) return false;
      if (!first && e.range.lo < prev_hi) return false;
      prev_hi = e.range.hi;
      first = false;
      auto pit = partitions_.find(e.primary);
      if (pit == partitions_.end() || pit->second->table() != table) {
        return false;
      }
      if (e.secondary.valid()) {
        auto sit = partitions_.find(e.secondary);
        if (sit == partitions_.end() || sit->second->table() != table) {
          return false;
        }
      }
    }
  }
  // Replica routes name live partitions of the right table, flagged as
  // replicas, with non-empty ranges.
  for (const auto& [table, routes] : replica_routes_) {
    for (const ReplicaRoute& r : routes) {
      if (r.range.Empty()) return false;
      auto pit = partitions_.find(r.partition);
      if (pit == partitions_.end() || pit->second->table() != table ||
          !pit->second->is_replica()) {
        return false;
      }
    }
  }
  // The incremental route refcounts agree with a full recount.
  std::unordered_map<PartitionId, int> recount;
  for (const auto& [table, rm] : routes_) {
    for (const auto& [lo, e] : rm) {
      ++recount[e.primary];
      if (e.secondary.valid()) ++recount[e.secondary];
    }
  }
  for (const auto& [table, routes] : replica_routes_) {
    for (const ReplicaRoute& r : routes) ++recount[r.partition];
  }
  if (recount.size() != route_refs_.size()) return false;
  for (const auto& [id, n] : recount) {
    auto it = route_refs_.find(id);
    if (it == route_refs_.end() || it->second != n) return false;
  }
  return true;
}

}  // namespace wattdb::catalog
