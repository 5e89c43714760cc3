#include "cluster/routed_ops.h"

#include <algorithm>
#include <unordered_map>

#include "cluster/node.h"

namespace wattdb::cluster {

namespace {

/// The admission class of a transaction's point ops; scans always go
/// through the batch class regardless of the flag.
admission::OpClass ClassOf(const tx::Txn* txn) {
  return txn != nullptr && txn->batch_priority
             ? admission::OpClass::kBatch
             : admission::OpClass::kLatencySensitive;
}

/// Admission gate of one routed op (or one owner-group of `ops` batch
/// keys): refused work returns ResourceExhausted before any hop is charged
/// or any node op runs — rejection is master-local and cheap, which is
/// what makes shedding better than queueing. System transactions
/// (migration, replication internals) are never refused.
Status AdmitOps(Cluster* c, tx::Txn* txn, NodeId owner, admission::OpClass cls,
                int ops = 1) {
  if (txn == nullptr || txn->system) return Status::OK();
  return c->admission().Admit(owner, cls, c->Now(), ops);
}

/// Book the admitted ops' departure from `owner`'s queue at the txn's
/// private completion time. §4.3 straggler retries and replica-fallback
/// visits ride the original admission — one admitted op, wherever its
/// record turns out to live.
void CompleteOps(Cluster* c, tx::Txn* txn, NodeId owner, int ops = 1) {
  if (txn == nullptr || txn->system) return;
  c->admission().Complete(owner, txn->now, ops);
}

/// Candidate locations of one key under the two-pointer protocol.
struct KeyRoute {
  catalog::Partition* part = nullptr;
  catalog::Partition* second = nullptr;
};

/// Two-pointer protocol (§4.3): whether the op must also visit the other
/// location — the primary missed (or its owner is down) while a move is in
/// flight, so the record may already live at `second`.
bool NeedsSecondVisit(const Status& primary, const catalog::Partition* second) {
  return second != nullptr && (primary.IsNotFound() || primary.IsUnavailable());
}

/// Whether the second visit's result replaces the primary's. A dead primary
/// and a missing secondary is "unreachable", not "absent": the key may well
/// exist on the downed node, so the primary's Unavailable stands (never
/// NotFound, which would let an upsert's insert shadow the dead copy).
bool SecondVisitDecides(const Status& primary, const Status& retry) {
  return !(primary.IsUnavailable() && retry.IsNotFound());
}

/// One write of `key` at `route`, after the hop to the primary owner has
/// been charged: run `op` on the primary; on a mid-move miss re-ship the
/// payload to the secondary (charged per straggler) and retry there; for an
/// upsert still NotFound, insert at the primary. `stats` (batches only)
/// counts the stragglers and the inserts.
Status WriteAt(Cluster* c, tx::Txn* txn, Key key, const KeyRoute& route,
               WriteOp op, const std::vector<uint8_t>& payload,
               BatchStats* stats) {
  const auto apply = [&](catalog::Partition* part) {
    Node* node = c->node(part->owner());
    return op == WriteOp::kDelete ? node->Delete(txn, part, key)
                                  : node->Update(txn, part, key, payload);
  };
  Status s = apply(route.part);
  if (NeedsSecondVisit(s, route.second)) {
    c->ChargeClientHop(txn, route.second->owner(), 96 + payload.size(), 32);
    if (stats != nullptr) ++stats->straggler_retries;
    const Status retry = apply(route.second);
    if (SecondVisitDecides(s, retry)) s = retry;
  }
  if (op != WriteOp::kUpsert || !s.IsNotFound()) return s;
  // Upsert tail: the insert rides the hop already charged to the primary,
  // which owns the key's route.
  if (stats != nullptr) ++stats->inserts;
  return c->node(route.part->owner())->Insert(txn, route.part, key, payload);
}

}  // namespace

Status RoutedRead(Cluster* c, tx::Txn* txn, TableId table, Key key,
                  storage::Record* out) {
  // Reads (and only reads) may land on a serving warm replica instead of
  // the owner; a replica miss falls back to the authoritative copy below,
  // so bounded staleness can cost a retry but never a wrong NotFound.
  auto [part, second] = c->RouteForRead(table, key);
  if (part == nullptr) return c->NoRouteStatus(table, key);
  WATTDB_RETURN_IF_ERROR(AdmitOps(c, txn, part->owner(), ClassOf(txn)));
  // Track which copy *determined* the result: a replica-served observation
  // is only staleness-bounded, and history checking must not hold it to
  // the strict register semantics.
  bool served_by_replica = part->is_replica();
  Status s = c->node(part->owner())->Read(txn, part, key, out);
  c->ChargeClientHop(txn, part->owner(), 96,
                     32 + (s.ok() ? out->StoredSize() : 0));
  if (NeedsSecondVisit(s, second)) {
    // A down owner (crashed node) is treated like a miss — the secondary
    // may hold the data, and once recovery remaps the range the retry
    // succeeds there. The same path serves the replica-fanout miss:
    // `second` is then the owner.
    const Status retry = c->node(second->owner())->Read(txn, second, key, out);
    c->ChargeClientHop(txn, second->owner(), 96,
                       32 + (retry.ok() ? out->StoredSize() : 0));
    if (SecondVisitDecides(s, retry)) {
      s = retry;
      served_by_replica = second->is_replica();
    }
  }
  if (s.ok() || s.IsNotFound()) {
    if (served_by_replica && txn != nullptr) ++txn->replica_reads;
  }
  CompleteOps(c, txn, part->owner());
  return s;
}

Status RoutedWrite(Cluster* c, tx::Txn* txn, TableId table, Key key,
                   WriteOp op, const std::vector<uint8_t>& payload) {
  auto [part, second] = c->RouteBoth(table, key);
  if (part == nullptr) return c->NoRouteStatus(table, key);
  WATTDB_RETURN_IF_ERROR(AdmitOps(c, txn, part->owner(), ClassOf(txn)));
  c->ChargeClientHop(txn, part->owner(), 96 + payload.size(), 32);
  const Status s =
      WriteAt(c, txn, key, KeyRoute{part, second}, op, payload,
              /*stats=*/nullptr);
  CompleteOps(c, txn, part->owner());
  return s;
}

Status RoutedInsert(Cluster* c, tx::Txn* txn, TableId table, Key key,
                    const std::vector<uint8_t>& payload) {
  catalog::Partition* part = c->RouteBoth(table, key).first;
  if (part == nullptr) return c->NoRouteStatus(table, key);
  WATTDB_RETURN_IF_ERROR(AdmitOps(c, txn, part->owner(), ClassOf(txn)));
  c->ChargeClientHop(txn, part->owner(), 96 + payload.size(), 32);
  const Status s = c->node(part->owner())->Insert(txn, part, key, payload);
  CompleteOps(c, txn, part->owner());
  return s;
}

namespace {

/// Key indexes grouped by the owner of their primary route, in first-
/// appearance order so charging is deterministic. An owner -> group index
/// keeps this O(keys) instead of O(keys × owners) — batches on wide
/// clusters touch many owners and this runs on every MultiGet/MultiPut.
std::vector<std::pair<NodeId, std::vector<size_t>>> GroupByOwner(
    const std::vector<KeyRoute>& routes) {
  std::vector<std::pair<NodeId, std::vector<size_t>>> groups;
  std::unordered_map<NodeId, size_t> group_of;
  group_of.reserve(routes.size());
  for (size_t i = 0; i < routes.size(); ++i) {
    if (routes[i].part == nullptr) continue;
    const NodeId owner = routes[i].part->owner();
    auto [it, inserted] = group_of.emplace(owner, groups.size());
    if (inserted) {
      groups.emplace_back(owner, std::vector<size_t>{i});
    } else {
      groups[it->second].second.push_back(i);
    }
  }
  return groups;
}

/// Worker lane of `key` at its routed partition, or -1 when no segment is
/// resolvable (a mid-move gap charges the shared pool like any work with
/// no segment affinity).
int LaneOfKey(Cluster* c, catalog::Partition* part, Key key) {
  if (!c->lanes().enabled() || part == nullptr) return -1;
  const SegmentId sid = part->SegmentFor(key);
  if (!sid.valid()) return -1;
  storage::Segment* seg = c->segments().Get(sid);
  if (seg == nullptr) return -1;
  return c->lanes().LaneOf(seg);
}

/// Fan one owner group out over the worker lanes of its keys' segments —
/// shared-nothing intra-node parallelism. The key indexes are sub-grouped
/// by lane in first-appearance order (`lane_of` runs once per index, in
/// index order: lanes are assigned lazily). Every lane's sub-batch runs
/// `body(i)` per index from the same start instant on that lane's private
/// timeline, and the group completes when its slowest lane does. With
/// lanes disabled the group is one plain serial batch.
template <typename LaneOf, typename Body>
void FanOutByLane(Cluster* c, tx::Txn* txn, const std::vector<size_t>& idxs,
                  LaneOf&& lane_of, Body&& body) {
  const SimTime start = txn->now;
  SimTime done = start;
  auto run = [&](const std::vector<size_t>& lane_idxs) {
    txn->now = start;
    for (size_t i : lane_idxs) body(i);
    done = std::max(done, txn->now);
  };
  if (!c->lanes().enabled()) {
    run(idxs);
  } else {
    std::vector<std::vector<size_t>> groups;
    std::unordered_map<int, size_t> group_of;
    group_of.reserve(idxs.size());
    for (size_t i : idxs) {
      auto [it, inserted] = group_of.emplace(lane_of(i), groups.size());
      if (inserted) {
        groups.push_back({i});
      } else {
        groups[it->second].push_back(i);
      }
    }
    for (const auto& lane_idxs : groups) run(lane_idxs);
  }
  txn->now = start;
  txn->AdvanceTo(done);
}

}  // namespace

Status RoutedMultiRead(Cluster* c, tx::Txn* txn, TableId table,
                       const std::vector<Key>& keys,
                       std::vector<StatusOr<storage::Record>>* out,
                       BatchStats* stats) {
  if (c == nullptr || txn == nullptr || out == nullptr) {
    return Status::InvalidArgument("RoutedMultiRead needs cluster/txn/out");
  }
  BatchStats local;
  out->assign(keys.size(),
              StatusOr<storage::Record>(Status::NotFound("no route")));

  std::vector<KeyRoute> routes(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    // Replica fan-out per key: hot keys spread over owner + serving
    // standbys, so one Zipf-hot owner stops bounding the whole batch.
    auto [part, second] = c->RouteForRead(table, keys[i]);
    routes[i] = KeyRoute{part, second};
    if (part == nullptr) {
      // Distinguish "unrouted" from "fenced mid-handoff" per key, like the
      // point ops do.
      (*out)[i] = StatusOr<storage::Record>(c->NoRouteStatus(table, keys[i]));
    }
  }

  const NodeId master_id = c->master()->id();
  for (const auto& [owner, idxs] : GroupByOwner(routes)) {
    // Whole-group admission: the group is one queued unit of idxs.size()
    // ops on the owner. A refused group fails its keys with
    // ResourceExhausted and the batch moves on — other owners' groups may
    // still be admitted (partial shedding, like a partial owner outage).
    const Status admit =
        AdmitOps(c, txn, owner, ClassOf(txn), static_cast<int>(idxs.size()));
    if (!admit.ok()) {
      for (size_t i : idxs) (*out)[i] = StatusOr<storage::Record>(admit);
      local.shed_ops += static_cast<int>(idxs.size());
      continue;
    }
    // One request listing the group's keys, one response carrying its
    // records: the whole group rides a single round trip. On the owner the
    // group fans out over the worker lanes of its keys' segments.
    size_t resp_bytes = 32;
    auto lane_of = [&](size_t i) {
      return LaneOfKey(c, routes[i].part, keys[i]);
    };
    FanOutByLane(c, txn, idxs, lane_of, [&](size_t i) {
      storage::Record rec;
      Status s = c->node(owner)->Read(txn, routes[i].part, keys[i], &rec);
      resp_bytes += s.ok() ? 32 + rec.StoredSize() : 8;
      // Conservative replica tagging: a straggler retry below may still
      // land on the authoritative copy, but over-tagging only relaxes what
      // history checking asserts about the observation.
      if ((s.ok() || s.IsNotFound()) && routes[i].part->is_replica()) {
        ++txn->replica_reads;
      }
      (*out)[i] = s.ok() ? StatusOr<storage::Record>(std::move(rec))
                         : StatusOr<storage::Record>(s);
    });
    c->ChargeClientHop(txn, owner, 96 + 8 * idxs.size(), resp_bytes);
    if (owner != master_id) ++local.owner_round_trips;
    CompleteOps(c, txn, owner, static_cast<int>(idxs.size()));
  }

  // Two-pointer protocol (§4.3): mid-move a record may already live at the
  // other location. Stragglers are retried one by one — they missed the
  // batch and pay their own hop.
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!NeedsSecondVisit((*out)[i].status(), routes[i].second)) continue;
    storage::Record rec;
    const NodeId owner = routes[i].second->owner();
    Status s = c->node(owner)->Read(txn, routes[i].second, keys[i], &rec);
    c->ChargeClientHop(txn, owner, 96, 32 + (s.ok() ? rec.StoredSize() : 0));
    ++local.straggler_retries;
    if (s.ok()) (*out)[i] = std::move(rec);
  }

  if (stats != nullptr) stats->Add(local);
  return Status::OK();
}

Status RoutedMultiWrite(Cluster* c, tx::Txn* txn, TableId table,
                        const std::vector<KeyValue>& kvs,
                        std::vector<Status>* out, BatchStats* stats) {
  if (c == nullptr || txn == nullptr || out == nullptr) {
    return Status::InvalidArgument("RoutedMultiWrite needs cluster/txn/out");
  }
  BatchStats local;
  out->assign(kvs.size(), Status::NotFound("no route"));

  std::vector<KeyRoute> routes(kvs.size());
  for (size_t i = 0; i < kvs.size(); ++i) {
    auto [part, second] = c->RouteBoth(table, kvs[i].key);
    routes[i] = KeyRoute{part, second};
    if (part == nullptr) (*out)[i] = c->NoRouteStatus(table, kvs[i].key);
  }

  const NodeId master_id = c->master()->id();
  for (const auto& [owner, idxs] : GroupByOwner(routes)) {
    // Whole-group admission, as in RoutedMultiRead.
    const Status admit =
        AdmitOps(c, txn, owner, ClassOf(txn), static_cast<int>(idxs.size()));
    if (!admit.ok()) {
      for (size_t i : idxs) (*out)[i] = admit;
      local.shed_ops += static_cast<int>(idxs.size());
      continue;
    }
    // The request ships every payload of the group at once (mirroring the
    // per-op order: charge, then write).
    size_t req_bytes = 96;
    for (size_t i : idxs) req_bytes += 8 + kvs[i].payload.size();
    c->ChargeClientHop(txn, owner, req_bytes, 32);
    if (owner != master_id) ++local.owner_round_trips;

    auto lane_of = [&](size_t i) {
      return LaneOfKey(c, routes[i].part, kvs[i].key);
    };
    FanOutByLane(c, txn, idxs, lane_of, [&](size_t i) {
      (*out)[i] = WriteAt(c, txn, kvs[i].key, routes[i], WriteOp::kUpsert,
                          kvs[i].payload, &local);
    });
    CompleteOps(c, txn, owner, static_cast<int>(idxs.size()));
  }

  if (stats != nullptr) stats->Add(local);
  return Status::OK();
}

Status RoutedScan(Cluster* c, tx::Txn* txn, TableId table,
                  const KeyRange& range,
                  const std::function<bool(const storage::Record&)>& fn) {
  // A range may span several partitions mid-migration: visit each route.
  // ScanRange returns OK for both completion and an early stop, so the
  // callback's verdict is tracked here to stop the cross-route loop too.
  bool stopped = false;
  for (const auto& route : c->catalog().RoutesInRange(table, range)) {
    catalog::Partition* part =
        c->RouteBoth(table, std::max(range.lo, route.range.lo)).first;
    if (part == nullptr) {
      // A fenced range must abort the scan, not be silently skipped — a
      // committed-but-unscanned record would read as lost.
      const Status rs =
          c->NoRouteStatus(table, std::max(range.lo, route.range.lo));
      if (rs.IsUnavailable()) return rs;
      continue;
    }
    const KeyRange sub{std::max(range.lo, route.range.lo),
                       std::min(range.hi, route.range.hi)};
    if (sub.Empty()) continue;
    // Scans always ride the batch class: under pressure a refused range
    // chunk aborts the scan (retryable at leisure) while point lookups
    // keep their reserved headroom.
    WATTDB_RETURN_IF_ERROR(
        AdmitOps(c, txn, part->owner(), admission::OpClass::kBatch));
    // Response sized by this route's records only (the historical scan
    // charged a running total across routes, double-billing earlier ones).
    size_t shipped = 0;
    Status s = c->node(part->owner())
                   ->ScanRange(txn, part, sub, [&](const storage::Record& r) {
                     shipped += r.StoredSize();
                     stopped = !fn(r);
                     return !stopped;
                   });
    if (!s.ok()) return s;
    c->ChargeClientHop(txn, part->owner(), 96, 32 + shipped);
    CompleteOps(c, txn, part->owner());
    if (stopped) break;
  }
  return Status::OK();
}

}  // namespace wattdb::cluster
