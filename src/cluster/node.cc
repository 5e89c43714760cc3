#include "cluster/node.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace wattdb::cluster {

Node::Node(NodeId id, const hw::NodeHardwareSpec& hw_spec,
           const storage::BufferSpec& buffer_spec, const NodeCostConfig& costs,
           tx::CcScheme cc, DiskId first_disk_id,
           storage::SegmentManager* segments, tx::TransactionManager* tm,
           hw::Network* network, storage::BufferManager::DiskResolver resolver)
    : id_(id),
      costs_(costs),
      cc_(cc),
      hw_(id, hw_spec, first_disk_id),
      buffer_(id, buffer_spec, segments, network, std::move(resolver)),
      segments_(segments),
      tm_(tm),
      network_(network) {
  // The WAL shares the first SSD with data segments — on the paper's nodes
  // log and data compete for the storage subsystem's bandwidth, which is
  // exactly why logging slows while rebalancing and why shipping the log to
  // a helper node pays off (§5.2, Fig. 7). The HDD holds cold archives.
  const size_t log_disk_idx =
      hw_.num_disks() > static_cast<size_t>(hw_spec.num_hdd)
          ? static_cast<size_t>(hw_spec.num_hdd)
          : 0;
  log_ = std::make_unique<tx::LogManager>(id, hw_.disk(log_disk_idx), network);
}

hw::Disk* Node::DataDisk(SimTime now) {
  // Data segments go to the SSDs, balanced by allocated bytes (§3.4:
  // utilization is balanced across local disks first). The first SSD also
  // carries the WAL, so data, migration streams, and log appends compete
  // for the same storage bandwidth — the paper's Fig. 7 bottleneck.
  hw::Disk* best = nullptr;
  size_t best_load = 0;
  for (auto& d : hw_.disks()) {
    if (d->spec().kind != hw::DiskKind::kSsd) continue;
    size_t load = 0;
    for (storage::Segment* seg : segments_->SegmentsOn(id_)) {
      if (seg->disk() == d->id()) load += seg->DiskBytes();
    }
    if (best == nullptr || load < best_load ||
        (load == best_load &&
         d->resource().Backlog(now) < best->resource().Backlog(now))) {
      best = d.get();
      best_load = load;
    }
  }
  return best != nullptr ? best : hw_.LeastLoadedDisk(now);
}

void Node::ChargeCpu(tx::Txn* txn, SimTime service_us, storage::Segment* seg) {
  // Timeslice long computations so concurrent transactions share the cores
  // instead of demanding one contiguous reservation.
  constexpr SimTime kSliceUs = 4000;
  // With the lane policy on, work targeting a known segment runs on that
  // segment's worker lane — its private execution timeline. Ops on other
  // lanes of this node proceed in parallel; the shared core pool is used
  // only for work with no segment affinity (and when lanes are off).
  sim::Resource* lane = nullptr;
  if (lanes_ != nullptr && lanes_->enabled() && seg != nullptr) {
    lane = lanes_->lane(id_, lanes_->LaneOf(seg));
  }
  while (service_us > 0) {
    const SimTime slice = std::min(service_us, kSliceUs);
    const SimTime done = lane != nullptr ? lane->Acquire(txn->now, slice)
                                         : hw_.cpu().Acquire(txn->now, slice);
    txn->cpu_us += done - txn->now;  // Queueing + service.
    txn->AdvanceTo(done);
    service_us -= slice;
  }
}

SimTime Node::ProbeCost(const storage::Segment* seg) const {
  if (seg == nullptr) return costs_.cpu_index_probe_us;
  // The pluggable index surfaces its point-probe cost relative to the
  // B+-tree baseline (hash: no root-to-leaf walk).
  return std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(costs_.cpu_index_probe_us) *
                                  seg->probe_cost_factor() +
                              0.5));
}

void Node::FetchPage(tx::Txn* txn, SegmentId seg, uint16_t page,
                     bool for_write) {
  const storage::PageAccess acc = buffer_.FetchPage(txn->now, seg, page,
                                                    for_write);
  txn->disk_us += acc.disk_us;
  txn->net_us += acc.net_us;
  txn->latch_us += acc.latch_us;
  txn->AdvanceTo(acc.done);
}

void Node::AcquireLock(tx::Txn* txn, const tx::LockResource& res,
                       tx::LockMode mode) {
  const tx::LockGrant grant = tm_->locks().Acquire(
      res, mode, txn->id, txn->now, txn->now + costs_.lock_hold_estimate_us);
  txn->lock_wait_us += grant.waited_us;
  txn->AdvanceTo(grant.granted_at);
}

void Node::LockForRead(tx::Txn* txn, catalog::Partition* part, Key key) {
  if (cc_ == tx::CcScheme::kMvcc) return;  // Snapshot reads take no locks.
  AcquireLock(txn, tx::LockResource::Partition(part->id()), tx::LockMode::kIS);
  AcquireLock(txn, tx::LockResource::Record(part->id(), key),
              tx::LockMode::kS);
}

void Node::LockForWrite(tx::Txn* txn, catalog::Partition* part, Key key) {
  // Writers take IX + X under both schemes; under MVCC this is what makes
  // the migration drain (partition read lock, §4.3) block new writers while
  // readers continue.
  AcquireLock(txn, tx::LockResource::Partition(part->id()), tx::LockMode::kIX);
  AcquireLock(txn, tx::LockResource::Record(part->id(), key),
              tx::LockMode::kX);
}

void Node::AppendWal(tx::Txn* txn, tx::LogRecordType type,
                     catalog::Partition* part, Key key,
                     const std::vector<uint8_t>* after) {
  tx::LogRecord rec;
  rec.type = type;
  rec.txn = txn->id;
  if (part != nullptr) {
    rec.table = part->table();
    rec.partition = part->id();
  }
  rec.key = key;
  if (after != nullptr) rec.after_image = *after;
  const SimTime durable = log_->Append(txn->now, std::move(rec));
  txn->log_us += durable - txn->now;
  txn->AdvanceTo(durable);
}

Status Node::Read(tx::Txn* txn, catalog::Partition* part, Key key,
                  storage::Record* out) {
  if (!IsActive()) return Status::Unavailable("node in standby");
  LockForRead(txn, part, key);
  // Segment resolution is a free in-memory top-index walk; doing it before
  // the probe charge lets the probe (and everything after) land on the
  // segment's worker lane instead of the shared core pool.
  const SegmentId sid = part->SegmentFor(key);
  storage::Segment* seg = sid.valid() ? segments_->Get(sid) : nullptr;
  if (sid.valid()) WATTDB_CHECK(seg != nullptr);
  ChargeCpu(txn, ProbeCost(seg), seg);

  const auto view =
      tm_->versions().Read(part->table(), key, txn->begin_ts, txn->id);
  using Source = tx::VersionStore::ReadView::Source;
  switch (view.source) {
    case Source::kDeleted:
    case Source::kInvisible:
      return Status::NotFound("no visible version");
    case Source::kChain: {
      // Old version served from the (in-memory) version store.
      ChargeCpu(txn, costs_.cpu_record_read_us, seg);
      out->key = key;
      out->payload = *view.payload;
      return Status::OK();
    }
    case Source::kPage:
      break;
  }
  if (seg == nullptr) return Status::NotFound("key outside partition");
  auto pos = seg->Locate(key);
  if (!pos.ok()) return Status::NotFound("no such record");
  FetchPage(txn, sid, pos.value().page, /*for_write=*/false);
  auto rec = seg->ReadAt(pos.value());
  if (!rec.ok()) return rec.status();
  ChargeCpu(txn, costs_.cpu_record_read_us, seg);
  *out = std::move(rec).value();
  return Status::OK();
}

StatusOr<storage::Segment*> Node::AllocateSegment(SimTime now,
                                                  catalog::Partition* part,
                                                  const KeyRange& range) {
  hw::Disk* disk = DataDisk(now);
  storage::Segment* seg = segments_->Create(id_, disk->id());
  Status s = part->AttachSegment(range, seg->id());
  if (!s.ok()) {
    (void)segments_->Drop(seg->id());
    return s;
  }
  return seg;
}

StatusOr<storage::Segment*> Node::SegmentForInsert(SimTime now, tx::Txn* txn,
                                                   catalog::Partition* part,
                                                   Key key) {
  const SegmentId sid = part->SegmentFor(key);
  if (!sid.valid()) {
    // No covering segment: carve the gap between neighbors, clamped to the
    // route entry covering the key so the fresh segment never claims keys
    // this partition does not own (an over-wide claim turns into wrong
    // NotFounds and heal-time data drops downstream).
    KeyRange gap{kMinKey, kMaxKey};
    if (route_bound_) {
      const KeyRange bound = route_bound_(part->table(), key);
      if (bound.Contains(key)) gap = bound;
    }
    for (const auto& e : part->top_index().All()) {
      if (e.range.hi <= key) gap.lo = std::max(gap.lo, e.range.hi);
      if (e.range.lo > key) gap.hi = std::min(gap.hi, e.range.lo);
    }
    return AllocateSegment(now, part, gap);
  }
  storage::Segment* seg = segments_->Get(sid);
  WATTDB_CHECK(seg != nullptr);
  // While the segment can still materialize pages it can always accept the
  // record (pages grow on demand up to the 32 MB geometry).
  if (seg->page_count() < kPagesPerSegment) {
    return seg;
  }
  // Segment is full: split its key range at the insert key. For the
  // monotonically increasing keys of TPC-C inserts this is a pure tail
  // split with no record movement.
  const KeyRange old_range = part->top_index().RangeOf(sid);
  const Key split = std::max(old_range.lo + 1, key);
  if (split <= old_range.lo || split >= old_range.hi) {
    return Status::ResourceExhausted("cannot split segment range");
  }
  WATTDB_RETURN_IF_ERROR(part->DetachSegment(sid));
  WATTDB_RETURN_IF_ERROR(
      part->AttachSegment(KeyRange{old_range.lo, split}, sid));
  auto fresh = AllocateSegment(now, part, KeyRange{split, old_range.hi});
  if (!fresh.ok()) return fresh.status();
  storage::Segment* target = fresh.value();
  // Records >= split must move to the fresh segment (none when keys grow).
  std::vector<storage::Record> to_move;
  seg->ScanRange(split, kMaxKey, [&](const storage::Record& r) {
    to_move.push_back(r);
    return true;
  });
  for (const auto& r : to_move) {
    auto ins = target->Insert(r.key, r.payload);
    WATTDB_CHECK(ins.ok());
    WATTDB_CHECK(seg->Delete(r.key).ok());
    if (txn != nullptr) ChargeCpu(txn, costs_.cpu_record_write_us, target);
  }
  return target;
}

Status Node::Insert(tx::Txn* txn, catalog::Partition* part, Key key,
                    const std::vector<uint8_t>& payload) {
  if (!IsActive()) return Status::Unavailable("node in standby");
  LockForWrite(txn, part, key);
  // Resolve the target segment first so the probe charge can be routed to
  // its worker lane (allocation/split costs inside still charge normally).
  auto seg = SegmentForInsert(txn->now, txn, part, key);
  if (!seg.ok()) return seg.status();
  ChargeCpu(txn, ProbeCost(seg.value()), seg.value());
  auto pos = seg.value()->Insert(key, payload);
  if (!pos.ok()) return pos.status();
  FetchPage(txn, seg.value()->id(), pos.value().page, /*for_write=*/true);
  WATTDB_RETURN_IF_ERROR(tm_->versions().Write(
      part->table(), key, *txn, /*prior_in_page=*/std::nullopt, payload,
      /*deleted=*/false));
  ChargeCpu(txn, costs_.cpu_record_write_us, seg.value());
  AppendWal(txn, tx::LogRecordType::kInsert, part, key, &payload);
  return Status::OK();
}

Status Node::Update(tx::Txn* txn, catalog::Partition* part, Key key,
                    const std::vector<uint8_t>& payload) {
  return Rewrite(txn, part, key, &payload);
}

Status Node::Delete(tx::Txn* txn, catalog::Partition* part, Key key) {
  return Rewrite(txn, part, key, /*after=*/nullptr);
}

Status Node::Rewrite(tx::Txn* txn, catalog::Partition* part, Key key,
                     const std::vector<uint8_t>* after) {
  if (!IsActive()) return Status::Unavailable("node in standby");
  LockForWrite(txn, part, key);
  const SegmentId sid = part->SegmentFor(key);
  storage::Segment* seg = sid.valid() ? segments_->Get(sid) : nullptr;
  if (sid.valid()) WATTDB_CHECK(seg != nullptr);
  ChargeCpu(txn, ProbeCost(seg), seg);
  if (seg == nullptr) return Status::NotFound("key outside partition");
  auto pos = seg->Locate(key);
  if (!pos.ok()) return Status::NotFound("no such record");
  // Read-modify-write: fetch for read, preserve pre-image for old
  // snapshots, then write in place (or delete).
  FetchPage(txn, sid, pos.value().page, /*for_write=*/false);
  auto current = seg->ReadAt(pos.value());
  if (!current.ok()) return current.status();
  const bool deleted = after == nullptr;
  WATTDB_RETURN_IF_ERROR(tm_->versions().Write(
      part->table(), key, *txn, std::move(current.value().payload),
      deleted ? std::nullopt : std::make_optional(*after), deleted));
  WATTDB_RETURN_IF_ERROR(deleted ? seg->DeleteAt(pos.value(), key)
                                 : seg->UpdateAt(pos.value(), key, *after));
  FetchPage(txn, sid, pos.value().page, /*for_write=*/true);
  ChargeCpu(txn, costs_.cpu_record_write_us, seg);
  AppendWal(txn,
            deleted ? tx::LogRecordType::kDelete : tx::LogRecordType::kUpdate,
            part, key, after);
  return Status::OK();
}

Status Node::ScanRange(tx::Txn* txn, catalog::Partition* part,
                       const KeyRange& range,
                       const std::function<bool(const storage::Record&)>& fn) {
  if (!IsActive()) return Status::Unavailable("node in standby");
  if (cc_ == tx::CcScheme::kMglRx) {
    // Coarse S lock on the partition for the scan.
    AcquireLock(txn, tx::LockResource::Partition(part->id()),
                tx::LockMode::kS);
  }
  ChargeCpu(txn, costs_.cpu_index_probe_us);

  // Overlay: chain-resolved keys in range (includes records deleted from
  // pages but visible to this snapshot).
  using Source = tx::VersionStore::ReadView::Source;
  struct Overlay {
    Source source;
    const std::vector<uint8_t>* payload;
    bool consumed = false;
  };
  std::unordered_map<Key, Overlay> overlay;
  tm_->versions().ForEachResolvedInRange(
      part->table(), range.lo, range.hi, txn->begin_ts, txn->id,
      [&](Key k, const tx::VersionStore::ReadView& view) {
        overlay[k] = Overlay{view.source, view.payload, false};
      });

  bool keep_going = true;
  for (const auto& entry : part->SegmentsInRange(range)) {
    if (!keep_going) break;
    storage::Segment* seg = segments_->Get(entry.segment);
    WATTDB_CHECK(seg != nullptr);
    uint16_t last_page = UINT16_MAX;
    seg->ScanRange(std::max(range.lo, entry.range.lo),
                   std::min(range.hi, entry.range.hi),
                   [&](const storage::Record& rec) {
                     auto pos = seg->Locate(rec.key);
                     if (pos.ok() && pos.value().page != last_page) {
                       last_page = pos.value().page;
                       FetchPage(txn, seg->id(), last_page, false);
                     }
                     ChargeCpu(txn, costs_.cpu_scan_record_us, seg);
                     auto ov = overlay.find(rec.key);
                     if (ov != overlay.end()) {
                       ov->second.consumed = true;
                       switch (ov->second.source) {
                         case Source::kDeleted:
                         case Source::kInvisible:
                           return true;  // Not visible to this snapshot.
                         case Source::kChain: {
                           storage::Record old;
                           old.key = rec.key;
                           old.payload = *ov->second.payload;
                           keep_going = fn(old);
                           return keep_going;
                         }
                         case Source::kPage:
                           break;
                       }
                     }
                     keep_going = fn(rec);
                     return keep_going;
                   });
    // Chain-only keys within this segment's covered range (deleted from the
    // pages but visible to old snapshots).
    if (keep_going) {
      const Key lo = std::max(range.lo, entry.range.lo);
      const Key hi = std::min(range.hi, entry.range.hi);
      for (auto& [k, ov] : overlay) {
        if (ov.consumed || k < lo || k >= hi) continue;
        ov.consumed = true;
        if (ov.source == Source::kChain && ov.payload != nullptr) {
          storage::Record old;
          old.key = k;
          old.payload = *ov.payload;
          ChargeCpu(txn, costs_.cpu_scan_record_us, seg);
          keep_going = fn(old);
          if (!keep_going) break;
        }
      }
    }
  }
  return Status::OK();
}

Status Node::LogCommit(tx::Txn* txn) {
  AppendWal(txn, tx::LogRecordType::kCommit, nullptr, 0, nullptr);
  return Status::OK();
}

void Node::ApplyUndo(
    const std::vector<tx::VersionStore::UndoEntry>& undo,
    const std::function<catalog::Partition*(TableId, Key)>& resolve) {
  for (const auto& e : undo) {
    catalog::Partition* part = resolve(e.table, e.key);
    if (part == nullptr) continue;
    const SegmentId sid = part->SegmentFor(e.key);
    storage::Segment* seg = sid.valid() ? segments_->Get(sid) : nullptr;
    StatusOr<storage::RecordPos> pos = Status::NotFound("no covering segment");
    if (seg != nullptr) pos = seg->Locate(e.key);
    if (e.pre_image.has_value()) {
      // Aborted update or delete: restore the pre-image.
      if (pos.ok()) {
        WATTDB_CHECK(seg->UpdateAt(pos.value(), e.key, *e.pre_image).ok());
      } else if (seg != nullptr) {
        WATTDB_CHECK(seg->Insert(e.key, *e.pre_image).ok());
      } else {
        // No segment covers the key here: the restore is silently lost and
        // a committed record deleted-then-aborted stays deleted. The
        // resolver is supposed to prefer a partition whose top index covers
        // the key, so reaching this is a durability bug worth shouting.
        WATTDB_WARN("undo restore dropped: no segment covers key "
                    << e.key << " on node " << id_.value() << " partition "
                    << part->id().value());
      }
    } else {
      // Aborted insert: remove the provisional record.
      if (pos.ok()) WATTDB_CHECK(seg->DeleteAt(pos.value(), e.key).ok());
    }
  }
}

Status Node::RedoInto(catalog::Partition* part,
                      const std::vector<tx::LogRecord>& tail) {
  for (const auto& rec : tail) {
    if (rec.partition != part->id()) continue;
    switch (rec.type) {
      case tx::LogRecordType::kInsert: {
        auto seg = SegmentForInsert(/*now=*/0, /*txn=*/nullptr, part, rec.key);
        if (!seg.ok()) return seg.status();
        auto pos = seg.value()->Insert(rec.key, rec.after_image);
        if (!pos.ok() && !pos.status().IsAlreadyExists()) return pos.status();
        break;
      }
      case tx::LogRecordType::kUpdate: {
        const SegmentId sid = part->SegmentFor(rec.key);
        // No covering segment: the range's segment was deliberately dropped
        // after this record was logged (heal-time stale-copy reconciliation,
        // or a mid-move detach) — the data intentionally left this partition,
        // so replaying the record would resurrect it as unrouted garbage.
        if (!sid.valid()) break;
        // Upsert: the after-image fully determines the record, and the tail
        // may legally update a key a preceding record deleted (an abort's
        // compensation record restoring the pre-image of a deleted row).
        Status up = segments_->Get(sid)->Update(rec.key, rec.after_image);
        if (up.IsNotFound()) {
          up = segments_->Get(sid)->Insert(rec.key, rec.after_image).status();
        }
        WATTDB_RETURN_IF_ERROR(up);
        break;
      }
      case tx::LogRecordType::kDelete: {
        const SegmentId sid = part->SegmentFor(rec.key);
        // Dropped segment: deleting from it is already more than done.
        if (!sid.valid()) break;
        // Idempotent: the delete may have reached the page before the
        // crash, in which case replaying it is a no-op.
        const Status del = segments_->Get(sid)->Delete(rec.key);
        if (!del.ok() && !del.IsNotFound()) return del;
        break;
      }
      default:
        break;
    }
  }
  return Status::OK();
}

}  // namespace wattdb::cluster
