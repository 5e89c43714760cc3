#include "cluster/cluster.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::cluster {

namespace {
/// Power/metric sampling period.
constexpr SimTime kSamplePeriod = kUsPerSec;
}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), events_(&clock_), network_(config.network),
      power_model_(config.power), lanes_(config.lanes, config.num_nodes),
      rng_(config.seed), node_states_(config.num_nodes) {
  WATTDB_CHECK(config.num_nodes >= 1);
  WATTDB_CHECK(config.initially_active >= 1);
  segments_.set_index_kind(config.index_kind);
  const int disks_per_node = config.node_hw.num_hdd + config.node_hw.num_ssd;
  for (int i = 0; i < config.num_nodes; ++i) {
    const NodeId id(i);
    network_.AddNode(id);
    auto node = std::make_unique<Node>(
        id, config.node_hw, config.buffer, config.costs, config.cc,
        DiskId(static_cast<uint32_t>(i * disks_per_node)), &segments_, &tm_,
        &network_, [this](DiskId d) { return FindDisk(d); });
    node->set_lane_manager(&lanes_);
    node->set_route_bound_fn([this](TableId table, Key key) {
      const auto entry = catalog_.Route(table, key);
      return entry.has_value() ? entry->range : KeyRange{kMinKey, kMaxKey};
    });
    for (auto& disk : node->hardware().disks()) {
      disk_index_[disk->id()] = disk.get();
    }
    node->hardware().set_power_state(i < config.initially_active
                                         ? hw::PowerState::kActive
                                         : hw::PowerState::kStandby);
    nodes_.push_back(std::move(node));
  }
}

std::vector<Node*> Cluster::ActiveNodes() {
  std::vector<Node*> out;
  for (auto& n : nodes_) {
    if (n->IsActive()) out.push_back(n.get());
  }
  return out;
}

int Cluster::ActiveNodeCount() const {
  int n = 0;
  for (const auto& node : nodes_) {
    if (node->hardware().power_state() == hw::PowerState::kActive) ++n;
  }
  return n;
}

Status Cluster::PowerOn(NodeId id, std::function<void()> on_ready) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  if (n->hardware().power_state() == hw::PowerState::kActive) {
    if (on_ready) on_ready();
    return Status::OK();
  }
  if (n->hardware().power_state() == hw::PowerState::kBooting) {
    return Status::Busy("already booting");
  }
  n->hardware().set_power_state(hw::PowerState::kBooting);
  events_.ScheduleAfter(config_.node_hw.boot_time_us,
                        [this, id, cb = std::move(on_ready)]() {
                          node(id)->hardware().set_power_state(
                              hw::PowerState::kActive);
                          WATTDB_INFO("node " << id.value() << " active");
                          if (cb) cb();
                        });
  return Status::OK();
}

Status Cluster::PowerOff(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  if (n->IsMaster()) return Status::InvalidArgument("master never sleeps");
  const std::vector<storage::Segment*> resident = segments_.SegmentsOn(id);
  if (!resident.empty()) {
    // "Nodes still having data on disk must not shut down" (§4): name the
    // offender so the caller can see what still needs draining.
    const storage::Segment* seg = resident.front();
    return Status::Busy(
        "node " + std::to_string(id.value()) + " still holds " +
        std::to_string(resident.size()) + " segment(s); e.g. segment " +
        std::to_string(seg->id().value()) + " with " +
        std::to_string(seg->DiskBytes()) + " bytes on disk");
  }
  const auto owned = catalog_.PartitionsOwnedBy(id);
  if (!owned.empty()) {
    return Status::Busy("node " + std::to_string(id.value()) +
                        " still owns " + std::to_string(owned.size()) +
                        " partition(s); e.g. partition " +
                        std::to_string(owned.front()->id().value()));
  }
  n->hardware().set_power_state(hw::PowerState::kStandby);
  return Status::OK();
}

bool Cluster::EligibleFor(NodeId id, Role role) const {
  if (!id.valid() || id.value() >= nodes_.size()) return false;
  const Node& n = *nodes_[id.value()];
  const NodeState& s = node_states_[id.value()];
  // Suspected, declared dead and restarting, or crashed per ground truth.
  const bool unhealthy = s.missed > 0 || s.healing || s.crashed;
  switch (role) {
    case Role::kRecruit:
      return n.hardware().power_state() == hw::PowerState::kStandby &&
             !s.excluded && !unhealthy;
    case Role::kHeatTarget:
      return n.IsActive() && !s.helper && s.watched && !unhealthy;
    case Role::kScaleInVictim:
      return n.IsActive() && !s.partitioned && !n.IsMaster() && !s.helper &&
             !s.crashed;
    case Role::kHelper:
      return !s.excluded && !unhealthy;
    case Role::kReplicaHost:
      return n.IsActive() && !n.IsMaster() && !s.excluded && !s.helper &&
             !s.crashed;
    case Role::kDrainSurvivor:
      return n.IsActive() && !s.partitioned;
  }
  return false;
}

void Cluster::MarkCrashed(NodeId id) {
  NodeState& s = node_states_.at(id.value());
  s.crashed = true;
  s.crashed_at = clock_.Now();
  ++s.crashes;
}

void Cluster::MarkRecovered(NodeId id) {
  node_states_.at(id.value()).crashed = false;
}

void Cluster::NoteReported(NodeId id) {
  NodeState& s = node_states_.at(id.value());
  if (!s.excluded) s.watched = true;
  s.missed = 0;
  s.healing = false;
}

int Cluster::NoteMissedWindow(NodeId id) {
  return ++node_states_.at(id.value()).missed;
}

int Cluster::NoteDeclaredDead(NodeId id) {
  NodeState& s = node_states_.at(id.value());
  s.watched = false;
  s.missed = 0;
  return ++s.declared_dead;
}

void Cluster::FinishHealing(NodeId id) {
  NodeState& s = node_states_.at(id.value());
  s.missed = 0;
  s.healing = false;
}

void Cluster::StopWatching(NodeId id) {
  NodeState& s = node_states_.at(id.value());
  s.watched = false;
  s.missed = 0;
  s.healing = false;
}

void Cluster::Exclude(NodeId id) {
  node_states_.at(id.value()).excluded = true;
  StopWatching(id);
}

Status Cluster::PartitionNode(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  if (n->IsMaster()) {
    return Status::InvalidArgument(
        "cannot partition the master from itself: it holds the catalog");
  }
  if (!n->IsActive()) {
    return Status::FailedPrecondition(
        "node " + std::to_string(id.value()) +
        " is down; a partition separates a *live* node from the master");
  }
  NodeState& state = node_states_[id.value()];
  if (state.partitioned) {
    return Status::AlreadyExists("node already partitioned");
  }
  state.partitioned = true;
  WATTDB_INFO("net: node " << id.value() << " partitioned from master at t="
                           << ToSeconds(clock_.Now()) << "s");
  return Status::OK();
}

Status Cluster::HealPartition(NodeId id) {
  Node* n = node(id);
  if (n == nullptr) return Status::NotFound("no such node");
  NodeState& state = node_states_[id.value()];
  if (!state.partitioned) return Status::NotFound("node is not partitioned");
  state.partitioned = false;
  // Reconcile what happened while the node was deposed. Unlike a crash
  // restart there is no redo pass — the node never lost anything — so the
  // catalog walk happens here.
  for (catalog::Partition* p : catalog_.PartitionsOwnedBy(id)) {
    if (p->is_replica()) continue;
    // A fixed claim token for the whole walk: restamping one range must
    // not inflate the claim the next range is judged under.
    const uint64_t token = p->route_epoch();
    for (const auto& entry : p->top_index().All()) {
      const auto route = catalog_.Route(p->table(), entry.range.lo);
      if (route.has_value() && route->primary == p->id()) {
        // Still the owner. Heal any orphaned fence (promotion sealed the
        // range but the flip never landed — the standby died first): the
        // live owner lost nothing, so restamp it authoritative again.
        (void)catalog_.HealOrphanedFences(*p, entry.range, token);
        continue;
      }
      if (route.has_value() && route->secondary == p->id()) continue;
      // The range was promoted away while this node was deposed. The
      // catalog's owner has been taking writes — this copy is stale and
      // must be dropped, never reclaimed (reclaiming would doubly-serve
      // every write the new owner committed).
      (void)n->DiscardSegment(p, entry.segment);
      WATTDB_INFO("net: node " << id.value() << " heal: stale copy of ["
                               << entry.range.lo << "," << entry.range.hi
                               << ") dropped");
    }
    if (p->top_index().All().empty() && catalog_.RouteRefs(p->id()) == 0) {
      (void)catalog_.DropPartition(p->id());
    }
  }
  WATTDB_INFO("net: node " << id.value() << " rejoined at t="
                           << ToSeconds(clock_.Now()) << "s");
  return Status::OK();
}

bool Cluster::EntryFenced(const catalog::RouteEntry& entry) const {
  if (!epoch_fencing_) return false;
  const catalog::Partition* p = catalog_.GetPartition(entry.primary);
  return p != nullptr && p->route_epoch() < entry.epoch;
}

Status Cluster::NoRouteStatus(TableId table, Key key) const {
  auto entry = catalog_.Route(table, key);
  if (entry.has_value() && EntryFenced(*entry)) {
    return Status::Unavailable("route fenced: ownership handoff in flight");
  }
  return Status::NotFound("no route");
}

double Cluster::WattsIn(SimTime from, SimTime to) const {
  if (to <= from) return 0.0;
  double watts = power_model_.SwitchWatts();
  for (const auto& n : nodes_) {
    watts += n->hardware().PowerIn(power_model_, from, to);
  }
  return watts;
}

void Cluster::StartSampling(metrics::TimeSeries* series) {
  series_ = series;
  if (sampling_) return;
  sampling_ = true;
  last_sample_ = clock_.Now();
  events_.ScheduleAfter(kSamplePeriod, [this]() { SampleTick(); });
}

void Cluster::SampleTick() {
  if (!sampling_) return;
  const SimTime now = clock_.Now();
  const double watts = WattsIn(last_sample_, now);
  energy_.Accumulate(watts, last_sample_, now);
  if (series_ != nullptr) {
    series_->RecordPower(last_sample_, now, watts);
  }
  // Prune resource interval bookkeeping we have already accounted, keeping
  // enough history for the master's monitoring windows.
  const SimTime keep_from = now - kResourceHistoryKeep;
  for (auto& n : nodes_) n->hardware().Prune(keep_from);
  lanes_.Prune(keep_from);
  network_.Prune(keep_from);
  tm_.locks().Prune(last_sample_);
  if (auto_vacuum_) tm_.Vacuum();
  last_sample_ = now;
  events_.ScheduleAfter(kSamplePeriod, [this]() { SampleTick(); });
}

SimTime Cluster::CommitTxn(Node* coordinator, tx::Txn* txn) {
  coordinator->LogCommit(txn);
  tm_.Commit(txn);
  const SimTime latency = txn->Elapsed();
  return latency;
}

void Cluster::AbortTxn(tx::Txn* txn) {
  auto undo = tm_.Abort(txn);
  // Undo must be applied at the location that actually holds the record —
  // during a move the primary route may still point at the old partition
  // while the write (and therefore the undo target) lives at the new one.
  auto resolve = [this, txn](TableId table, Key key) -> catalog::Partition* {
    auto [first, second] = RouteBoth(txn, table, key);
    if (first != nullptr) {
      const SegmentId sid = first->SegmentFor(key);
      if (sid.valid()) {
        storage::Segment* seg = segments_.Get(sid);
        if (seg != nullptr && seg->Contains(key)) return first;
      }
    }
    if (second != nullptr) {
      const SegmentId sid = second->SegmentFor(key);
      if (sid.valid()) {
        storage::Segment* seg = segments_.Get(sid);
        if (seg != nullptr && seg->Contains(key)) return second;
      }
    }
    // Record exists at neither (aborted delete whose tombstone must be
    // undone by re-insertion). The restore needs a partition whose top
    // index covers the key: mid-move the newer location may not have
    // attached its segment yet, and aiming the undo at a segmentless
    // partition would silently drop the re-insertion (a committed record
    // deleted-then-aborted would stay deleted). Prefer the newer location
    // only when it can actually take the record.
    if (second != nullptr && second->SegmentFor(key).valid()) return second;
    if (first != nullptr && first->SegmentFor(key).valid()) return first;
    if (second != nullptr) return second;
    return first;
  };
  for (const auto& e : undo) {
    catalog::Partition* part = resolve(e.table, e.key);
    if (part == nullptr) continue;
    Node* owner = node(part->owner());
    std::vector<tx::VersionStore::UndoEntry> one;
    one.push_back(e);
    owner->ApplyUndo(one, resolve);
    // Compensation log record (ARIES CLR): the rollback itself is logged so
    // that crash-recovery redo of the whole tail reproduces the abort
    // instead of resurrecting the aborted write (src/fault replays tails
    // without knowing transaction outcomes — owner logs carry no commit
    // records, those live on the coordinator).
    tx::LogRecord clr;
    clr.txn = txn->id;
    clr.table = e.table;
    clr.partition = part->id();
    clr.key = e.key;
    if (e.pre_image.has_value()) {
      clr.type = tx::LogRecordType::kUpdate;
      clr.after_image = *e.pre_image;
    } else {
      clr.type = tx::LogRecordType::kDelete;
    }
    owner->log().Append(clock_.Now(), clr);
  }
}

catalog::Partition* Cluster::ResolveRoute(tx::Txn* txn,
                                          const catalog::RouteEntry& entry,
                                          Key key) {
  catalog::Partition* primary = catalog_.GetPartition(entry.primary);
  if (primary == nullptr) return nullptr;
  // Two-pointer protocol: while a move is in flight the primary may no
  // longer (or not yet) cover the key — probe it, then follow to the
  // secondary/forwarding target (§4.3 Correctness).
  if (primary->SegmentFor(key).valid() || !entry.secondary.valid()) {
    if (primary->state() == catalog::PartitionState::kForwarding &&
        primary->forward_to().valid() && !primary->SegmentFor(key).valid()) {
      catalog::Partition* fwd = catalog_.GetPartition(primary->forward_to());
      if (fwd != nullptr && txn != nullptr) {
        // Redirect probe costs one hop to the old node.
        ChargeClientHop(txn, primary->owner(), 64, 64);
        return fwd;
      }
    }
    return primary;
  }
  catalog::Partition* secondary = catalog_.GetPartition(entry.secondary);
  if (secondary != nullptr && secondary->SegmentFor(key).valid()) {
    if (txn != nullptr) ChargeClientHop(txn, primary->owner(), 64, 64);
    return secondary;
  }
  return primary;
}

catalog::Partition* Cluster::Route(tx::Txn* txn, TableId table, Key key) {
  auto entry = catalog_.Route(table, key);
  if (!entry.has_value()) return nullptr;
  if (EntryFenced(*entry)) {
    ++stale_route_refusals_;
    return nullptr;
  }
  return ResolveRoute(txn, *entry, key);
}

std::pair<catalog::Partition*, catalog::Partition*> Cluster::RouteForRead(
    tx::Txn* txn, TableId table, Key key) {
  // Fast path: no replica routes on the table at all — plain two-pointer.
  if (!catalog_.HasReplicas(table)) return RouteBoth(txn, table, key);
  auto entry = catalog_.Route(table, key);
  if (!entry.has_value()) return {nullptr, nullptr};
  // Mid-move the two candidate locations are the §4.3 pointers, not the
  // replicas: a bounded-stale copy must not mask the moving record.
  if (entry->secondary.valid()) return RouteBoth(txn, table, key);

  const bool fenced = EntryFenced(*entry);
  catalog::Partition* primary = catalog_.GetPartition(entry->primary);
  std::vector<catalog::Partition*> standbys;
  for (const auto& rr : catalog_.ReplicasFor(table, key)) {
    if (!rr.serving) continue;
    // Only a standby of *this key's* primary may answer: a replica whose
    // over-wide range merely covers the key never held it, and during a
    // failover window (no fallback) its honest answer would be a wrong
    // NotFound — the linearizability checker caught exactly this.
    if (rr.src.valid() && rr.src != entry->primary) continue;
    catalog::Partition* rp = catalog_.GetPartition(rr.partition);
    if (rp == nullptr) continue;
    Node* host = node(rp->owner());
    if (host == nullptr || !host->IsActive()) continue;
    standbys.push_back(rp);
  }
  if (standbys.empty()) {
    if (fenced) ++stale_route_refusals_;
    return fenced ? std::pair<catalog::Partition*, catalog::Partition*>{
                        nullptr, nullptr}
                  : RouteBoth(txn, table, key);
  }

  Node* owner = primary != nullptr ? node(primary->owner()) : nullptr;
  const bool owner_up = !fenced && owner != nullptr && owner->IsActive();
  if (!owner_up) {
    // Failover window: the owner crashed (or its route is fenced mid-
    // handoff) but promotion has not flipped the route yet — replicas
    // carry the read traffic, with no fallback (the authoritative copy is
    // down, or sealed against serving).
    if (fenced) ++stale_route_refusals_;
    return {standbys[read_ticket_++ % standbys.size()], nullptr};
  }
  const size_t pick = read_ticket_++ % (standbys.size() + 1);
  if (pick == 0) return {primary, standbys.front()};
  return {standbys[pick - 1], primary};
}

std::pair<catalog::Partition*, catalog::Partition*> Cluster::RouteBoth(
    tx::Txn* txn, TableId table, Key key) {
  // One catalog lookup feeds both pointers — this runs once per key on
  // every data-plane operation.
  auto entry = catalog_.Route(table, key);
  if (!entry.has_value()) return {nullptr, nullptr};
  // A fenced entry yields *neither* pointer: handing the sealed primary
  // back as the retry target would let the two-pointer protocol serve the
  // very route the fence exists to refuse.
  if (EntryFenced(*entry)) {
    ++stale_route_refusals_;
    return {nullptr, nullptr};
  }
  catalog::Partition* first = ResolveRoute(txn, *entry, key);
  catalog::Partition* primary = catalog_.GetPartition(entry->primary);
  catalog::Partition* second = nullptr;
  if (entry->secondary.valid()) {
    catalog::Partition* sec = catalog_.GetPartition(entry->secondary);
    if (sec != nullptr && sec != first) second = sec;
  }
  if (second == nullptr && primary != nullptr && primary != first) {
    second = primary;
  }
  return {first, second};
}

void Cluster::ChargeClientHop(tx::Txn* txn, NodeId owner, size_t req_bytes,
                              size_t resp_bytes) {
  const NodeId master_id = nodes_[0]->id();
  if (owner == master_id) return;
  const SimTime t0 = txn->now;
  const SimTime done =
      network_.RoundTrip(t0, master_id, owner, req_bytes, resp_bytes);
  txn->net_us += done - t0;
  txn->AdvanceTo(done);
}

}  // namespace wattdb::cluster
