#include "replica/replica_manager.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "cluster/node.h"
#include "common/logging.h"
#include "storage/segment.h"
#include "tx/log_manager.h"

namespace wattdb::replica {

namespace {
/// One bootstrap stream chunk: sequential read at the owner, network hop,
/// sequential write at the host — same pipeline as a migration copy.
constexpr size_t kBootstrapChunkBytes = 1 << 20;
}  // namespace

const char* ToString(ReplicaState state) {
  switch (state) {
    case ReplicaState::kBootstrapping: return "bootstrapping";
    case ReplicaState::kCatchingUp: return "catching-up";
    case ReplicaState::kCaughtUp: return "caught-up";
  }
  return "unknown";
}

ReplicaManager::ReplicaManager(cluster::Cluster* cluster,
                               cluster::Master* master)
    : cluster_(cluster), master_(master) {
  WATTDB_CHECK(cluster_ != nullptr);
  WATTDB_CHECK(master_ != nullptr);
}

std::string ReplicaManager::Describe(const ReplicaInfo& rep) const {
  return "segment " + std::to_string(rep.src_segment.value()) + " [" +
         std::to_string(rep.range.lo) + "," + std::to_string(rep.range.hi) +
         ") of node " + std::to_string(rep.src_node.value()) + " on node " +
         std::to_string(rep.host.value());
}

double ReplicaManager::progress() const {
  if (replicas_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& rep : replicas_) {
    switch (rep->state) {
      case ReplicaState::kBootstrapping:
        sum += rep->bootstrap_total_bytes == 0
                   ? 0.0
                   : 0.5 * static_cast<double>(rep->bootstrap_streamed_bytes) /
                         static_cast<double>(rep->bootstrap_total_bytes);
        break;
      case ReplicaState::kCatchingUp:
        sum += 0.75;
        break;
      case ReplicaState::kCaughtUp:
        sum += 1.0;
        break;
    }
  }
  return sum / static_cast<double>(replicas_.size());
}

void ReplicaManager::Tick() {
  if (!policy().enabled) return;
  const SimTime now = cluster_->Now();
  ValidateReplicas(now);
  ApplyLogTails(now);
  MaybeCreateReplicas(now);
}

// --------------------------------------------------------------- validation

void ReplicaManager::ValidateReplicas(SimTime now) {
  // Iterate a snapshot: DropReplica mutates replicas_.
  const std::vector<std::shared_ptr<ReplicaInfo>> snapshot = replicas_;
  for (const auto& rep : snapshot) {
    cluster::Node* host = cluster_->node(rep->host);
    if (host == nullptr || !host->IsActive()) {
      // Replica state is never logged on the host: a crash wiped it (in
      // spirit — the simulated pages survive, but we must not trust them).
      DropReplica(rep, "host down");
      continue;
    }
    const auto route = cluster_->catalog().Route(rep->table, rep->range.lo);
    if (!route.has_value() || route->primary != rep->src_partition) {
      // The source moved (heat move, drain, promotion of a sibling): the
      // log stream this copy was following has ended. Cheaper to rebuild
      // from the new owner than to chase it.
      DropReplica(rep, "source partition no longer owns range");
      continue;
    }
    // Heat hysteresis: a segment that cooled below the threshold and
    // stayed cold keeps its replica only drop_cold_after long.
    const double heat = master_->monitor().HeatOf(rep->src_segment);
    if (heat >= policy().heat_threshold) {
      rep->cold_since = 0;
    } else if (rep->cold_since == 0) {
      rep->cold_since = now;
    } else if (now - rep->cold_since >= policy().drop_cold_after) {
      DropReplica(rep, "segment cooled below heat threshold");
      continue;
    }
  }
}

// ----------------------------------------------------------------- catch-up

std::vector<tx::LogRecord> ReplicaManager::CutTail(
    const ReplicaInfo& rep, const tx::LogManager& owner_log, size_t* bytes) {
  std::vector<tx::LogRecord> tail;
  for (tx::LogRecord& rec : owner_log.Tail(rep.applied_lsn)) {
    if (rec.partition != rep.src_partition) continue;
    if (!tx::IsDataRecord(rec.type)) continue;
    if (!rep.range.Contains(rec.key)) continue;
    *bytes += rec.Bytes();
    // RedoInto applies only records naming the partition it fills —
    // retarget the copy at the replica partition.
    rec.partition = rep.replica_partition;
    tail.push_back(std::move(rec));
  }
  return tail;
}

int64_t ReplicaManager::CatchUp(const std::shared_ptr<ReplicaInfo>& rep,
                                SimTime now) {
  cluster::Node* src = cluster_->node(rep->src_node);
  cluster::Node* host = cluster_->node(rep->host);
  if (src == nullptr || host == nullptr || !src->IsActive() ||
      !host->IsActive()) {
    return rep->lag_records;  // Stalled; promotion or validation decides.
  }
  size_t bytes = 0;
  const std::vector<tx::LogRecord> tail = CutTail(*rep, src->log(), &bytes);
  const int64_t lag = static_cast<int64_t>(tail.size());
  // Everything up to the owner's current tip has now been scanned;
  // records of other partitions need not be re-filtered next round.
  rep->applied_lsn = src->log().next_lsn() - 1;
  if (tail.empty()) return 0;

  // Ship the tail and apply it: network hop, then per-record CPU on the
  // host. RedoInto is idempotent, so a tick that partially overlaps a
  // previous one (promotion's final pass) cannot double-apply.
  catalog::Partition* part =
      cluster_->catalog().GetPartition(rep->replica_partition);
  if (part == nullptr) return lag;
  const SimTime arrived =
      cluster_->network().Transfer(now, rep->src_node, rep->host, bytes);
  const StatusOr<SimTime> applied = host->ReplayTail(part, tail, arrived);
  if (!applied.ok()) {
    WATTDB_WARN("replica: apply failed for "
                << Describe(*rep) << ": " << applied.status().ToString());
    return lag;
  }
  rep->records_applied += static_cast<int64_t>(tail.size());
  rep->bytes_shipped += static_cast<int64_t>(bytes);
  replication_bytes_ += static_cast<int64_t>(bytes);
  return lag;
}

void ReplicaManager::ApplyLogTails(SimTime now) {
  for (const auto& rep : replicas_) {
    if (rep->state == ReplicaState::kBootstrapping) continue;
    rep->lag_records = CatchUp(rep, now);
    const bool fresh = rep->lag_records <= policy().max_lag_records;
    if (fresh && rep->state == ReplicaState::kCatchingUp) {
      rep->state = ReplicaState::kCaughtUp;
      rep->caught_up_at = now;
      (void)cluster_->catalog().SetReplicaServing(
          rep->table, rep->replica_partition, true);
      master_->Emit(cluster::ControlEventType::kReplicaCaughtUp, rep->host,
                    Describe(*rep) + " within staleness bound (lag " +
                        std::to_string(rep->lag_records) + " records)");
    } else if (!fresh && rep->state == ReplicaState::kCaughtUp) {
      // Fell behind the staleness bound: out of read fan-out until the
      // lag shrinks again.
      rep->state = ReplicaState::kCatchingUp;
      (void)cluster_->catalog().SetReplicaServing(
          rep->table, rep->replica_partition, false);
    }
  }
}

// ---------------------------------------------------------------- placement

NodeId ReplicaManager::PickHost(const std::shared_ptr<ReplicaInfo>& rep) const {
  const auto node_heat = master_->monitor().NodeHeats();
  NodeId best = NodeId::Invalid();
  double best_heat = 0.0;
  for (cluster::Node* n : cluster_->ActiveNodes()) {
    if (n->id() == rep->src_node) continue;
    if (!cluster_->EligibleFor(n->id(), cluster::Role::kReplicaHost)) {
      continue;
    }
    bool hosts_sibling = false;
    for (const auto& other : replicas_) {
      if (other->src_segment == rep->src_segment && other->host == n->id()) {
        hosts_sibling = true;
        break;
      }
    }
    if (hosts_sibling) continue;
    auto it = node_heat.find(n->id());
    const double h = it == node_heat.end() ? 0.0 : it->second;
    if (!best.valid() || h < best_heat) {
      best = n->id();
      best_heat = h;
    }
  }
  return best;
}

void ReplicaManager::MaybeCreateReplicas(SimTime now) {
  // Budget: distinct source segments currently replicated.
  std::unordered_set<SegmentId> replicated;
  std::unordered_map<SegmentId, int> copies;
  for (const auto& rep : replicas_) {
    replicated.insert(rep->src_segment);
    ++copies[rep->src_segment];
  }

  auto heats = master_->monitor().SegmentHeats();
  std::sort(heats.begin(), heats.end(),
            [](const cluster::HeatEntry& a, const cluster::HeatEntry& b) {
              return a.heat > b.heat;
            });
  for (const auto& entry : heats) {
    if (entry.heat < policy().heat_threshold) break;  // Sorted: rest colder.
    if (copies[entry.segment] >= policy().replicas_per_segment) continue;
    if (replicated.count(entry.segment) == 0 &&
        static_cast<int>(replicated.size()) >=
            policy().max_replicated_segments) {
      continue;
    }
    // Reverse-lookup the owning partition and routed range of the segment.
    catalog::Partition* owner_part = nullptr;
    KeyRange range;
    for (TableId table : cluster_->catalog().Tables()) {
      for (catalog::Partition* part : cluster_->catalog().PartitionsOf(table)) {
        for (const auto& e : part->top_index().All()) {
          if (e.segment == entry.segment) {
            owner_part = part;
            range = e.range;
            break;
          }
        }
        if (owner_part != nullptr) break;
      }
      if (owner_part != nullptr) break;
    }
    if (owner_part == nullptr) continue;
    // Never replicate a replica — fan-out reads make standby segments hot
    // too, but their owner partition is not a routed primary.
    if (owner_part->is_replica()) continue;
    if (owner_part->state() != catalog::PartitionState::kNormal) continue;
    const auto route = cluster_->catalog().Route(owner_part->table(), range.lo);
    if (!route.has_value() || route->primary != owner_part->id() ||
        route->secondary.valid()) {
      continue;  // Unrouted, or a move is in flight over the range.
    }
    cluster::Node* src = cluster_->node(owner_part->owner());
    if (src == nullptr || !src->IsActive()) continue;
    storage::Segment* seg = cluster_->segments().Get(entry.segment);
    if (seg == nullptr) continue;

    auto rep = std::make_shared<ReplicaInfo>();
    rep->table = owner_part->table();
    rep->src_segment = entry.segment;
    rep->range = range;
    rep->src_partition = owner_part->id();
    rep->src_node = owner_part->owner();
    rep->host = PickHost(rep);
    if (!rep->host.valid()) continue;  // No eligible host right now.
    rep->created_at = now;
    rep->bootstrap_total_bytes = seg->DiskBytes();

    catalog::Partition* replica_part =
        cluster_->catalog().CreatePartition(rep->table, rep->host);
    replica_part->set_is_replica(true);
    rep->replica_partition = replica_part->id();

    replicas_.push_back(rep);
    replicated.insert(rep->src_segment);
    ++copies[rep->src_segment];
    WATTDB_INFO("replica: bootstrapping " << Describe(*rep) << " ("
                                          << rep->bootstrap_total_bytes
                                          << " bytes, heat "
                                          << static_cast<int64_t>(entry.heat)
                                          << " ops/s)");
    StartBootstrap(rep);
  }
}

// ---------------------------------------------------------------- bootstrap

void ReplicaManager::StartBootstrap(const std::shared_ptr<ReplicaInfo>& rep) {
  // Chunked byte stream along the migration pipeline: owner disk
  // sequential read -> network -> host disk sequential write. The event
  // chain holds only a weak reference so a dropped replica's stream
  // simply expires.
  StreamChunk(rep, cluster_->Now());
}

void ReplicaManager::StreamChunk(const std::weak_ptr<ReplicaInfo>& weak,
                                 SimTime at) {
  auto rep = weak.lock();
  if (rep == nullptr) return;  // Dropped mid-stream.
  cluster::Node* src = cluster_->node(rep->src_node);
  cluster::Node* host = cluster_->node(rep->host);
  if (src == nullptr || host == nullptr || !src->IsActive() ||
      !host->IsActive()) {
    DropReplica(rep, "bootstrap endpoint crashed");
    return;
  }
  if (rep->bootstrap_streamed_bytes >= rep->bootstrap_total_bytes) {
    FinishBootstrap(rep, cluster_->Now());
    return;
  }
  const size_t chunk =
      std::min(kBootstrapChunkBytes,
               rep->bootstrap_total_bytes - rep->bootstrap_streamed_bytes);
  storage::Segment* seg = cluster_->segments().Get(rep->src_segment);
  hw::Disk* src_disk =
      seg != nullptr ? cluster_->FindDisk(seg->disk()) : nullptr;
  if (src_disk == nullptr) {
    DropReplica(rep, "source segment vanished mid-bootstrap");
    return;
  }
  const SimTime read_done = src_disk->AccessSequential(at, chunk);
  const SimTime shipped =
      cluster_->network().Transfer(read_done, rep->src_node, rep->host, chunk);
  hw::Disk* dst_disk = host->DataDisk(shipped);
  const SimTime written = dst_disk != nullptr
                              ? dst_disk->AccessSequential(shipped, chunk)
                              : shipped;
  rep->bootstrap_streamed_bytes += chunk;
  rep->bytes_shipped += static_cast<int64_t>(chunk);
  replication_bytes_ += static_cast<int64_t>(chunk);
  cluster_->events().ScheduleAt(
      written, [this, weak]() { StreamChunk(weak, cluster_->Now()); });
}

void ReplicaManager::FinishBootstrap(const std::shared_ptr<ReplicaInfo>& rep,
                                     SimTime now) {
  // The copy is only valid if the source still owns the range the stream
  // started from (no move or promotion slipped in underneath).
  const auto route = cluster_->catalog().Route(rep->table, rep->range.lo);
  if (!route.has_value() || route->primary != rep->src_partition ||
      route->secondary.valid()) {
    DropReplica(rep, "source moved during bootstrap");
    return;
  }
  cluster::Node* src = cluster_->node(rep->src_node);
  cluster::Node* host = cluster_->node(rep->host);
  if (src == nullptr || host == nullptr || !src->IsActive() ||
      !host->IsActive()) {
    DropReplica(rep, "bootstrap endpoint crashed");
    return;
  }
  catalog::Partition* part =
      cluster_->catalog().GetPartition(rep->replica_partition);
  storage::Segment* src_seg = cluster_->segments().Get(rep->src_segment);
  if (part == nullptr || src_seg == nullptr) {
    DropReplica(rep, "source segment vanished mid-bootstrap");
    return;
  }
  auto allocated = host->AllocateSegment(now, part, rep->range);
  if (!allocated.ok()) {
    DropReplica(rep, "host out of segment capacity");
    return;
  }
  storage::Segment* copy = allocated.value();
  rep->replica_segment = copy->id();
  // Materialize the records as of *now* — the byte stream above modeled
  // the I/O; the state cut is install-time, so the log position to resume
  // from is simply the owner's current tip.
  src_seg->ScanAll([&](const storage::Record& r) {
    if (rep->range.Contains(r.key)) (void)copy->Insert(r.key, r.payload);
    return true;
  });
  rep->applied_lsn = src->log().next_lsn() - 1;
  rep->state = ReplicaState::kCatchingUp;
  const Status routed = cluster_->catalog().AddReplicaRoute(
      rep->table, rep->range, rep->replica_partition, rep->src_partition);
  if (!routed.ok()) {
    DropReplica(rep, "replica route rejected: " + routed.ToString());
    return;
  }
  master_->Emit(cluster::ControlEventType::kReplicaCreated, rep->host,
                Describe(*rep) + " bootstrapped (" +
                    std::to_string(copy->record_count()) + " records, " +
                    std::to_string(rep->bootstrap_total_bytes) + " bytes)");
}

// ----------------------------------------------------------------- failover

int ReplicaManager::PromoteReplicasOf(NodeId dead) {
  if (!policy().enabled) return 0;
  const SimTime now = cluster_->Now();
  // Freshest bootstrapped standby per segment of the dead owner. Equally
  // fresh candidates (same applied LSN — common right after a catch-up
  // tick) break the tie toward the *coldest* host: the promoted node
  // inherits the dead owner's traffic on top of its own, so of two
  // identical copies the one on the least-loaded node wins.
  const auto node_heat = master_->monitor().NodeHeats();
  const auto heat_of = [&node_heat](NodeId node) {
    auto it = node_heat.find(node);
    return it == node_heat.end() ? 0.0 : it->second;
  };
  std::unordered_map<SegmentId, std::shared_ptr<ReplicaInfo>> chosen;
  for (const auto& rep : replicas_) {
    if (rep->src_node != dead) continue;
    if (rep->state == ReplicaState::kBootstrapping) continue;
    cluster::Node* host = cluster_->node(rep->host);
    if (host == nullptr || !host->IsActive()) continue;
    auto& slot = chosen[rep->src_segment];
    if (slot == nullptr || rep->applied_lsn > slot->applied_lsn ||
        (rep->applied_lsn == slot->applied_lsn &&
         heat_of(rep->host) < heat_of(slot->host))) {
      slot = rep;
    }
  }
  int promoted = 0;
  for (auto& [segment, rep] : chosen) {
    // Final catch-up from the dead owner's *surviving* WAL (the log disk
    // outlives the crash — that is the whole point of write-ahead
    // logging): replay-read there, ship, apply. Much less data than the
    // full redo a restart would pay — only this range's tail since the
    // replica's last tick.
    cluster::Node* src = cluster_->node(dead);
    cluster::Node* host = cluster_->node(rep->host);
    catalog::Partition* part =
        cluster_->catalog().GetPartition(rep->replica_partition);
    if (src == nullptr || host == nullptr || part == nullptr) continue;
    // Seal the range BEFORE the final tail is cut: from this instant the
    // routing layer refuses the deposed owner, so no write can land there
    // and miss the flip — the hole that loses data when the "dead" owner
    // is actually alive behind a network partition, or restarts and
    // finishes redo before the flip fires.
    const uint64_t fence = cluster_->catalog().FenceRange(
        rep->table, rep->range, rep->src_partition);
    size_t bytes = 0;
    const std::vector<tx::LogRecord> tail = CutTail(*rep, src->log(), &bytes);
    SimTime done = now;
    if (!tail.empty()) {
      const SimTime read_done = src->log().ChargeReplayRead(now, bytes);
      const SimTime arrived =
          cluster_->network().Transfer(read_done, dead, rep->host, bytes);
      const StatusOr<SimTime> applied = host->ReplayTail(part, tail, arrived);
      if (!applied.ok()) {
        WATTDB_WARN("replica: final catch-up failed for "
                    << Describe(*rep) << ": "
                    << applied.status().ToString());
        continue;
      }
      done = *applied;
      rep->records_applied += static_cast<int64_t>(tail.size());
      rep->bytes_shipped += static_cast<int64_t>(bytes);
      replication_bytes_ += static_cast<int64_t>(bytes);
    }
    rep->applied_lsn = src->log().next_lsn() - 1;

    // State is current as of `done`; the route flips then — between the
    // crash and the flip, serving replicas keep absorbing reads while
    // writes to the range stay unavailable (the honest failover gap).
    const int64_t final_records = static_cast<int64_t>(tail.size());
    std::weak_ptr<ReplicaInfo> weak = rep;
    cluster_->events().ScheduleAt(done, [this, weak, final_records, fence]() {
      auto r = weak.lock();
      if (r == nullptr) return;  // Dropped before the flip (host died too).
      // Conditional on the fence still standing: if the owner reclaimed
      // the range in the meantime (restart + full redo won the race), the
      // flip must not install the standby's older snapshot over it.
      const Status flip = cluster_->catalog().PromoteReplica(
          r->table, r->range, r->replica_partition, fence, r->src_partition);
      if (!flip.ok()) {
        WATTDB_WARN("replica: promotion of " << Describe(*r)
                                             << " refused: "
                                             << flip.ToString());
        return;
      }
      master_->Emit(cluster::ControlEventType::kReplicaPromoted, r->host,
                    Describe(*r) + " is the new owner (final catch-up " +
                        std::to_string(final_records) + " records)");
      replicas_.erase(std::remove(replicas_.begin(), replicas_.end(), r),
                      replicas_.end());
    });
    ++promoted;
  }
  return promoted;
}

int ReplicaManager::DropReplicasOn(NodeId node) {
  int dropped = 0;
  const std::vector<std::shared_ptr<ReplicaInfo>> snapshot = replicas_;
  for (const auto& rep : snapshot) {
    if (rep->host == node) {
      DropReplica(rep, "host leaving service");
      ++dropped;
    } else if (rep->src_node == node &&
               rep->state == ReplicaState::kBootstrapping) {
      // The base copy can never finish; there is nothing to promote.
      DropReplica(rep, "source died mid-bootstrap");
    }
  }
  return dropped;
}

void ReplicaManager::DropReplica(const std::shared_ptr<ReplicaInfo>& rep,
                                 const std::string& reason) {
  (void)cluster_->catalog().RemoveReplicaRoute(rep->table,
                                               rep->replica_partition);
  catalog::Partition* part =
      cluster_->catalog().GetPartition(rep->replica_partition);
  cluster::Node* host = cluster_->node(rep->host);
  if (part != nullptr && host != nullptr && rep->replica_segment.valid()) {
    (void)host->DiscardSegment(part, rep->replica_segment);
  }
  const Status drop = cluster_->catalog().DropPartition(rep->replica_partition);
  if (!drop.ok()) {
    WATTDB_WARN("replica: partition " << rep->replica_partition.value()
                                      << " not dropped: " << drop.ToString());
  }
  master_->Emit(cluster::ControlEventType::kReplicaDropped, rep->host,
                Describe(*rep) + " dropped: " + reason);
  replicas_.erase(std::remove(replicas_.begin(), replicas_.end(), rep),
                  replicas_.end());
}

}  // namespace wattdb::replica
