#include "partition/migration.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::partition {

MigrationManagerBase::MigrationManagerBase(cluster::Cluster* cluster,
                                           MigrationConfig config)
    : cluster_(cluster), config_(config) {}

namespace {

/// Pages pinned per in-flight copy stream (drives buffer-latch contention
/// while rebalancing, Fig. 7).
constexpr int64_t kPinPagesPerStream = 512;

/// True when `node` hosts a warm replica overlapping `range` of `table`.
/// Landing the authoritative copy next to its own standby silently halves
/// the replica's fan-out benefit until the ReplicaManager re-places it, so
/// rebalance planning treats such nodes as ineligible destinations.
bool HostsReplicaOf(cluster::Cluster* cluster, TableId table,
                    const KeyRange& range, NodeId node) {
  for (const auto& rr : cluster->catalog().ReplicaRoutes(table)) {
    if (!rr.range.Overlaps(range)) continue;
    const catalog::Partition* p = cluster->catalog().GetPartition(rr.partition);
    if (p != nullptr && p->owner() == node) return true;
  }
  return false;
}

}  // namespace

std::vector<cluster::SegmentMove> MigrationManagerBase::PlanRebalance(
    const std::vector<NodeId>& targets, double fraction) {
  std::vector<cluster::SegmentMove> tasks;
  size_t rr = 0;  // Round-robin cursor over targets.
  for (TableId table : cluster_->catalog().Tables()) {
    if (config_.only_table.valid() && table != config_.only_table) continue;
    // Pool every candidate segment of the table across all source
    // partitions, so the fraction applies table-wide even when individual
    // partitions hold very few segments.
    struct Candidate {
      catalog::Partition* part;
      index::TopIndex::Entry entry;
    };
    std::vector<Candidate> pool;
    for (catalog::Partition* part : cluster_->catalog().PartitionsOf(table)) {
      // Warm standbys are not migration sources: their data is a bounded-
      // stale copy the ReplicaManager re-places itself.
      if (part->is_replica()) continue;
      // Never pull data off the targets themselves.
      if (std::find(targets.begin(), targets.end(), part->owner()) !=
          targets.end()) {
        continue;
      }
      for (const auto& e : part->top_index().All()) {
        pool.push_back({part, e});
      }
    }
    if (pool.empty()) continue;
    const size_t to_move = std::max<size_t>(
        pool.size() >= 2 ? 1 : 0,
        static_cast<size_t>(static_cast<double>(pool.size()) * fraction +
                            0.5));
    if (to_move == 0) continue;
    // Interleave: move every (n/to_move)-th segment so retained and moved
    // key ranges alternate across the key space.
    const double stride =
        static_cast<double>(pool.size()) / static_cast<double>(to_move);
    double cursor = stride - 1.0;
    for (size_t k = 0; k < to_move; ++k) {
      const size_t idx =
          std::min(pool.size() - 1, static_cast<size_t>(cursor + 0.5));
      cursor += stride;
      const Candidate& c = pool[idx];
      // Replica anti-affinity: starting at the round-robin cursor, take the
      // first target NOT already hosting a replica of this segment's range.
      // If every target hosts one, the segment stays put this round rather
      // than degrade a standby to a same-node copy.
      NodeId dst = NodeId::Invalid();
      for (size_t probe = 0; probe < targets.size(); ++probe) {
        const NodeId cand = targets[(rr + probe) % targets.size()];
        if (HostsReplicaOf(cluster_, table, c.entry.range, cand)) continue;
        dst = cand;
        rr = (rr + probe + 1) % targets.size();
        break;
      }
      if (!dst.valid()) continue;
      tasks.push_back({table, c.entry.segment, c.entry.range, c.part->id(),
                       c.part->owner(), dst});
    }
  }
  return tasks;
}

std::vector<NodeId> MigrationManagerBase::DrainSurvivors(NodeId victim) const {
  std::vector<NodeId> survivors;
  for (cluster::Node* n : cluster_->ActiveNodes()) {
    if (n->id() == victim) continue;
    if (!cluster_->EligibleFor(n->id(), cluster::Role::kDrainSurvivor)) {
      continue;
    }
    survivors.push_back(n->id());
  }
  return survivors;
}

std::vector<cluster::SegmentMove> MigrationManagerBase::PlanDrain(
    NodeId victim) {
  std::vector<cluster::SegmentMove> tasks;
  const std::vector<NodeId> survivors = DrainSurvivors(victim);
  if (survivors.empty()) return tasks;
  size_t rr = 0;
  for (catalog::Partition* part :
       cluster_->catalog().PartitionsOwnedBy(victim)) {
    // Replica partitions are never drained: the master drops them outright
    // (DropReplicasOn) before the drain starts — copying a stale standby to
    // a survivor would be wasted bytes.
    if (part->is_replica()) continue;
    for (const auto& e : part->top_index().All()) {
      tasks.push_back({part->table(), e.segment, e.range, part->id(), victim,
                       survivors[rr++ % survivors.size()]});
    }
  }
  return tasks;
}

PartitionId MigrationManagerBase::DstPartitionFor(TableId table, NodeId node,
                                                  Key range_lo) {
  const DstKey key{(static_cast<uint64_t>(table.value()) << 32) | node.value(),
                   range_lo};
  auto it = dst_cache_.find(key);
  if (it != dst_cache_.end()) {
    // Reuse only if the partition still exists and is owned by `node`.
    catalog::Partition* p = cluster_->catalog().GetPartition(it->second);
    if (p != nullptr && p->owner() == node) return it->second;
  }
  catalog::Partition* fresh = cluster_->catalog().CreatePartition(table, node);
  dst_cache_[key] = fresh->id();
  return fresh->id();
}

Status MigrationManagerBase::StartRebalance(const std::vector<NodeId>& targets,
                                            double fraction,
                                            std::function<void()> done) {
  if (stats_.running) return Status::Busy("migration already running");
  if (targets.empty() || fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("bad rebalance parameters");
  }
  for (NodeId t : targets) {
    cluster::Node* n = cluster_->node(t);
    if (n == nullptr) {
      return Status::NotFound("no such target node " +
                              std::to_string(t.value()));
    }
    if (!n->IsActive()) {
      return Status::Unavailable("target node not active");
    }
  }
  StartTasks(PlanRebalance(targets, fraction), std::move(done));
  return Status::OK();
}

Status MigrationManagerBase::StartMoves(
    const std::vector<cluster::SegmentMove>& moves,
    std::function<void()> done) {
  if (stats_.running) return Status::Busy("migration already running");
  if (!SupportsDrain()) {
    return Status::NotSupported(
        name() + " cannot transfer ownership; targeted moves impossible");
  }
  if (moves.empty()) {
    return Status::InvalidArgument("no moves to execute");
  }
  for (const cluster::SegmentMove& m : moves) {
    catalog::Partition* src = cluster_->catalog().GetPartition(m.src_partition);
    if (src == nullptr || src->owner() != m.src_node) {
      return Status::InvalidArgument(
          "move source partition " + std::to_string(m.src_partition.value()) +
          " is not owned by node " + std::to_string(m.src_node.value()));
    }
    cluster::Node* dst = cluster_->node(m.dst_node);
    if (dst == nullptr || !dst->IsActive()) {
      return Status::Unavailable("move target node " +
                                 std::to_string(m.dst_node.value()) +
                                 " is not active");
    }
  }
  StartTasks(moves, std::move(done));
  return Status::OK();
}

Status MigrationManagerBase::Drain(NodeId victim, std::function<void()> done) {
  if (stats_.running) return Status::Busy("migration already running");
  if (!SupportsDrain()) {
    return Status::NotSupported(
        "physical partitioning cannot transfer ownership; scale-in "
        "impossible (paper §5.2)");
  }
  StartDrainAttempt(victim, 0, std::move(done));
  return Status::OK();
}

void MigrationManagerBase::StartDrainAttempt(NodeId victim, int attempt,
                                             std::function<void()> done) {
  constexpr int kMaxDrainAttempts = 3;
  drain_victim_ = victim;
  std::vector<cluster::SegmentMove> plan = PlanDrain(victim);
  // Retry only when this round had work to do: an empty plan with data
  // left behind means no survivors exist, and another round cannot help.
  const bool planned_any = !plan.empty();
  auto cleanup = [this, victim, attempt, planned_any,
                  done = std::move(done)]() mutable {
    cluster::Node* v = cluster_->node(victim);
    const bool remains = !cluster_->segments().SegmentsOn(victim).empty();
    if (remains && planned_any && v != nullptr && v->IsActive() &&
        attempt + 1 < kMaxDrainAttempts) {
      WATTDB_INFO("drain: node " << victim.value()
                                 << " still holds segments, re-planning "
                                 << "(attempt " << attempt + 2 << ")");
      StartDrainAttempt(victim, attempt + 1, std::move(done));
      return;
    }
    drain_victim_ = NodeId::Invalid();
    // The victim is empty (or unsalvageable): drop its now segment-less
    // partitions so the node can power off (§3.4 scale-in protocol).
    for (catalog::Partition* p :
         cluster_->catalog().PartitionsOwnedBy(victim)) {
      if (p->segment_count() == 0) {
        (void)cluster_->catalog().DropPartition(p->id());
      }
    }
    if (done) done();
  };
  StartTasks(std::move(plan), std::move(cleanup));
}

void MigrationManagerBase::StartTasks(std::vector<cluster::SegmentMove> tasks,
                                      std::function<void()> done) {
  stats_ = cluster::RebalanceStats{};
  stats_.running = true;
  stats_.started_at = cluster_->Now();
  stats_.tasks_planned = static_cast<int64_t>(tasks.size());
  done_ = std::move(done);
  queue_.assign(tasks.begin(), tasks.end());
  WATTDB_INFO("migration: " << queue_.size() << " move tasks planned");
  RunNextTask();
}

bool MigrationManagerBase::SourceOwnsRoute(
    const cluster::SegmentMove& task) const {
  const auto covering =
      cluster_->catalog().RoutesInRange(task.table, task.range);
  if (covering.empty()) return false;
  for (const auto& entry : covering) {
    if (entry.primary != task.src_partition) return false;
  }
  return true;
}

bool MigrationManagerBase::EvictStaleDstCopies(
    catalog::Partition* dst, const cluster::SegmentMove& task) {
  // Precondition: SourceOwnsRoute(task) held — the catalog routes every
  // entry of task.range to the source, so a segment of dst intersecting
  // that range is a leftover copy: dst owned the range once (e.g. before a
  // promotion deposed it while partitioned) and was never reconciled.
  // Drop such copies so the incoming segment can attach. A leftover that
  // also backs a range dst still legitimately serves cannot be dropped —
  // refuse the install instead.
  const auto stale = dst->SegmentsInRange(task.range);
  for (const auto& entry : stale) {
    for (const auto& route :
         cluster_->catalog().RoutesInRange(task.table, entry.range)) {
      if (route.primary == dst->id() || route.secondary == dst->id()) {
        return false;
      }
    }
  }
  for (const auto& entry : stale) {
    WATTDB_CHECK(dst->DetachSegment(entry.segment).ok());
    cluster_->node(task.dst_node)->buffer().InvalidateSegment(entry.segment);
    WATTDB_CHECK(cluster_->segments().Drop(entry.segment).ok());
    WATTDB_INFO("migration: dropped stale segment "
                << entry.segment.value() << " from deposed partition "
                << dst->id().value() << " before reuse");
  }
  return true;
}

PartitionId MigrationManagerBase::BeginOwnershipMove(
    const cluster::SegmentMove& task, catalog::Partition* src,
    const std::function<void()>& next) {
  if (!SourceOwnsRoute(task)) {
    // The route moved on since planning (a standby was promoted over the
    // source): installing or draining this copy would resurrect
    // pre-promotion state over the writes committed since the flip.
    Abandon(task, "source no longer owns the route", next);
    return PartitionId::Invalid();
  }
  const PartitionId dst_id =
      DstPartitionFor(task.table, task.dst_node, task.range.lo);
  catalog::Partition* dst = cluster_->catalog().GetPartition(dst_id);
  WATTDB_CHECK(dst != nullptr);
  if (!EvictStaleDstCopies(dst, task)) {
    // The reused destination still serves part of the colliding range:
    // nothing there can be dropped safely, and installing next to it would
    // interleave two generations of the range.
    Abandon(task, "destination holds live colliding segments", next);
    return PartitionId::Invalid();
  }
  // Master: two-pointer routing entry (both locations are visited while
  // the move is in flight); the source forwards stragglers.
  WATTDB_CHECK(
      cluster_->catalog().BeginMove(task.table, task.range, dst_id).ok());
  src->set_forward_to(dst_id);
  return dst_id;
}

void MigrationManagerBase::Abandon(const cluster::SegmentMove& task,
                                   const std::string& why,
                                   const std::function<void()>& next) {
  ++stats_.tasks_failed;
  WATTDB_INFO("migration: " << name() << " move of segment "
                            << task.segment.value() << " [" << task.range.lo
                            << ", " << task.range.hi << ") abandoned (" << why
                            << ")");
  next();
}

void MigrationManagerBase::OnNodeFailure(NodeId down) {
  if (!stats_.running) return;
  // Mid-drain, a task whose *destination* died still has a live source
  // (the drain victim): abandoning it would strand that data on the victim
  // until the end-of-drain re-plan or the master's next control tick.
  // Re-target such tasks onto the survivors still standing instead.
  std::vector<NodeId> survivors;
  if (drain_victim_.valid() && drain_victim_ != down) {
    survivors = DrainSurvivors(drain_victim_);
    survivors.erase(std::remove(survivors.begin(), survivors.end(), down),
                    survivors.end());
  }
  size_t dropped = 0;
  size_t replanned = 0;
  size_t rr = 0;
  std::deque<cluster::SegmentMove> kept;
  for (cluster::SegmentMove& t : queue_) {
    if (t.src_node != down && t.dst_node != down) {
      kept.push_back(t);
      continue;
    }
    if (t.src_node == drain_victim_ && t.dst_node == down &&
        !survivors.empty()) {
      t.dst_node = survivors[rr++ % survivors.size()];
      ++replanned;
      kept.push_back(t);
      continue;
    }
    ++dropped;
  }
  queue_.swap(kept);
  stats_.tasks_failed += static_cast<int64_t>(dropped);
  stats_.tasks_replanned += static_cast<int64_t>(replanned);
  if (dropped > 0 || replanned > 0) {
    WATTDB_INFO("migration: node " << down.value() << " failed, abandoning "
                                   << dropped << " and re-targeting "
                                   << replanned << " queued task(s)");
  }
  // The in-flight task (if any) aborts itself at the next chunk boundary
  // and pulls the next task, which keeps the queue draining to FinishAll.
}

void MigrationManagerBase::RunNextTask() {
  if (queue_.empty()) {
    FinishAll();
    return;
  }
  const cluster::SegmentMove task = queue_.front();
  queue_.pop_front();
  ExecuteTask(task, [this]() { RunNextTask(); });
}

void MigrationManagerBase::FinishAll() {
  stats_.running = false;
  stats_.finished_at = cluster_->Now();
  WATTDB_INFO("migration finished at t=" << ToSeconds(stats_.finished_at)
                                         << "s, segments="
                                         << stats_.segments_moved);
  if (done_) {
    auto cb = std::move(done_);
    done_ = nullptr;
    cb();
  }
}

void MigrationManagerBase::StreamBytes(
    SegmentId seg, NodeId src, NodeId dst, size_t bytes,
    std::function<void(hw::Disk* dst_disk)> done) {
  const size_t scaled =
      static_cast<size_t>(static_cast<double>(bytes) * config_.cost_scale);
  cluster::Node* src_node = cluster_->node(src);
  cluster::Node* dst_node = cluster_->node(dst);
  hw::Disk* dst_disk = dst_node->DataDisk(cluster_->Now());
  storage::Segment* segment = cluster_->segments().Get(seg);
  hw::Disk* src_disk =
      segment != nullptr ? cluster_->FindDisk(segment->disk()) : nullptr;
  WATTDB_CHECK(src_disk != nullptr);

  src_node->buffer().AddMaintenancePins(kPinPagesPerStream);
  dst_node->buffer().AddMaintenancePins(kPinPagesPerStream);
  stats_.bytes_shipped += static_cast<int64_t>(scaled);

  auto remaining = std::make_shared<size_t>(scaled);
  auto step = std::make_shared<std::function<void()>>();
  // The closure captures itself only weakly; the strong reference lives in
  // the scheduled event. Otherwise step -> closure -> step never frees and
  // every stream leaks its captures (ASan).
  std::weak_ptr<std::function<void()>> weak_step = step;
  *step = [this, remaining, weak_step, src, dst, src_disk, dst_disk, src_node,
           dst_node, done = std::move(done)]() {
    if (!src_node->IsActive() || !dst_node->IsActive()) {
      // An endpoint crashed mid-copy: abandon the stream. The chunks
      // already shipped are wasted work (they stay in bytes_shipped); the
      // caller sees nullptr and must leave the segment at the source.
      src_node->buffer().ReleaseMaintenancePins(kPinPagesPerStream);
      dst_node->buffer().ReleaseMaintenancePins(kPinPagesPerStream);
      done(nullptr);
      return;
    }
    if (*remaining == 0) {
      src_node->buffer().ReleaseMaintenancePins(kPinPagesPerStream);
      dst_node->buffer().ReleaseMaintenancePins(kPinPagesPerStream);
      done(dst_disk);
      return;
    }
    const size_t chunk = std::min(*remaining, config_.copy_chunk_bytes);
    *remaining -= chunk;
    const SimTime now = cluster_->Now();
    // Pipeline one chunk: sequential read, ship, sequential write.
    const SimTime read_done = src_disk->AccessSequential(now, chunk);
    const SimTime shipped =
        cluster_->network().Transfer(read_done, src, dst, chunk);
    const SimTime written = dst_disk->AccessSequential(shipped, chunk);
    cluster_->events().ScheduleAt(written, [step = weak_step.lock()]() {
      if (step != nullptr) (*step)();
    });
  };
  (*step)();
}

}  // namespace wattdb::partition
