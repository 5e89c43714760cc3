#include "fault/recovery_manager.h"

#include <utility>

#include "cluster/node.h"
#include "common/logging.h"
#include "partition/migration.h"
#include "storage/segment.h"
#include "storage/segment_manager.h"

namespace wattdb::fault {

RecoveryManager::RecoveryManager(cluster::Cluster* cluster,
                                 partition::MigrationManagerBase* scheme)
    : cluster_(cluster), scheme_(scheme) {
  WATTDB_CHECK(cluster_ != nullptr);
  WATTDB_CHECK(scheme_ != nullptr);
}

Status RecoveryManager::Crash(NodeId node) {
  cluster::Node* n = cluster_->node(node);
  if (n == nullptr) {
    return Status::NotFound("no such node " + std::to_string(node.value()));
  }
  if (n->IsMaster()) {
    return Status::InvalidArgument(
        "the master cannot crash: it holds the catalog and the transaction "
        "domain (single-master design, §3.2)");
  }
  if (n->hardware().power_state() == hw::PowerState::kBooting) {
    return Status::Busy("node " + std::to_string(node.value()) +
                        " is booting; crash it once active");
  }
  if (!n->IsActive()) {
    return Status::FailedPrecondition(
        "node " + std::to_string(node.value()) + " is already down");
  }

  const SimTime now = cluster_->Now();
  int64_t wiped = 0;
  // Volatile-state loss: pages carrying inserts newer than the partition's
  // last checkpoint are treated as never flushed — the records vanish from
  // the segments and only the WAL (forced at commit) remembers them. Redo
  // rebuilds them at restart. Updates and deletes were applied in place to
  // pages that already existed at the checkpoint and survive; replaying
  // their after-images at restart is idempotent.
  for (catalog::Partition* p : cluster_->catalog().PartitionsOwnedBy(node)) {
    for (const tx::LogRecord& rec : n->log().TailAfter(p->id())) {
      if (rec.type != tx::LogRecordType::kInsert) continue;
      const SegmentId sid = p->SegmentFor(rec.key);
      if (!sid.valid()) continue;
      storage::Segment* seg = cluster_->segments().Get(sid);
      if (seg != nullptr && seg->Contains(rec.key)) {
        // The wipe models page loss, not workload: undo its bump of the
        // access counters so the heat monitor never sees the crash itself
        // as activity on the dead node.
        const int64_t reads_before = seg->reads();
        const int64_t writes_before = seg->writes();
        WATTDB_CHECK(seg->Delete(rec.key).ok());
        seg->SetStats(reads_before, writes_before);
        ++wiped;
      }
    }
  }
  // The buffer pool dies with the node.
  for (storage::Segment* seg : cluster_->segments().SegmentsOn(node)) {
    n->buffer().InvalidateSegment(seg->id());
  }
  n->hardware().set_power_state(hw::PowerState::kStandby);
  scheme_->OnNodeFailure(node);

  cluster_->MarkCrashed(node);
  ++crashes_;
  WATTDB_INFO("fault: node " << node.value() << " crashed at t="
                             << ToSeconds(now) << "s (" << wiped
                             << " unflushed insert(s) lost)");
  // Remember the loss for the eventual recovery report.
  wiped_at_crash_[node] = wiped;
  return Status::OK();
}

Status RecoveryManager::Restart(
    NodeId node, std::function<void(const RecoveryReport&)> on_recovered) {
  cluster::Node* n = cluster_->node(node);
  if (n == nullptr) {
    return Status::NotFound("no such node " + std::to_string(node.value()));
  }
  if (n->IsActive()) {
    return Status::FailedPrecondition(
        "node " + std::to_string(node.value()) + " is already active");
  }
  if (n->hardware().power_state() == hw::PowerState::kBooting) {
    return Status::Busy("node already booting");
  }
  return cluster_->PowerOn(
      node, [this, node, cb = std::move(on_recovered)]() {
        // Redo mutates state now (boot completion) but its simulated cost
        // runs until report.recovered_at — the node counts as down, and the
        // report as pending, until then.
        const RecoveryReport report = Redo(node);
        cluster_->events().ScheduleAt(
            report.recovered_at, [this, node, report, cb]() {
              // A re-crash inside the redo window wins: stay down, drop the
              // recovery (its redone state was wiped again by the crash).
              if (!cluster_->node(node)->IsActive()) return;
              cluster_->MarkRecovered(node);
              wiped_at_crash_.erase(node);
              reports_.push_back(report);
              WATTDB_INFO("fault: node " << node.value() << " recovered: "
                                         << report.records_replayed
                                         << " record(s) replayed from "
                                         << report.tail_bytes
                                         << " log bytes in "
                                         << report.redo_us / 1000.0 << " ms");
              if (cb) cb(report);
            });
      });
}

RecoveryReport RecoveryManager::Redo(NodeId node) {
  cluster::Node* n = cluster_->node(node);
  WATTDB_CHECK(n != nullptr && n->IsActive());
  const SimTime now = cluster_->Now();

  RecoveryReport report;
  report.node = node;
  report.restarted_at = now;
  const cluster::NodeState& state = cluster_->node_state(node);
  report.crashed_at = state.crashed ? state.crashed_at : 0;
  auto wiped_it = wiped_at_crash_.find(node);
  report.records_lost_at_crash =
      wiped_it != wiped_at_crash_.end() ? wiped_it->second : 0;

  // Redo replay is administrative I/O, not workload: snapshot the node's
  // segment access counters and restore them afterwards, so the master's
  // heat monitor never mistakes a recovering node for a hot one.
  std::unordered_map<uint32_t, std::pair<int64_t, int64_t>> counter_snapshot;
  for (storage::Segment* s : cluster_->segments().SegmentsOn(node)) {
    counter_snapshot[s->id().value()] = {s->reads(), s->writes()};
  }

  SimTime t = now;
  auto& catalog = cluster_->catalog();
  for (catalog::Partition* p : catalog.PartitionsOwnedBy(node)) {
    // Warm-standby partitions are not redone: their content was applied
    // from the *source's* log, nothing of theirs is in this node's WAL.
    // The ReplicaManager drops them when it learns the host died.
    if (p->is_replica()) continue;
    // A partition caught mid-move by the crash reopens as a normal one: the
    // scheme already rolled the move off the master's books.
    p->set_state(catalog::PartitionState::kNormal);

    const std::vector<tx::LogRecord> tail = n->log().TailAfter(p->id());
    size_t tail_bytes = 0;
    int64_t applied = 0;
    for (const tx::LogRecord& rec : tail) {
      tail_bytes += rec.Bytes();
      if (tx::IsDataRecord(rec.type)) ++applied;
    }
    // Scan the tail off the log disk, then re-apply it (per-record CPU).
    t = n->log().ChargeReplayRead(t, tail_bytes);
    const StatusOr<SimTime> redone = n->ReplayTail(p, tail, t);
    WATTDB_CHECK_MSG(redone.ok(), "redo of partition "
                                      << p->id().value() << " failed: "
                                      << redone.status().ToString());
    t = *redone;

    // Re-register with the master: every key range this partition holds
    // must be reachable again. Ranges the routing tree still points at
    // (as primary, or as the secondary of an interrupted move) are left
    // alone; orphaned ranges are reclaimed — under the ownership epoch the
    // partition last held them at, so a promotion that happened while the
    // node was down fences the deposed owner off instead of letting it
    // steal the route back and serve stale data.
    // One claim token for the whole walk: reclaiming one range restamps
    // the partition's epoch, and judging the next range under the inflated
    // token would let it steal back a route that was promoted away.
    const uint64_t claim_token = p->route_epoch();
    for (const auto& entry : p->top_index().All()) {
      const auto route = catalog.Route(p->table(), entry.range.lo);
      if (route.has_value() &&
          (route->primary == p->id() || route->secondary == p->id())) {
        // Still routed here — but a fence stamped past the token with the
        // route still naming this partition means a promotion sealed the
        // range and never flipped (the standby died first). The full WAL
        // was just replayed, so this copy is authoritative: reclaim to
        // restamp, or the orphaned fence refuses the range forever.
        report.routes_restored +=
            catalog.HealOrphanedFences(*p, entry.range, claim_token);
        continue;
      }
      const Status claim = catalog.ReclaimRange(p->table(), entry.range,
                                                p->id(), claim_token);
      if (claim.IsFailedPrecondition()) {
        // Superseded: a warm replica of this range was promoted during the
        // outage. The local copy is stale — drop it rather than carry two
        // divergent versions of the range.
        (void)n->DiscardSegment(p, entry.segment);
        ++report.routes_superseded;
        WATTDB_INFO("recovery: node "
                    << node.value() << " range [" << entry.range.lo << ","
                    << entry.range.hi << ") superseded while down: "
                    << claim.ToString());
        continue;
      }
      WATTDB_CHECK_MSG(claim.ok(), "route reclaim failed: "
                                       << claim.ToString());
      ++report.routes_restored;
    }

    report.tail_records += static_cast<int64_t>(tail.size());
    report.tail_bytes += tail_bytes;
    report.records_replayed += applied;
    ++report.partitions_recovered;
  }

  for (storage::Segment* s : cluster_->segments().SegmentsOn(node)) {
    auto it = counter_snapshot.find(s->id().value());
    if (it == counter_snapshot.end()) {
      s->ResetStats();  // Materialized by the redo itself.
    } else {
      s->SetStats(it->second.first, it->second.second);
    }
  }

  report.recovered_at = t;
  report.redo_us = t - now;
  report.outage_us =
      report.crashed_at > 0 ? t - report.crashed_at : report.redo_us;
  return report;
}

}  // namespace wattdb::fault
