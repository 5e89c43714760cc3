#include "cluster/master.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/recovery_manager.h"
#include "replica/replica_manager.h"

namespace wattdb::cluster {

namespace {
/// Give up re-planning a drain after this many attempts, as
/// kMaxHealAttempts does for restarts.
constexpr int kMaxDrainAttempts = 5;
/// Re-lane at most this many segments per intra-node balancing round.
constexpr int kMaxRelanesPerRound = 4;

/// The kNodeRecovered event detail of one completed restart.
std::string RecoveredDetail(const fault::RecoveryReport& report) {
  return "redo " + std::to_string(report.redo_us / 1000.0) + " ms, " +
         std::to_string(report.records_replayed) + " record(s) replayed, " +
         std::to_string(report.routes_restored) + " route(s) restored";
}
}  // namespace

const char* ToString(ControlEventType type) {
  switch (type) {
    case ControlEventType::kScaleOut: return "scale-out";
    case ControlEventType::kScaleIn: return "scale-in";
    case ControlEventType::kNodeSuspected: return "node-suspected";
    case ControlEventType::kNodeDeclaredDead: return "node-declared-dead";
    case ControlEventType::kRestartIssued: return "restart-issued";
    case ControlEventType::kNodeRecovered: return "node-recovered";
    case ControlEventType::kDrainStarted: return "drain-started";
    case ControlEventType::kNodeExcluded: return "node-excluded";
    case ControlEventType::kHelperLost: return "helper-lost";
    case ControlEventType::kHelperFallback: return "helper-fallback";
    case ControlEventType::kHelperRecruited: return "helper-recruited";
    case ControlEventType::kHeatImbalance: return "heat-imbalance";
    case ControlEventType::kHeatMovePlanned: return "heat-move-planned";
    case ControlEventType::kHeatMoveAbandoned: return "heat-move-abandoned";
    case ControlEventType::kHeatRebalanced: return "heat-rebalanced";
    case ControlEventType::kReplicaCreated: return "replica-created";
    case ControlEventType::kReplicaCaughtUp: return "replica-caught-up";
    case ControlEventType::kReplicaPromoted: return "replica-promoted";
    case ControlEventType::kReplicaDropped: return "replica-dropped";
    case ControlEventType::kOverloadDetected: return "overload-detected";
    case ControlEventType::kOverloadCleared: return "overload-cleared";
    case ControlEventType::kLaneImbalance: return "lane-imbalance";
    case ControlEventType::kSegmentRelaned: return "segment-relaned";
    case ControlEventType::kLaneRebalanced: return "lane-rebalanced";
  }
  return "unknown";
}

Master::Master(Cluster* cluster, Repartitioner* repartitioner,
               MasterPolicy policy)
    : cluster_(cluster),
      repartitioner_(repartitioner),
      policy_(policy),
      monitor_(cluster) {}

void Master::Start() {
  if (running_) return;
  running_ = true;
  cluster_->events().ScheduleAfter(policy_.check_period,
                                   [this]() { ControlTick(); });
}

void Master::Emit(ControlEventType type, NodeId node, std::string detail) {
  ControlEvent event;
  event.at = cluster_->Now();
  event.type = type;
  event.node = node;
  event.detail = std::move(detail);
  WATTDB_INFO("master: " << ToString(type) << " node " << node.value()
                         << " at t=" << ToSeconds(event.at) << "s — "
                         << event.detail);
  control_events_.push_back(event);
  ++event_counts_[static_cast<size_t>(type)];
  if (event_listener_) event_listener_(control_events_.back());
}

void Master::ControlTick() {
  if (!running_) return;
  const auto stats = monitor_.Sample(policy_.stats_window);
  CheckHeartbeats(stats);
  CheckOverload();
  // The heat balancer and the replica selector read the same per-segment
  // heat EWMA. Advance it every tick — idle windows must cool segments
  // down — but only after CheckHeartbeats, so a promotion there still
  // breaks ties on the previous tick's heat.
  const bool balancing = policy_.balance.enabled && repartitioner_ != nullptr;
  const bool replicating = policy_.replica.enabled && replicas_ != nullptr;
  if (balancing || replicating) {
    monitor_.UpdateHeat(policy_.check_period, policy_.balance.ewma_alpha);
  }
  MaybeBalanceHeat();
  if (replicating) replicas_->Tick();
  if (repartitioner_ == nullptr || !repartitioner_->InProgress()) {
    MaybeScaleOut(stats);
    MaybeScaleIn(stats);
  }
  cluster_->events().ScheduleAfter(policy_.check_period,
                                   [this]() { ControlTick(); });
}

void Master::CheckHeartbeats(const std::vector<NodeStats>& stats) {
  for (const auto& s : stats) {
    if (s.active) {
      // A reporting node is (back) under watch; a heal in flight is over
      // the moment the node shows up again.
      cluster_->NoteReported(s.node);
      continue;
    }
    const NodeState& state = cluster_->node_state(s.node);
    if (!state.watched) continue;  // Never active, or taken down by the
                                   // master itself.
    if (state.healing) continue;   // Restart in flight: booting and redo
                                   // take a while.
    const int misses = cluster_->NoteMissedWindow(s.node);
    if (misses == 1) {
      Emit(ControlEventType::kNodeSuspected, s.node,
           "missed 1 of " + std::to_string(kDeclareDeadAfter) +
               " heartbeat windows");
    }
    if (misses >= kDeclareDeadAfter) DeclareDead(s.node);
  }
}

void Master::DeclareDead(NodeId node) {
  const int crashes = cluster_->NoteDeclaredDead(node);
  Emit(ControlEventType::kNodeDeclaredDead, node,
       "missed " + std::to_string(kDeclareDeadAfter) +
           " consecutive windows; crash #" + std::to_string(crashes));
  // The scheme abandons queued moves touching the node; idempotent when the
  // recovery manager already notified it at crash time.
  if (repartitioner_ != nullptr) repartitioner_->OnNodeFailure(node);

  if (cluster_->node_state(node).helper) {
    // Helpers hold no partitions — replace instead of restarting.
    HandleHelperFailure(node);
    return;
  }
  // Standbys hosted *on* the dead node lost their (unlogged) state and are
  // discarded; standbys *of* the dead node's ranges are the fast failover
  // path — catch up from its surviving WAL and flip ownership, instead of
  // waiting out the full redo of a restart.
  DropReplicasOn(node);
  if (replicas_ != nullptr) replicas_->PromoteReplicasOf(node);
  if (!policy_.recovery.auto_heal) return;

  // Flaky after m detections: restart once more for data access, then
  // drain onto survivors and retire the node. Needs a scheme that can move
  // ownership; under physical partitioning restart-in-place is all we have.
  const bool flaky = policy_.recovery.exclude_after_crashes > 0 &&
                     crashes >= policy_.recovery.exclude_after_crashes &&
                     repartitioner_ != nullptr &&
                     repartitioner_->SupportsDrain();
  cluster_->BeginHealing(node);
  if (policy_.recovery.restart_backoff > 0) {
    cluster_->events().ScheduleAfter(
        policy_.recovery.restart_backoff,
        [this, node, flaky]() { IssueRestart(node, flaky, 0); });
  } else {
    IssueRestart(node, flaky, 0);
  }
}

void Master::IssueRestart(NodeId node, bool drain_after, int attempt) {
  if (!running_) return;
  // Came back on its own (e.g. a fault plan's auto-restart beat us to it).
  if (!cluster_->node_state(node).healing) return;
  Status issued = Status::FailedPrecondition("no recovery manager wired");
  if (recovery_ != nullptr) {
    issued = recovery_->Restart(
        node, [this, node, drain_after](const fault::RecoveryReport& report) {
          Emit(ControlEventType::kNodeRecovered, node,
               RecoveredDetail(report));
          cluster_->FinishHealing(node);
          if (drain_after) StartDrainAndExclude(node, 0);
        });
  }
  if (issued.ok()) {
    Emit(ControlEventType::kRestartIssued, node,
         drain_after ? "flaky node: restarting for drain-and-exclude"
                     : "restarting in place");
    return;
  }
  // Busy (already booting) resolves itself — the heartbeat pass clears the
  // healing flag once the node reports. Anything else is retried a bounded
  // number of times, then handed back to the operator.
  if (attempt + 1 >= kMaxHealAttempts) {
    WATTDB_WARN("master: giving up restarting node "
                << node.value() << " after " << kMaxHealAttempts
                << " attempts: " << issued.ToString());
    cluster_->AbandonHealing(node);
    return;
  }
  cluster_->events().ScheduleAfter(
      policy_.check_period, [this, node, drain_after, attempt]() {
        IssueRestart(node, drain_after, attempt + 1);
      });
}

void Master::StartDrainAndExclude(NodeId node, int attempt) {
  if (!running_) return;
  if (repartitioner_ == nullptr || !repartitioner_->SupportsDrain()) return;
  if (attempt >= kMaxDrainAttempts) {
    WATTDB_WARN("master: drain-and-exclude of node "
                << node.value() << " gave up after " << attempt
                << " attempts; leaving it to the operator");
    return;
  }
  // A re-crash between recovery and here (or mid-drain) makes draining
  // impossible — the heartbeat detector owns the node again.
  Node* n = cluster_->node(node);
  if (n == nullptr || !n->IsActive()) return;
  // Standby copies hosted on the victim are disposable — drop them rather
  // than have the drain move them (and again in the completion callback,
  // in case a replica landed here mid-drain).
  DropReplicasOn(node);
  const Status started = repartitioner_->Drain(node, [this, node, attempt]() {
    DropReplicasOn(node);
    const Status off = cluster_->PowerOff(node);
    if (off.ok()) {
      cluster_->Exclude(node);
      Emit(ControlEventType::kNodeExcluded, node,
           "drained and powered off after " +
               std::to_string(cluster_->node_state(node).declared_dead) +
               " crashes");
      return;
    }
    // Segments survived the drain (a survivor died mid-move, or writes
    // landed behind the planner); plan the remainder again — on the same
    // bounded attempt budget as the Busy path.
    WATTDB_WARN("master: node " << node.value()
                                << " not empty after drain: "
                                << off.ToString());
    StartDrainAndExclude(node, attempt + 1);
  });
  if (started.ok()) {
    Emit(ControlEventType::kDrainStarted, node,
         "flaky node (crash #" +
             std::to_string(cluster_->node_state(node).declared_dead) +
             "): moving its data to survivors");
    return;
  }
  if (started.IsBusy() && attempt + 1 < kMaxDrainAttempts) {
    // A rebalance is running; try again next control period.
    cluster_->events().ScheduleAfter(
        policy_.check_period,
        [this, node, attempt]() { StartDrainAndExclude(node, attempt + 1); });
    return;
  }
  WATTDB_WARN("master: drain-and-exclude of node "
              << node.value() << " abandoned: " << started.ToString());
}

void Master::HandleHelperFailure(NodeId helper) {
  auto it = std::find_if(
      helpers_.begin(), helpers_.end(),
      [helper](const HelperAssignment& h) { return h.helper == helper; });
  std::vector<NodeId> orphaned;
  if (it != helpers_.end()) {
    orphaned = std::move(it->assisted);
    helpers_.erase(it);
  }
  Emit(ControlEventType::kHelperLost, helper,
       "helper died mid-log-shipping; " + std::to_string(orphaned.size()) +
           " assisted node(s) orphaned");
  for (NodeId a : orphaned) {
    // The helper's disk died with the shipped tail's only durable copy;
    // the lost detach re-forces it from the assisted node's log buffer.
    cluster_->node(a)->DetachHelper(cluster_->Now(), HelperDetach::kLost);
    Emit(ControlEventType::kHelperFallback, a,
         "fell back to local logging (shipped tail re-forced locally; "
         "nothing committed is lost)");
  }
  cluster_->SetHelper(helper, false);

  if (!policy_.recovery.auto_heal || orphaned.empty()) return;
  // Recruit a standby replacement and wire it exactly as AttachHelpers
  // would have.
  NodeId replacement = NodeId::Invalid();
  for (int i = 1; i < cluster_->num_nodes(); ++i) {
    const NodeId candidate(i);
    if (!cluster_->EligibleFor(candidate, Role::kRecruit)) continue;
    if (cluster_->node_state(candidate).helper) continue;
    auto assists = [candidate](const HelperAssignment& h) {
      return std::count(h.assisted.begin(), h.assisted.end(), candidate) > 0;
    };
    if (std::any_of(helpers_.begin(), helpers_.end(), assists)) continue;
    replacement = candidate;
    break;
  }
  if (!replacement.valid()) {
    WATTDB_WARN("master: no standby available to replace helper "
                << helper.value() << "; assisted nodes stay on local logging");
    return;
  }
  helpers_.push_back({replacement, orphaned});
  cluster_->SetHelper(replacement, true);
  Emit(ControlEventType::kHelperRecruited, replacement,
       "standby booting as replacement helper for " +
           std::to_string(orphaned.size()) + " node(s)");
  const size_t pages = remote_buffer_pages_;
  (void)cluster_->PowerOn(replacement, [this, replacement, orphaned, pages]() {
    Node* h = cluster_->node(replacement);
    for (NodeId a : orphaned) cluster_->node(a)->AttachHelper(*h, pages);
    WATTDB_INFO("master: replacement helper " << replacement.value()
                                              << " wired");
  });
}

void Master::MaybeScaleOut(const std::vector<NodeStats>& stats) {
  if (!policy_.enable_scale_out || repartitioner_ == nullptr) return;
  bool overloaded = false;
  for (const auto& s : stats) {
    if (s.active && s.cpu > policy_.cpu_upper) overloaded = true;
  }
  if (OverloadPressure()) {
    // Sustained admission-queue overload is demand the CPU gauge may not
    // show (shed work never runs): more capacity is the durable fix, the
    // shedding only keeps admitted latency bounded meanwhile.
    overloaded = true;
  }
  if (!overloaded) {
    over_count_ = 0;
    return;
  }
  if (++over_count_ < policy_.trigger_after) return;
  over_count_ = 0;
  // Find a standby node to enlist — never a crashed or retired one: a
  // standby that is really an undetected (or not-yet-healed) crash must
  // not be booted without redo.
  for (const auto& s : stats) {
    if (!cluster_->EligibleFor(s.node, Role::kRecruit)) continue;
    const int actives = cluster_->ActiveNodeCount();
    const double fraction = 1.0 / (actives + 1);
    Emit(ControlEventType::kScaleOut, s.node,
         "booting standby, migrating fraction " + std::to_string(fraction));
    TriggerRebalance({s.node}, fraction, nullptr);
    return;
  }
}

void Master::MaybeScaleIn(const std::vector<NodeStats>& stats) {
  if (!policy_.enable_scale_in || repartitioner_ == nullptr) return;
  int active = 0;
  bool all_under = true;
  for (const auto& s : stats) {
    if (!s.active) continue;
    ++active;
    if (s.cpu > policy_.cpu_lower) all_under = false;
  }
  if (active <= 1 || !all_under) {
    under_count_ = 0;
    return;
  }
  if (++under_count_ < policy_.trigger_after) return;
  under_count_ = 0;
  // Drain the non-master active node with the least data. Helpers are not
  // candidates: they look empty (no segments) but carry the assisted
  // nodes' log stream and remote buffer tier. Neither is a node that just
  // finished booting after a crash: it looks like the perfect victim —
  // zero load, zero bytes — but its redo has not run yet, and powering it
  // off mid-recovery strands the unredone WAL tail and leaves it crashed
  // forever (each later restart gets re-drained at the same instant).
  NodeId victim = NodeId::Invalid();
  size_t least_bytes = SIZE_MAX;
  for (const auto& s : stats) {
    if (!cluster_->EligibleFor(s.node, Role::kScaleInVictim)) continue;
    size_t bytes = 0;
    for (auto* seg : cluster_->segments().SegmentsOn(s.node)) {
      bytes += seg->DiskBytes();
    }
    if (bytes < least_bytes) {
      least_bytes = bytes;
      victim = s.node;
    }
  }
  if (!victim.valid()) return;
  Emit(ControlEventType::kScaleIn, victim, "draining least-loaded node");
  DropReplicasOn(victim);
  repartitioner_->Drain(victim, [this, victim]() {
    DropReplicasOn(victim);
    const Status s = cluster_->PowerOff(victim);
    // Taken down deliberately: no heartbeats expected, no false alarm.
    if (s.ok()) cluster_->StopWatching(victim);
    WATTDB_INFO("scale-in: node " << victim.value() << " off: "
                                  << s.ToString());
  });
}

void Master::CheckOverload() {
  const admission::AdmissionPolicy& ap = policy_.admission;
  if (!ap.enabled) return;
  const int64_t line = std::max<int64_t>(
      1, static_cast<int64_t>(ap.overload_ratio * ap.max_queue_ops));
  int over_nodes = 0;
  int64_t deepest = 0;
  NodeId deepest_node = NodeId::Invalid();
  for (const auto& g : monitor_.QueueDepths()) {
    if (g.queued_ops < line) continue;
    ++over_nodes;
    if (g.queued_ops > deepest) {
      deepest = g.queued_ops;
      deepest_node = g.node;
    }
  }
  if (over_nodes == 0) {
    if (overload_announced_) {
      Emit(ControlEventType::kOverloadCleared, last_overload_node_,
           "queue depths back under " + std::to_string(line) + " ops");
    }
    overload_streak_ = 0;
    overload_announced_ = false;
    return;
  }
  last_overload_node_ = deepest_node;
  ++overload_streak_;
  if (overload_streak_ >= admission::kOverloadTriggerAfter &&
      !overload_announced_) {
    overload_announced_ = true;
    Emit(ControlEventType::kOverloadDetected, deepest_node,
         std::to_string(over_nodes) + " node(s) past " + std::to_string(line) +
             " queued ops for " + std::to_string(overload_streak_) +
             " ticks (deepest " + std::to_string(deepest) + " ops); shed " +
             std::to_string(cluster_->admission().shed_total()) +
             " so far — treating as scale-out/balance pressure");
  }
}

void Master::MaybeBalanceHeat() {
  const BalancePolicy& bp = policy_.balance;
  if (!bp.enabled || repartitioner_ == nullptr) return;
  if (!repartitioner_->SupportsDrain()) return;  // Needs ownership transfer.

  const auto node_heat = monitor_.NodeHeats();
  // Mean over serving nodes: a cold node with zero heat pulls the mean
  // down — that is the point, it has spare capacity. Helpers are neither
  // counted nor targeted; they hold no partitions.
  double total = 0.0;
  int serving = 0;
  NodeId hot = NodeId::Invalid();
  double hot_heat = 0.0;
  for (Node* n : cluster_->ActiveNodes()) {
    if (cluster_->node_state(n->id()).helper) continue;
    ++serving;
    auto it = node_heat.find(n->id());
    const double h = it == node_heat.end() ? 0.0 : it->second;
    total += h;
    if (h > hot_heat) {
      hot_heat = h;
      hot = n->id();
    }
  }
  if (serving < 2 || total < bp.min_total_heat || !hot.valid()) {
    heat_over_count_ = 0;
    return;
  }
  const double mean = total / serving;
  // Under sustained admission-queue overload the trigger relaxes: even a
  // mild skew (hottest node a hair over the mean) is worth spreading when
  // work is being refused somewhere. Without pressure the normal ratio
  // applies so noise does not shuffle segments.
  const bool pressured = OverloadPressure();
  if (hot_heat <= bp.trigger_ratio * mean &&
      !(pressured && hot_heat > 1.05 * mean)) {
    heat_over_count_ = 0;
    return;
  }
  // The violation streak is evaluated on EVERY tick — including ticks where
  // a migration is in flight or the cooldown gate is closed — so that
  // "trigger_after consecutive imbalanced ticks" really means consecutive:
  // one balanced tick anywhere resets the streak.
  ++heat_over_count_;
  if (heat_over_count_ < bp.trigger_after) return;
  if (heat_round_in_flight_ || repartitioner_->InProgress()) return;
  if (cluster_->Now() < next_balance_at_) return;
  heat_over_count_ = 0;

  // Tier 1 — intra-node: if the hot node's own lanes are skewed, remap hot
  // segments between its lanes (in-memory, no pages or network move) and
  // skip the cross-node tier this round. Only when the lanes are already
  // even is the imbalance genuine node-level pressure worth a migration.
  if (MaybeRelaneHot(hot)) return;

  std::vector<SegmentMove> plan = PlanHeatMoves(hot, mean, node_heat);
  if (plan.empty()) return;  // Imbalanced but nothing movable right now
                             // (cooldowns, or no move narrows the gap).
  heat_round_in_flight_ = true;
  const Status started =
      repartitioner_->StartMoves(plan, [this, plan]() {
        FinishHeatRound(plan);
      });
  if (!started.ok()) {
    // A scheme that cannot (or will not) execute the plan must not be
    // re-asked every trigger_after ticks — back off one full cooldown so
    // neither the event log nor the counters tell a story of rounds that
    // never ran.
    heat_round_in_flight_ = false;
    next_balance_at_ = cluster_->Now() + bp.cooldown;
    WATTDB_WARN("master: heat rebalance failed to start: "
                << started.ToString());
    return;
  }
  Emit(ControlEventType::kHeatImbalance, hot,
       "node heat " + std::to_string(static_cast<int64_t>(hot_heat)) +
           " ops/s vs mean " + std::to_string(static_cast<int64_t>(mean)) +
           " over " + std::to_string(serving) + " nodes (trigger ratio " +
           std::to_string(bp.trigger_ratio) + "); moving " +
           std::to_string(plan.size()) + " segment(s)");
  for (const auto& m : plan) {
    Emit(ControlEventType::kHeatMovePlanned, m.dst_node,
         "segment " + std::to_string(m.segment.value()) + " (heat " +
             std::to_string(
                 static_cast<int64_t>(monitor_.HeatOf(m.segment))) +
             " ops/s) node " + std::to_string(m.src_node.value()) + " -> " +
             std::to_string(m.dst_node.value()));
  }
}

bool Master::MaybeRelaneHot(NodeId hot) {
  lanes::LaneManager& lanes = cluster_->lanes();
  if (!lanes.enabled() || !lanes.policy().balance_lanes) return false;
  if (lanes.lanes_per_node() < 2) return false;
  const lanes::LanePolicy& lp = lanes.policy();

  const auto lane_stats = monitor_.LaneStatsFor(hot);
  double total = 0.0;
  size_t hot_lane = 0;
  size_t cold_lane = 0;
  for (size_t l = 0; l < lane_stats.size(); ++l) {
    total += lane_stats[l].heat;
    if (lane_stats[l].heat > lane_stats[hot_lane].heat) hot_lane = l;
    if (lane_stats[l].heat < lane_stats[cold_lane].heat) cold_lane = l;
  }
  const double mean = total / static_cast<double>(lane_stats.size());
  if (mean <= 0.0 ||
      lane_stats[hot_lane].heat <= lp.lane_trigger_ratio * mean) {
    return false;
  }

  // Hot lane's segments, hottest first, skipping recent re-lanes.
  struct Candidate {
    storage::Segment* seg;
    double heat;
  };
  const SimTime now = cluster_->Now();
  std::vector<Candidate> candidates;
  for (const auto& entry : monitor_.SegmentHeats()) {
    if (entry.node != hot || entry.heat <= 0.0) continue;
    storage::Segment* seg = cluster_->segments().Get(entry.segment);
    if (seg == nullptr || seg->lane() != static_cast<int>(hot_lane)) continue;
    auto cd = relane_cooldown_until_.find(entry.segment);
    if (cd != relane_cooldown_until_.end() && now < cd->second) continue;
    candidates.push_back({seg, entry.heat});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.heat > b.heat;
            });

  // Greedy, as in PlanHeatMoves one tier up: shed heat from the hot lane
  // onto the coldest lane until it reaches the mean or the budget runs
  // out, never creating a worse imbalance than the one being fixed.
  double hot_left = lane_stats[hot_lane].heat;
  double cold_now = lane_stats[cold_lane].heat;
  std::vector<Candidate> moves;
  for (const auto& c : candidates) {
    if (static_cast<int>(moves.size()) >= kMaxRelanesPerRound) break;
    if (hot_left <= mean) break;
    const double hot_after = hot_left - c.heat;
    const double cold_after = cold_now + c.heat;
    // A segment so hot it would just swap the imbalance stays put — only a
    // cross-node move (or a split) can help it.
    if (cold_after > hot_after && cold_after > lp.lane_trigger_ratio * mean) {
      continue;
    }
    moves.push_back(c);
    hot_left = hot_after;
    cold_now = cold_after;
  }
  if (moves.empty()) return false;

  Emit(ControlEventType::kLaneImbalance, hot,
       "lane " + std::to_string(hot_lane) + " heat " +
           std::to_string(static_cast<int64_t>(lane_stats[hot_lane].heat)) +
           " ops/s vs lane mean " +
           std::to_string(static_cast<int64_t>(mean)) + " (trigger ratio " +
           std::to_string(lp.lane_trigger_ratio) + "); re-laning " +
           std::to_string(moves.size()) + " segment(s) to lane " +
           std::to_string(cold_lane));
  for (const auto& m : moves) {
    lanes.Relane(m.seg, static_cast<int>(cold_lane));
    relane_cooldown_until_[m.seg->id()] = now + lp.relane_cooldown;
    Emit(ControlEventType::kSegmentRelaned, hot,
         "segment " + std::to_string(m.seg->id().value()) + " (heat " +
             std::to_string(static_cast<int64_t>(m.heat)) + " ops/s) lane " +
             std::to_string(hot_lane) + " -> " + std::to_string(cold_lane));
  }
  Emit(ControlEventType::kLaneRebalanced, hot,
       std::to_string(moves.size()) + " segment(s) re-laned; hot lane heat " +
           std::to_string(static_cast<int64_t>(lane_stats[hot_lane].heat)) +
           " -> " + std::to_string(static_cast<int64_t>(hot_left)) +
           " ops/s projected, no data moved");
  return true;
}

std::vector<SegmentMove> Master::PlanHeatMoves(
    NodeId hot, double mean,
    const std::unordered_map<NodeId, double>& node_heat) {
  const BalancePolicy& bp = policy_.balance;
  const SimTime now = cluster_->Now();

  // Candidates: every segment of every partition the hot node owns that is
  // warm and not cooling down from a recent move, hottest first.
  struct Candidate {
    SegmentMove move;
    double heat;
  };
  std::vector<Candidate> candidates;
  for (catalog::Partition* part :
       cluster_->catalog().PartitionsOwnedBy(hot)) {
    // Standby copies are not routed primaries: moving one would hand
    // CompleteMove a range the replica never owned. They are dropped or
    // promoted, never migrated.
    if (part->is_replica()) continue;
    for (const auto& e : part->top_index().All()) {
      const double h = monitor_.HeatOf(e.segment);
      if (h <= 0.0) continue;
      auto cd = segment_cooldown_until_.find(e.segment);
      if (cd != segment_cooldown_until_.end() && now < cd->second) continue;
      candidates.push_back(
          {SegmentMove{part->table(), e.segment, e.range, part->id(), hot,
                       NodeId::Invalid()},
           h});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.heat > b.heat;
            });

  // Eligible targets: active serving nodes that are not suspected, healing,
  // or (per ground truth) crashed. A node must also still be watched — a
  // declared-dead node stops being watched (and, once its restart attempts
  // are exhausted, healing) without ever crashing when the cause is a
  // network partition, and data must not be moved onto a node the master
  // cannot reach.
  std::vector<std::pair<NodeId, double>> targets;
  for (Node* n : cluster_->ActiveNodes()) {
    if (n->id() == hot) continue;
    if (!cluster_->EligibleFor(n->id(), Role::kHeatTarget)) continue;
    auto it = node_heat.find(n->id());
    targets.push_back(
        {n->id(), it == node_heat.end() ? 0.0 : it->second});
  }
  if (targets.empty()) return {};

  auto hh = node_heat.find(hot);
  double hot_heat = hh == node_heat.end() ? 0.0 : hh->second;
  std::vector<SegmentMove> plan;
  for (auto& c : candidates) {
    if (static_cast<int>(plan.size()) >= bp.max_moves_per_round) break;
    if (hot_heat <= mean) break;  // Projected back at the mean: done.
    auto cold = std::min_element(
        targets.begin(), targets.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    // Only move when it strictly narrows the gap — a segment so hot that
    // the receiver would end up hotter than the donor merely relocates the
    // hotspot (and would ping-pong right back).
    if (cold->second + c.heat >= hot_heat) continue;
    c.move.dst_node = cold->first;
    plan.push_back(c.move);
    hot_heat -= c.heat;
    cold->second += c.heat;
  }
  return plan;
}

void Master::FinishHeatRound(const std::vector<SegmentMove>& plan) {
  heat_round_in_flight_ = false;
  const SimTime now = cluster_->Now();
  next_balance_at_ = now + policy_.balance.cooldown;
  int moved = 0;
  int abandoned = 0;
  for (const auto& m : plan) {
    // Installed iff the range now routes to a partition owned by the
    // target (CompleteMove flipped the primary). A crash mid-move leaves
    // ownership at the source — those segments re-enter planning once the
    // trigger next fires, with no cooldown stamp.
    const auto entry = cluster_->catalog().Route(m.table, m.range.lo);
    const catalog::Partition* owner_part =
        entry.has_value() ? cluster_->catalog().GetPartition(entry->primary)
                          : nullptr;
    const bool installed =
        owner_part != nullptr && owner_part->owner() == m.dst_node;
    if (installed) {
      ++moved;
      ++heat_moves_completed_;
      // Twice the round cooldown: strictly outlives the next_balance_at_
      // gate stamped above, so the next round can never bounce this
      // segment straight back.
      segment_cooldown_until_[m.segment] =
          now + 2 * policy_.balance.cooldown;
    } else {
      ++abandoned;
      Emit(ControlEventType::kHeatMoveAbandoned, m.src_node,
           "segment " + std::to_string(m.segment.value()) +
               " never installed on node " +
               std::to_string(m.dst_node.value()) +
               " (endpoint crashed mid-move); will re-plan");
    }
  }
  Emit(ControlEventType::kHeatRebalanced,
       plan.empty() ? NodeId::Invalid() : plan.front().src_node,
       std::to_string(moved) + " segment(s) moved, " +
           std::to_string(abandoned) + " abandoned; next round no earlier "
           "than t=" +
           std::to_string(ToSeconds(next_balance_at_)) + "s");
}

Status Master::TriggerRebalance(const std::vector<NodeId>& targets,
                                double fraction,
                                std::function<void()> done) {
  if (repartitioner_ == nullptr) {
    return Status::InvalidArgument("no repartitioner configured");
  }
  if (repartitioner_->InProgress()) {
    return Status::Busy("rebalance already running");
  }
  // Validate what can be validated before booting anything: once targets
  // are booting, a late StartRebalance failure can only be logged.
  if (targets.empty() || fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("bad rebalance parameters");
  }
  // Boot any standby targets first; start when all are active.
  auto pending = std::make_shared<int>(0);
  auto start = [this, targets, fraction, done]() -> Status {
    return repartitioner_->StartRebalance(targets, fraction, done);
  };
  std::vector<NodeId> to_boot;
  for (NodeId t : targets) {
    Node* n = cluster_->node(t);
    if (n == nullptr) {
      return Status::NotFound("no such target node " +
                              std::to_string(t.value()));
    }
    if (!n->IsActive()) to_boot.push_back(t);
  }
  if (to_boot.empty()) return start();
  *pending = static_cast<int>(to_boot.size());
  auto on_up = [pending, start]() {
    if (--*pending > 0) return;
    // Deferred start after boot: failures can only be logged here.
    if (const Status s = start(); !s.ok()) {
      WATTDB_WARN("rebalance failed to start: " << s.ToString());
    }
  };
  for (NodeId t : to_boot) {
    // A target that is down because it CRASHED (vs a cold standby) must
    // come back through recovery — bare PowerOn would skip the redo, leave
    // the recovery manager considering the node down forever, and pull
    // fresh data onto a disk whose WAL tail was never replayed.
    if (cluster_->node_state(t).crashed) {
      if (recovery_ == nullptr) {
        return Status::FailedPrecondition(
            "target node " + std::to_string(t.value()) +
            " crashed and no recovery manager is wired");
      }
      WATTDB_RETURN_IF_ERROR(recovery_->Restart(
          t, [on_up](const fault::RecoveryReport&) { on_up(); }));
      continue;
    }
    WATTDB_RETURN_IF_ERROR(cluster_->PowerOn(t, on_up));
  }
  return Status::OK();
}

Status Master::AttachHelpers(const std::vector<NodeId>& helpers,
                             const std::vector<NodeId>& assisted,
                             size_t remote_buffer_pages) {
  if (!helpers_.empty()) {
    // Silently rewiring would strand the first helper set's shipped log
    // tail; the caller must DetachHelpers (which re-localizes it) first.
    return Status::FailedPrecondition(
        "helpers already attached; call DetachHelpers first");
  }
  if (helpers.empty() || assisted.empty()) {
    return Status::InvalidArgument("need helpers and assisted nodes");
  }
  for (NodeId id : helpers) {
    if (cluster_->node(id) == nullptr) {
      return Status::NotFound("no such helper node " +
                              std::to_string(id.value()));
    }
    if (std::find(assisted.begin(), assisted.end(), id) != assisted.end()) {
      return Status::InvalidArgument(
          "node " + std::to_string(id.value()) +
          " cannot ship its own log to itself (helper and assisted)");
    }
    // A crashed-or-excluded standby would take the assisted nodes' WAL
    // stream to a disk that needs redo itself (or is about to power off
    // for good) — refuse instead of silently wiring a doomed helper.
    if (!cluster_->EligibleFor(id, Role::kHelper)) {
      return Status::FailedPrecondition(
          "helper node " + std::to_string(id.value()) +
          (cluster_->node_state(id).excluded
               ? " is excluded from duty"
               : " crashed and has not recovered"));
    }
  }
  for (NodeId id : assisted) {
    if (cluster_->node(id) == nullptr) {
      return Status::NotFound("no such assisted node " +
                              std::to_string(id.value()));
    }
  }
  // Round-robin helpers across assisted nodes: each assisted node ships
  // its log to one helper and uses its memory as an rDMA buffer tier. The
  // assignment is remembered so a helper failure knows exactly which nodes
  // to fall back and re-wire.
  for (NodeId h : helpers) helpers_.push_back({h, {}});
  for (size_t i = 0; i < assisted.size(); ++i) {
    helpers_[i % helpers_.size()].assisted.push_back(assisted[i]);
  }
  remote_buffer_pages_ = remote_buffer_pages;
  auto pending = std::make_shared<int>(static_cast<int>(helpers.size()));
  auto wire = [this, remote_buffer_pages]() {
    // Wires what is attached when the last helper is up: nothing, when
    // DetachHelpers ran while they booted.
    for (const HelperAssignment& h : helpers_) {
      Node* helper = cluster_->node(h.helper);
      for (NodeId a : h.assisted) {
        cluster_->node(a)->AttachHelper(*helper, remote_buffer_pages);
      }
      if (!h.assisted.empty()) cluster_->SetHelper(h.helper, true);
    }
    WATTDB_INFO("helpers wired for log shipping + remote buffering");
  };
  for (NodeId h : helpers) {
    WATTDB_RETURN_IF_ERROR(cluster_->PowerOn(h, [pending, wire]() {
      if (--*pending == 0) wire();
    }));
  }
  return Status::OK();
}

Status Master::DetachHelpers() {
  for (const HelperAssignment& h : helpers_) {
    for (NodeId a : h.assisted) {
      // Graceful detach: the shipped tail is read back from the (still
      // alive) helper and re-localized before the helper powers off.
      cluster_->node(a)->DetachHelper(cluster_->Now(),
                                      HelperDetach::kGraceful);
    }
    if (cluster_->PowerOff(h.helper).ok()) cluster_->StopWatching(h.helper);
    cluster_->SetHelper(h.helper, false);
  }
  helpers_.clear();
  return Status::OK();
}

void Master::DropReplicasOn(NodeId node) {
  if (replicas_ != nullptr) replicas_->DropReplicasOn(node);
}

}  // namespace wattdb::cluster
