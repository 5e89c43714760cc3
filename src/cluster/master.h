#ifndef WATTDB_CLUSTER_MASTER_H_
#define WATTDB_CLUSTER_MASTER_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "admission/admission.h"
#include "cluster/cluster.h"
#include "cluster/monitor.h"
#include "common/constants.h"
#include "common/status.h"

namespace wattdb::fault {
class RecoveryManager;
}  // namespace wattdb::fault

namespace wattdb::partition {
class MigrationManagerBase;
}  // namespace wattdb::partition

namespace wattdb::replica {
class ReplicaManager;
}  // namespace wattdb::replica

namespace wattdb::cluster {

/// Progress counters every repartitioning scheme maintains; exposed by
/// MigrationManagerBase::stats() so facade users can watch a move without
/// knowing the concrete scheme.
struct RebalanceStats {
  int64_t segments_moved = 0;
  int64_t records_moved = 0;
  int64_t bytes_shipped = 0;
  /// Move tasks planned by the current (or last) rebalance/drain.
  int64_t tasks_planned = 0;
  /// Tasks abandoned because their source or target node failed.
  int64_t tasks_failed = 0;
  /// Queued drain tasks orphaned by their *destination* failing that were
  /// immediately re-targeted onto a surviving destination instead of
  /// abandoned. Only a drain can do this — its source (the drain victim)
  /// is fixed, so abandoning the task would strand data on the victim
  /// until a later attempt re-plans it.
  int64_t tasks_replanned = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  bool running = false;

  /// Fraction of planned tasks resolved (moved or failed) — the trigger
  /// metric for "crash node X at migration progress p%" fault injection.
  double progress() const {
    if (tasks_planned <= 0) return running ? 0.0 : 1.0;
    return static_cast<double>(segments_moved + tasks_failed) /
           static_cast<double>(tasks_planned);
  }
};

/// One segment move: this segment's key range leaves its source partition
/// for `dst_node`. The task unit of every scheme, whether the master's heat
/// balancer planned it (StartMoves) or a rebalance or drain did; each runs
/// with the same §4.3 protocol (two-pointer routing, drain, crash
/// abandonment).
struct SegmentMove {
  TableId table;
  SegmentId segment;
  KeyRange range;
  PartitionId src_partition;
  NodeId src_node;
  NodeId dst_node;
};

/// Consecutive missed Monitor::Sample windows before a previously-active
/// node is declared dead (k). The first miss only raises kNodeSuspected.
inline constexpr int kDeclareDeadAfter = 2;

/// What the self-healing control loop does with nodes it declares dead.
/// §3.4 has the master continuously correlating node reports with cluster
/// state and *reacting* — node departure is a first-class event, not an
/// operator command.
struct RecoveryPolicy {
  /// React to detected failures. Off: the detector still declares nodes
  /// dead (and notifies the scheme) but never restarts or drains — the
  /// "without auto-healing" baseline of bench_self_healing.
  bool auto_heal = true;
  /// Restart-in-place until a node has been declared dead this many times;
  /// from then on it is treated as flaky — restarted once more for data
  /// access, drained onto survivors, powered off, and excluded from any
  /// future recruitment. 0 disables (always restart in place). Requires a
  /// scheme with SupportsDrain(); otherwise restart-in-place is kept.
  int exclude_after_crashes = 0;
  /// Wait between declaring a node dead and issuing its restart.
  SimTime restart_backoff = 0;
};

/// Heat-driven rebalancing knobs (§3.4: the master correlates node load
/// with per-partition activity to locate — and fix — the source of
/// imbalance). When the hottest node's EWMA heat exceeds `trigger_ratio`
/// times the active-node mean for `trigger_after` consecutive control
/// ticks, the master moves the node's hottest segments onto the coldest
/// eligible nodes through the scheme's targeted-move machinery.
struct BalancePolicy {
  bool enabled = false;
  /// Hottest node heat > trigger_ratio × mean heat counts as imbalanced.
  double trigger_ratio = 1.5;
  /// Smoothing of the per-segment heat EWMA (1 = last window only).
  double ewma_alpha = 0.5;
  /// Consecutive imbalanced ticks before acting (hysteresis).
  int trigger_after = 2;
  /// After a rebalance completes, no new one triggers for this long. A
  /// segment moved successfully is banned from moving again for *twice*
  /// this window — strictly longer than the round gate, so the first
  /// round after a cooldown can never bounce a just-moved segment back
  /// (ping-pong guard).
  SimTime cooldown = 20 * kUsPerSec;
  /// Segment-move budget of one rebalance round.
  int max_moves_per_round = 4;
  /// Total cluster heat (ops/s) below which the balancer stays quiet — an
  /// idle cluster's noise must not shuffle segments.
  double min_total_heat = 50.0;
};

/// Warm-replica knobs: which segments deserve standby copies, how many,
/// and how stale a copy may be while still serving reads. Driven from the
/// master's control tick (the ReplicaManager in src/replica does the actual
/// bootstrapping and log application). A caught-up replica always joins the
/// read fan-out, and a dead owner's freshest standby is always promoted.
struct ReplicaPolicy {
  bool enabled = false;
  /// Warm standbys maintained per hot segment.
  int replicas_per_segment = 1;
  /// Per-segment EWMA heat (ops/s) above which a segment is replicated.
  double heat_threshold = 50.0;
  /// Budget: at most this many distinct segments replicated at once.
  int max_replicated_segments = 4;
  /// Staleness bound: a replica lagging more than this many unapplied log
  /// records is pulled out of read fan-out until it catches back up.
  int64_t max_lag_records = 256;
  /// A replica whose segment has cooled below heat_threshold is dropped
  /// only after staying cold this long (hysteresis against flapping).
  SimTime drop_cold_after = 30 * kUsPerSec;
};

/// One decision of the master's control loop, timestamped in simulated
/// time. Db::control_events() exposes the full timeline so benches and
/// tests can assert *when* the master detected, restarted, drained, or
/// failed over — without scraping logs.
enum class ControlEventType {
  kScaleOut,        ///< CPU threshold crossed; standby node enlisted.
  kScaleIn,         ///< All nodes under the lower bound; node drained.
  kNodeSuspected,   ///< First missed heartbeat window.
  kNodeDeclaredDead,///< k consecutive windows missed.
  kRestartIssued,   ///< Auto-restart handed to the recovery subsystem.
  kNodeRecovered,   ///< Redo finished; node serving again.
  kDrainStarted,    ///< Flaky node: drain of its data onto survivors began.
  kNodeExcluded,    ///< Drained, powered off, barred from future duty.
  kHelperLost,      ///< An attached helper was declared dead.
  kHelperFallback,  ///< An assisted node fell back to local logging.
  kHelperRecruited, ///< A standby was wired as the replacement helper.
  kHeatImbalance,   ///< Sustained skew: hottest node over trigger_ratio×mean.
  kHeatMovePlanned, ///< One hot segment scheduled to move to a cold node.
  kHeatMoveAbandoned,///< A planned heat move did not install (crash mid-move).
  kHeatRebalanced,  ///< A heat-rebalance round finished; detail has counts.
  kReplicaCreated,  ///< A warm standby of a hot segment finished bootstrap.
  kReplicaCaughtUp, ///< A replica's lag fell under the staleness bound.
  kReplicaPromoted, ///< Catch-up-and-flip failover: replica became owner.
  kReplicaDropped,  ///< A replica was discarded (cooled, moved, host lost).
  kOverloadDetected,///< Admission queues sustained past overload_ratio.
  kOverloadCleared, ///< Queue depths fell back under the overload line.
  kLaneImbalance,   ///< Hot node's hottest lane over lane_trigger_ratio×mean.
  kSegmentRelaned,  ///< One segment remapped to a colder lane (intra-node).
  kLaneRebalanced,  ///< An intra-node re-lane round finished; detail: counts.
};

/// Number of ControlEventType values (kLaneRebalanced is the last): the
/// index range of the master's per-type event counts.
constexpr size_t kControlEventTypeCount =
    static_cast<size_t>(ControlEventType::kLaneRebalanced) + 1;

const char* ToString(ControlEventType type);

struct ControlEvent {
  SimTime at = 0;
  ControlEventType type = ControlEventType::kScaleOut;
  NodeId node;
  std::string detail;
};

/// Give up re-issuing a restart of a declared-dead node after this many
/// attempts — a node that cannot come back by then is left to the operator
/// instead of looping forever.
constexpr int kMaxHealAttempts = 10;

/// Longest MasterPolicy::stats_window that Db::Open accepts. The cluster
/// keeps as much resource history as the window, so this bounds that
/// memory.
constexpr SimTime kMaxStatsWindow = 30 * kUsPerSec;

/// Thresholds and cadence of the master's control loop (§3.4).
struct MasterPolicy {
  double cpu_upper = kCpuUpperThreshold;  ///< 80%: scale out / repartition.
  double cpu_lower = kCpuLowerThreshold;  ///< Under it on all nodes: scale in.
  SimTime check_period = 5 * kUsPerSec;
  /// Monitoring window; at most kMaxStatsWindow (checked at Db::Open). The
  /// master declares it to the cluster, which keeps that much history.
  SimTime stats_window = 10 * kUsPerSec;
  /// Consecutive violating samples before acting (hysteresis).
  int trigger_after = 2;
  bool enable_scale_out = true;
  bool enable_scale_in = true;
  /// Failure detection and self-healing knobs.
  RecoveryPolicy recovery;
  /// Heat-driven rebalancing knobs (skew reaction, §3.4).
  BalancePolicy balance;
  /// Warm standbys of hot segments (read scale-out + fast failover).
  ReplicaPolicy replica;
  /// Per-node admission queue caps + the overload signal (src/admission).
  /// The queue caps themselves are enforced at the routing layer; the
  /// master only *watches* sustained overload and treats it as scale-out
  /// and heat-balance pressure.
  admission::AdmissionPolicy admission;
};

/// The master node's control plane: watches node utilization, decides when
/// to power nodes on/off, triggers repartitioning through the active
/// scheme, and — since the self-healing loop — detects node failures from
/// missed heartbeat windows and reacts per RecoveryPolicy: restart in
/// place, drain-and-exclude flaky nodes, and fail over dead helper nodes.
/// Query routing itself lives in Cluster::RouteBoth/RouteForRead and
/// cluster/routed_ops; this class is the elasticity and availability
/// controller.
class Master {
 public:
  /// Moves go through `scheme`, restarts of declared-dead nodes through
  /// `recovery`; neither may be null. The master builds and owns
  /// the replica manager whose standbys it ticks, promotes, and drops.
  /// Nothing is scheduled before Start.
  Master(Cluster* cluster, partition::MigrationManagerBase* scheme,
         fault::RecoveryManager* recovery,
         MasterPolicy policy = MasterPolicy());
  ~Master();

  /// Start the periodic control loop.
  void Start();
  void Stop() { running_ = false; }

  /// Explicitly trigger a rebalance onto `extra_nodes` standby nodes,
  /// moving `fraction` of the data (the Fig. 6 experiment: 2 -> 4 nodes,
  /// 50% of records). Boots the targets first if needed.
  Status TriggerRebalance(const std::vector<NodeId>& targets, double fraction,
                          std::function<void()> done = nullptr);

  /// Fig. 8: power up `helpers` and use them for log shipping and remote
  /// (rDMA) buffer space on behalf of `assisted` nodes.
  Status AttachHelpers(const std::vector<NodeId>& helpers,
                       const std::vector<NodeId>& assisted,
                       size_t remote_buffer_pages);
  /// Detach and power the helpers back down.
  Status DetachHelpers();

  Monitor& monitor() { return monitor_; }
  const MasterPolicy& policy() const { return policy_; }
  /// The warm-standby subsystem the control tick drives.
  replica::ReplicaManager& replicas() { return *replicas_; }

  // --- Control-event timeline ---------------------------------------------
  /// Append one decision to the timeline. The master's own loop and the
  /// ReplicaManager it drives both record here, so every decision lands on
  /// the one shared timeline.
  void Emit(ControlEventType type, NodeId node, std::string detail);
  /// Timeline of control decisions, in simulated-time order.
  const std::vector<ControlEvent>& control_events() const {
    return control_events_;
  }
  /// Called synchronously for every event as it is emitted.
  void set_control_event_listener(std::function<void(const ControlEvent&)> f) {
    event_listener_ = std::move(f);
  }
  /// Events of `type` emitted so far: the one count of every decision.
  int event_count(ControlEventType type) const {
    return event_counts_[static_cast<size_t>(type)];
  }

  /// Overload pressure is currently sustained: queue depths have sat past
  /// overload_ratio × max_queue_ops for admission::kOverloadTriggerAfter
  /// ticks. Feeds MaybeScaleOut and relaxes the heat-balance trigger.
  bool OverloadPressure() const {
    return policy_.admission.enabled &&
           overload_streak_ >= admission::kOverloadTriggerAfter;
  }

  // --- Heat-balancing observers -------------------------------------------
  // The benchmark report (bench/wattbench) reads these three by name.
  /// Rebalance rounds the heat balancer started.
  int heat_rebalances() const {
    return event_count(ControlEventType::kHeatImbalance);
  }
  /// Segment moves the heat balancer planned.
  int heat_moves_planned() const {
    return event_count(ControlEventType::kHeatMovePlanned);
  }
  /// Planned moves seen installed. No event marks a single install, so
  /// this one is counted by hand.
  int heat_moves_completed() const { return heat_moves_completed_; }

 private:
  void ControlTick();
  void MaybeScaleOut(const std::vector<NodeStats>& stats);
  void MaybeScaleIn(const std::vector<NodeStats>& stats);
  /// Count nodes whose admission-queue depth sits past the overload line
  /// and keep the sustained-overload streak; emits kOverloadDetected /
  /// kOverloadCleared at the streak edges.
  void CheckOverload();

  // Heat balancing internals.
  /// When the imbalance trigger on the (already advanced) heat EWMA has
  /// held for `trigger_after` ticks, plan and start a round of moves.
  void MaybeBalanceHeat();
  /// Greedy plan: hottest segments of `hot` onto the coldest eligible
  /// nodes until the projected hot-node heat reaches the mean or the move
  /// budget runs out. Respects per-segment cooldowns.
  std::vector<SegmentMove> PlanHeatMoves(
      NodeId hot, double mean,
      const std::unordered_map<NodeId, double>& node_heat);
  /// Completion bookkeeping for one round: verify which planned moves
  /// installed, stamp cooldowns, emit the completion/abandonment events.
  void FinishHeatRound(const std::vector<SegmentMove>& plan);
  /// Intra-node tier of heat balancing: when the hot node's lanes are
  /// themselves skewed, remap hot segments onto its coldest lane (cheap,
  /// in-memory, no network) and report true — the cross-node tier is then
  /// skipped this round. False when lanes are off/even: the imbalance is
  /// genuine node-level pressure and escalates to a migration.
  bool MaybeRelaneHot(NodeId hot);

  // Self-healing internals.
  void CheckHeartbeats(const std::vector<NodeStats>& stats);
  void DeclareDead(NodeId node);
  /// Issue the restart of a declared-dead node, retrying while the node is
  /// busy booting elsewhere; `drain_after` runs drain-and-exclude once
  /// recovered (the flaky-node path).
  void IssueRestart(NodeId node, bool drain_after, int attempt);
  void StartDrainAndExclude(NodeId node, int attempt);
  void HandleHelperFailure(NodeId helper);

  /// Take `node` out of service (scale-in, flaky-node exclusion): drop the
  /// standbys hosted on it, drain it, drop them again and power it off;
  /// `off` gets PowerOff's status. Returns Drain's.
  Status DrainAndPowerOff(NodeId node, std::function<void(const Status&)> off);
  /// Boot barrier: run `ready` once every node of `nodes` is up.
  /// An active node counts as up at once, a crashed one comes back through
  /// recovery, any other powers on. With nothing to boot, `ready` runs now
  /// and its status is returned; after a boot a failure can only be logged.
  Status WhenUp(const std::vector<NodeId>& nodes,
                std::function<Status()> ready);

  Cluster* cluster_;
  partition::MigrationManagerBase* scheme_;
  fault::RecoveryManager* recovery_;
  MasterPolicy policy_;
  Monitor monitor_;
  std::unique_ptr<replica::ReplicaManager> replicas_;
  bool running_ = false;
  int over_count_ = 0;
  int under_count_ = 0;

  /// One attached helper and the assisted nodes shipping their log to it.
  struct HelperAssignment {
    NodeId helper;
    std::vector<NodeId> assisted;
  };
  /// Attached helpers in attach order, a replacement last. Those wired to
  /// an assisted node carry the lifecycle record's helper flag.
  std::vector<HelperAssignment> helpers_;
  size_t remote_buffer_pages_ = 0;
  /// The attached helper `helper`, or helpers_.end().
  std::vector<HelperAssignment>::iterator FindHelper(NodeId helper);
  /// Ship `h`'s assisted nodes' log to its helper and give them its memory
  /// as a remote buffer tier.
  void WireHelper(const HelperAssignment& h);

  std::function<void(const ControlEvent&)> event_listener_;
  std::vector<ControlEvent> control_events_;
  std::array<int, kControlEventTypeCount> event_counts_{};

  // Overload-detection state.
  int overload_streak_ = 0;        ///< Consecutive ticks with a node overloaded.
  bool overload_announced_ = false;///< kOverloadDetected emitted this episode.
  NodeId last_overload_node_;      ///< Deepest queue in the latest check.

  // Heat balancing state.
  int heat_over_count_ = 0;        ///< Consecutive imbalanced ticks.
  SimTime next_balance_at_ = 0;    ///< Cooldown gate for the next round.
  /// Segments that moved successfully may not move again before this time.
  std::unordered_map<SegmentId, SimTime> segment_cooldown_until_;
  int heat_moves_completed_ = 0;

  // Intra-node (lane) balancing state.
  /// Re-laned segments may not re-lane again before this time (ping-pong
  /// guard, mirroring segment_cooldown_until_ one tier up).
  std::unordered_map<SegmentId, SimTime> relane_cooldown_until_;
};

}  // namespace wattdb::cluster

#endif  // WATTDB_CLUSTER_MASTER_H_
