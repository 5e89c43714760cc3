#ifndef WATTDB_CLUSTER_CLUSTER_H_
#define WATTDB_CLUSTER_CLUSTER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "admission/admission.h"
#include "catalog/global_partition_table.h"
#include "cluster/node.h"
#include "common/rng.h"
#include "common/status.h"
#include "hw/network.h"
#include "hw/power.h"
#include "index/record_index.h"
#include "lanes/lane_manager.h"
#include "metrics/time_series.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "storage/segment_manager.h"
#include "tx/transaction_manager.h"

namespace wattdb::cluster {

/// How much resource-timeline history a sample tick keeps: busy intervals
/// older than `now - kResourceHistoryKeep` are pruned, so no monitoring
/// window (MasterPolicy::stats_window) may reach further back.
constexpr SimTime kResourceHistoryKeep = 30 * kUsPerSec;

/// Everything the cluster knows about one node's lifecycle besides its power
/// state, which stays on NodeHardware (the energy meter reads it there).
/// One record per node, mutated only through Cluster's named transitions.
struct NodeState {
  // Ground truth, kept by the fault subsystem.
  /// Between a crash and the end of its redo: the node may look active
  /// again (booted) while its WAL tail is still being replayed.
  bool crashed = false;
  SimTime crashed_at = 0;  ///< Time of the latest crash.
  int crashes = 0;         ///< Crashes so far.
  /// Control link to the master cut: heartbeats dropped, data path alive.
  bool partitioned = false;

  // The master's view, kept by its heartbeat detector.
  /// Seen active and not deliberately taken down: expected to report.
  bool watched = false;
  /// Consecutive missed windows; > 0 means suspected.
  int missed = 0;
  /// Declared dead with a restart in flight; no re-declaration meanwhile.
  bool healing = false;
  int declared_dead = 0;   ///< Detections so far (the flaky counter).
  /// Drained, powered off and barred from any future duty.
  bool excluded = false;
  /// Wired as a log-shipping helper for some assisted nodes (Fig. 8).
  bool helper = false;
};

/// What the master (and the schemes it drives) may ask a node to do. Each
/// role is one predicate in Cluster::EligibleFor. The roles deliberately
/// disagree about some states:
///  - kReplicaHost accepts suspected, healing and partitioned nodes;
///  - kDrainSurvivor accepts helpers, excluded, suspected and healing nodes,
///    and nodes still in redo after a crash;
///  - kScaleInVictim accepts suspected and healing nodes, and only it and
///    kDrainSurvivor refuse partitioned nodes;
///  - only kHeatTarget requires the node to be watched;
///  - kHelper looks at no power state (AttachHelpers boots the node).
enum class Role {
  /// A standby to boot for scale-out or as a replacement helper: standby,
  /// not excluded, not suspected, healing or crashed.
  kRecruit,
  /// Receiver of a hot segment: active, watched, not a helper, not
  /// suspected, healing or crashed.
  kHeatTarget,
  /// Node to drain and power off on scale-in: active, not partitioned, not
  /// the master, not a helper, not crashed (still in redo).
  kScaleInVictim,
  /// Log-shipping helper (AttachHelpers): not excluded, not suspected,
  /// healing or crashed.
  kHelper,
  /// Host of a warm standby: active, not the master, not excluded, not a
  /// helper, not crashed.
  kReplicaHost,
  /// Receiver of a drained node's data: active and not partitioned.
  kDrainSurvivor,
};

/// Everything needed to stand up a simulated WattDB cluster.
struct ClusterConfig {
  int num_nodes = 4;                 ///< Total nodes incl. master (paper: 10).
  int initially_active = 1;          ///< Nodes powered on at t=0.
  hw::NodeHardwareSpec node_hw;
  storage::BufferSpec buffer;
  hw::NetworkSpec network;
  hw::PowerModelSpec power;
  NodeCostConfig costs;
  tx::CcScheme cc = tx::CcScheme::kMvcc;
  /// Intra-node parallel data plane: per-core shared-nothing worker lanes.
  lanes::LanePolicy lanes;
  /// Structure backing every segment-local primary-key index.
  index::IndexKind index_kind = index::IndexKind::kBTree;
  uint64_t seed = 42;
};

/// The simulated shared-nothing cluster: nodes (node 0 is the master and
/// always active, §3.2), the interconnect, the global catalog, a single
/// transaction domain, and the power/energy bookkeeping of §3.1.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Accessors ---------------------------------------------------------
  sim::Clock& clock() { return clock_; }
  sim::EventQueue& events() { return events_; }
  hw::Network& network() { return network_; }
  const hw::PowerModel& power_model() const { return power_model_; }
  storage::SegmentManager& segments() { return segments_; }
  catalog::GlobalPartitionTable& catalog() { return catalog_; }
  tx::TransactionManager& tm() { return tm_; }
  /// Per-node admission queues. Always tracking (depth gauges work in
  /// every scenario); refuses work only when the policy installed at
  /// Db::Open enables shedding.
  admission::AdmissionController& admission() { return admission_; }
  const admission::AdmissionController& admission() const {
    return admission_;
  }
  /// Per-node worker lanes (no-op shell when the lane policy is off).
  lanes::LaneManager& lanes() { return lanes_; }
  const lanes::LaneManager& lanes() const { return lanes_; }
  Rng& rng() { return rng_; }
  const ClusterConfig& config() const { return config_; }

  /// The node with `id`, or nullptr when `id` is invalid or out of range.
  Node* node(NodeId id) {
    if (!id.valid() || id.value() >= nodes_.size()) return nullptr;
    return nodes_[id.value()].get();
  }
  Node* master() { return nodes_[0].get(); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  std::vector<Node*> ActiveNodes();
  int ActiveNodeCount() const;
  hw::Disk* FindDisk(DiskId id) {
    auto it = disk_index_.find(id);
    return it == disk_index_.end() ? nullptr : it->second;
  }

  // --- Power management --------------------------------------------------
  /// Begin booting a standby node; `on_ready` fires when it is active.
  Status PowerOn(NodeId id, std::function<void()> on_ready = nullptr);
  /// Immediately power a node down to standby. Fails if any segment's bytes
  /// still live on it ("nodes still having data on disk must not shut
  /// down", §4).
  Status PowerOff(NodeId id);

  /// Cluster draw (all nodes + switch) over [from, to).
  double WattsIn(SimTime from, SimTime to) const;

  // --- Network partitions ------------------------------------------------
  /// Cut the master<->node control link: the node's heartbeats stop
  /// reaching the failure detector, but the node stays active and its data
  /// path keeps serving (distinct from a crash — nothing is wiped, nothing
  /// stops committing). The master will declare it dead and promote its
  /// replicated ranges; epoch fencing is what keeps the still-alive owner
  /// from serving a range whose ownership moved on.
  Status PartitionNode(NodeId id);
  /// Restore the control link and reconcile: ranges promoted away while
  /// the node was deposed leave it holding stale copies — those are
  /// dropped (the catalog's view won; the node must not reclaim), while
  /// ranges fenced but never flipped (the standby died first) are
  /// restamped to the still-authoritative owner.
  Status HealPartition(NodeId id);

  // --- Node lifecycle ----------------------------------------------------
  /// The lifecycle record of `id`, which must name a node.
  const NodeState& node_state(NodeId id) const {
    return node_states_.at(id.value());
  }
  /// May `id` take `role` now? False for an id that names no node.
  bool EligibleFor(NodeId id, Role role) const;

  // Transitions of the fault subsystem (ground truth).
  /// `id` crashed now.
  void MarkCrashed(NodeId id);
  /// `id` finished its post-crash redo.
  void MarkRecovered(NodeId id);

  // Transitions of the master's heartbeat detector.
  /// `id` reported this window: watched (unless excluded), not suspected,
  /// not healing.
  void NoteReported(NodeId id);
  /// `id` missed this window; returns its consecutive missed windows.
  int NoteMissedWindow(NodeId id);
  /// `id` was declared dead; returns how often that happened so far.
  int NoteDeclaredDead(NodeId id);
  /// A restart of declared-dead `id` is in flight.
  void BeginHealing(NodeId id) { node_states_.at(id.value()).healing = true; }
  /// The restart of `id` completed its redo.
  void FinishHealing(NodeId id);
  /// The master gave up restarting `id`.
  void AbandonHealing(NodeId id) {
    node_states_.at(id.value()).healing = false;
  }
  /// The master took `id` down itself: no heartbeats are expected.
  void StopWatching(NodeId id);
  /// `id` was drained and powered off for good.
  void Exclude(NodeId id);
  /// `id` started or stopped serving as a log-shipping helper.
  void SetHelper(NodeId id, bool helper) {
    node_states_.at(id.value()).helper = helper;
  }

  /// Epoch fencing on the route serve path (on by default): an entry whose
  /// primary's claim token lags the entry's epoch was sealed by a
  /// promotion in flight — routing refuses to hand it out, so a deposed
  /// owner (dead or merely partitioned from the master) cannot take
  /// writes that the flip would silently drop. The chaos harness turns
  /// this off to demonstrate the invariant checker catching the bug.
  void set_epoch_fencing(bool on) { epoch_fencing_ = on; }
  bool epoch_fencing() const { return epoch_fencing_; }
  /// Serve-path refusals of fenced routes (observability for chaos/tests).
  uint64_t stale_route_refusals() const { return stale_route_refusals_; }

  /// Why Route/RouteBoth returned no partition for (table, key):
  /// Unavailable when the covering entry is fenced (ownership handoff in
  /// flight — retry later), NotFound when the key is simply unrouted.
  Status NoRouteStatus(TableId table, Key key) const;

  // --- Metrics -----------------------------------------------------------
  /// Start periodic sampling into `series` (may be null to sample only the
  /// energy meter). Sampling also prunes resource bookkeeping.
  void StartSampling(metrics::TimeSeries* series);
  void StopSampling() { sampling_ = false; }
  hw::EnergyMeter& energy() { return energy_; }

  /// Periodic version-store GC during sampling (on by default). The Fig. 3
  /// bench disables it for MVCC runs to model always-present old snapshots
  /// pinning the reclamation horizon.
  void set_auto_vacuum(bool on) { auto_vacuum_ = on; }

  /// Run the simulation until absolute time `until`.
  void RunUntil(SimTime until) { events_.RunUntil(until); }
  SimTime Now() const { return clock_.Now(); }

  // --- Transactions ------------------------------------------------------
  /// Begin a user transaction at the current simulated time.
  tx::Txn* BeginTxn(bool read_only = false) {
    return tm_.Begin(clock_.Now(), read_only);
  }

  /// Commit helper: commit record on `coordinator`, settle locks, collect
  /// the transaction's final latency. Returns the total latency.
  SimTime CommitTxn(Node* coordinator, tx::Txn* txn);

  /// Abort helper: roll pages back and release the txn.
  void AbortTxn(tx::Txn* txn);

  // --- Routing -----------------------------------------------------------
  /// Partition currently responsible for (table, key), following the
  /// two-pointer redirection protocol (§4.3): if the primary no longer
  /// covers the key but a secondary is registered, the secondary is used.
  /// Charges the redirect probe to `txn` when it happens.
  catalog::Partition* Route(tx::Txn* txn, TableId table, Key key);

  /// Both candidate locations for (table, key) under the two-pointer
  /// protocol: `second` is non-null only while a move is in flight. Callers
  /// that miss on the first location must retry on the second ("queries are
  /// advised to visit both", §4.3) — during a logical move an individual
  /// record may already have been deleted at the source and re-inserted at
  /// the target.
  std::pair<catalog::Partition*, catalog::Partition*> RouteBoth(
      tx::Txn* txn, TableId table, Key key);

  /// RouteBoth for *reads*: when the key has serving warm replicas and no
  /// move is in flight, the read is spread round-robin over the owner and
  /// the replicas (read scale-out under the replica policy's staleness
  /// bound). The second element is the authoritative fallback — a miss on
  /// a replica retries at the owner, so a bounded-stale copy can delay a
  /// read but never wrongly deny a key's existence. With a down owner the
  /// replicas keep serving until promotion flips the route. Writes must
  /// keep using RouteBoth/Route: they go to the owner only.
  std::pair<catalog::Partition*, catalog::Partition*> RouteForRead(
      tx::Txn* txn, TableId table, Key key);

  /// Ship an operation's request/response between the master (client
  /// endpoint) and the owner node, charging `txn`. No-op if owner is the
  /// master itself.
  void ChargeClientHop(tx::Txn* txn, NodeId owner, size_t req_bytes,
                       size_t resp_bytes);

 private:
  void SampleTick();

  /// Shared resolution core of Route/RouteBoth: pick the serving partition
  /// for `key` out of one already-fetched routing entry (primary, or the
  /// secondary / forwarding target mid-move), charging redirect probes to
  /// `txn`. Both public entry points pay exactly one catalog lookup.
  catalog::Partition* ResolveRoute(tx::Txn* txn,
                                   const catalog::RouteEntry& entry, Key key);

  /// True when `entry`'s primary carries a claim token older than the
  /// entry's epoch — the range was sealed by FenceRange and must not be
  /// served through the primary. Always false with fencing disabled.
  bool EntryFenced(const catalog::RouteEntry& entry) const;

  ClusterConfig config_;
  sim::Clock clock_;
  sim::EventQueue events_;
  hw::Network network_;
  hw::PowerModel power_model_;
  storage::SegmentManager segments_;
  catalog::GlobalPartitionTable catalog_;
  tx::TransactionManager tm_;
  admission::AdmissionController admission_;
  lanes::LaneManager lanes_;
  Rng rng_;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<DiskId, hw::Disk*> disk_index_;

  /// Indexed by NodeId, one per node.
  std::vector<NodeState> node_states_;
  bool epoch_fencing_ = true;
  uint64_t stale_route_refusals_ = 0;

  bool sampling_ = false;
  bool auto_vacuum_ = true;
  /// Round-robin ticket spreading fanned-out reads over owner + replicas.
  uint64_t read_ticket_ = 0;
  SimTime last_sample_ = 0;
  metrics::TimeSeries* series_ = nullptr;
  hw::EnergyMeter energy_;
};

}  // namespace wattdb::cluster

#endif  // WATTDB_CLUSTER_CLUSTER_H_
