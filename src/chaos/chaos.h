#ifndef WATTDB_CHAOS_CHAOS_H_
#define WATTDB_CHAOS_CHAOS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/history.h"
#include "common/types.h"

namespace wattdb {
class Db;
}  // namespace wattdb

namespace wattdb::chaos {

/// One randomized crash/partition scenario, fully determined by `seed`:
/// topology, master policy knobs, the fault schedule, and every workload
/// decision are drawn from one Rng(seed), and the engine underneath runs on
/// a deterministic event loop — so RunScenario(cfg) is a pure function of
/// cfg and a failing seed replays bit-identically with --seed=X.
struct ChaosConfig {
  uint64_t seed = 1;

  /// Catalog epoch fencing on the route serve path. Turning it off is the
  /// deliberately injected bug of the acceptance test: a partitioned owner
  /// keeps serving routes a promotion sealed, and the invariant checker
  /// catches the lost writes.
  bool epoch_fencing = true;

  /// Elasticity arm: provision spare standby nodes and race seeded
  /// scale-out, drain-and-exclude, and scale-in decisions against the
  /// fault schedule — including a drain victim crashing mid-drain, a drain
  /// *destination* crashing mid-move, and a recruited standby crashing
  /// during bootstrap. All elasticity decisions come from a rng *forked*
  /// off the seed, so turning this on leaves the base scenario every
  /// existing seed draws bit-identical.
  bool elasticity = false;

  /// Record a per-operation concurrent history through a dedicated
  /// single-op KV workload riding alongside the chaos mix, then run the
  /// per-key linearizability checker after the settle phase. Off by
  /// default: recording and checking cost time the plain soak does not pay.
  bool record_history = false;
};

/// What the committed history *should* look like, maintained by the
/// scenario's workload loop: `committed` maps each live key to the seq of
/// its latest committed write (payloads encode (key, seq), so the final
/// scan can verify values, not just presence). `aborted` holds (key, seq)
/// pairs that definitely rolled back and must never surface. `fuzzy` holds
/// keys whose last Commit() returned an error — the outcome is genuinely
/// indeterminate (the fault may have hit after the commit point), so those
/// keys are exempt from presence/value checks but still covered by the
/// exactly-once and no-resurrection checks.
struct GroundTruth {
  std::map<Key, uint64_t> committed;
  std::set<std::pair<Key, uint64_t>> aborted;
  std::set<Key> fuzzy;

  uint64_t committed_txns = 0;
  uint64_t aborted_txns = 0;
  uint64_t indeterminate_txns = 0;
  /// Operations the data path refused mid-scenario (Unavailable routes
  /// during failover windows, admission sheds) — expected under chaos.
  uint64_t refused_ops = 0;
};

/// Outcome of one scenario: pass/fail, the invariant violations, and the
/// merged event timeline (planned faults + the master's control events) a
/// failing seed is debugged from.
struct ScenarioResult {
  uint64_t seed = 0;
  bool passed = false;
  std::vector<std::string> violations;
  std::vector<std::string> timeline;

  /// The fully drawn fault schedule and elasticity plan, verbatim — the
  /// subset of `timeline` a replay must reproduce bit-identically. Kept
  /// separate so `chaos_soak --seed` can print what was *armed* up front
  /// instead of leaving the reader to fish plan lines out of the merged
  /// event log.
  std::vector<std::string> fault_schedule;

  int nodes = 0;
  /// Spare standby nodes provisioned by the elasticity arm (0 = arm off).
  int spare_nodes = 0;
  /// Scenario-driven elasticity actions scheduled (scale-outs + drains).
  int elastic_actions = 0;
  int crashes_injected = 0;
  int partitions_injected = 0;
  int restarts_injected = 0;
  int nodes_declared_dead = 0;
  int replicas_promoted = 0;
  uint64_t stale_route_refusals = 0;
  uint64_t committed_txns = 0;
  uint64_t aborted_txns = 0;
  uint64_t indeterminate_txns = 0;
  SimTime sim_end = 0;

  // History mode (ChaosConfig::record_history). History violations also
  // land in `violations` (prefixed "history: ") so they fail the scenario;
  // the structured copies here carry the minimal failing sub-histories.
  int64_t history_ops = 0;
  int history_keys_checked = 0;
  int history_keys_over_budget = 0;
  std::vector<HistoryViolation> history_violations;
};

/// Build a cluster, arm a seeded fault schedule (simultaneous crashes,
/// crash loops, crash-at-migration/replica-progress, master<->node
/// partitions), run a seeded KV workload against it while tracking ground
/// truth, then disarm, heal, wait for re-convergence, and run every
/// invariant check. Deterministic in `config`.
ScenarioResult RunScenario(const ChaosConfig& config);

/// The post-scenario invariant audit, also usable against any quiesced Db:
/// catalog route audit (disjoint, covering, live owners, no stuck moves or
/// orphaned fences), replica audit (no stuck standbys), overload cleared,
/// and the ground-truth data audit (every committed write survives and is
/// read exactly once, no aborted write resurrects). Returns human-readable
/// violations; empty means the scenario holds.
std::vector<std::string> CheckInvariants(Db& db, TableId table, Key max_key,
                                         const GroundTruth& truth);

/// Workload payload wire format: 8-byte LE key + 8-byte LE seq, so the
/// final audit can verify a record's *value*, not just its presence.
std::vector<uint8_t> EncodePayload(Key key, uint64_t seq);
bool DecodePayload(const std::vector<uint8_t>& payload, Key* key,
                   uint64_t* seq);

/// `result` as a single JSON object (one line), for the soak report.
std::string ToJson(const ScenarioResult& result);

/// Minimal JSON string escaping for the report writers.
std::string JsonEscape(const std::string& s);

/// "12.345s" — sim-time formatting used by timeline entries.
std::string FormatSimTime(SimTime t);

}  // namespace wattdb::chaos

#endif  // WATTDB_CHAOS_CHAOS_H_
