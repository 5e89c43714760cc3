// The chaos scenario runner: one seed -> one randomized topology, master
// policy, fault schedule, and KV workload, all drawn from a single Rng so
// the whole scenario replays deterministically. The shapes it throws at
// the cluster are the ones the self-healing stack claims to survive:
// simultaneous crashes, crash loops bouncing against exclude_after_crashes,
// crashes at migration/replica-catch-up progress (a survivor dying
// mid-drain while a heat move is in flight falls out of the combinations),
// and master<->node partitions where the deposed owner keeps committing
// until epoch fencing cuts it off.

#include <algorithm>
#include <string>
#include <vector>

#include "api/db.h"
#include "chaos/chaos.h"
#include "chaos/history.h"
#include "common/logging.h"
#include "common/rng.h"
#include "workload/kv.h"

namespace wattdb::chaos {

std::vector<uint8_t> EncodePayload(Key key, uint64_t seq) {
  std::vector<uint8_t> p(16);
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>((key >> (8 * i)) & 0xff);
    p[8 + i] = static_cast<uint8_t>((seq >> (8 * i)) & 0xff);
  }
  return p;
}

bool DecodePayload(const std::vector<uint8_t>& payload, Key* key,
                   uint64_t* seq) {
  if (payload.size() != 16) return false;
  *key = 0;
  *seq = 0;
  for (int i = 0; i < 8; ++i) {
    *key |= static_cast<Key>(payload[i]) << (8 * i);
    *seq |= static_cast<uint64_t>(payload[8 + i]) << (8 * i);
  }
  return true;
}

namespace {

/// Topology bounds the seed picks within (num_nodes includes the master).
constexpr int kMinNodes = 4;
constexpr int kMaxNodes = 6;

/// Simulated time the randomized workload + fault schedule runs for.
constexpr SimTime kWorkloadDuration = 20 * kUsPerSec;
/// After Disarm + heal, how long the scenario waits for the cluster to
/// re-converge (all ranges owned by live nodes, no in-flight moves or
/// fences, overload cleared) before declaring it stuck.
constexpr SimTime kSettleTimeout = 90 * kUsPerSec;

/// Key space of the scenario's KV table.
constexpr Key kMaxKey = 2048;

/// Key space of the history workload — deliberately small so keys see
/// enough concurrent ops for the checker to have real interleavings.
constexpr int64_t kHistoryKeys = 64;
/// Closed-loop single-op clients of the history workload.
constexpr int kHistoryClients = 8;

/// One workload transaction: 1-4 randomized ops (Zipf-skewed keys so some
/// segments run hot enough to earn replicas and heat moves), then commit,
/// deliberate abort, or — when the data path refused an op mid-txn — a
/// forced abort. Ground truth is updated only from *definite* outcomes; a
/// failed Commit() leaves its keys fuzzy (the fault may have landed after
/// the commit point, so asserting either outcome would be wrong).
void RunOneTxn(Session* session, TableId table, Rng* rng, uint64_t* next_seq,
               GroundTruth* truth) {
  struct StagedOp {
    bool is_delete;
    Key key;
    uint64_t seq;  // 0 for deletes
  };
  TxnHandle txn = session->Begin();
  std::vector<StagedOp> staged;
  bool doomed = false;
  const int ops = static_cast<int>(rng->UniformInt(1, 4));
  for (int i = 0; i < ops && !doomed; ++i) {
    const Key key =
        rng->UniformDouble() < 0.5
            ? static_cast<Key>(rng->Zipf(kMaxKey, 0.8))
            : static_cast<Key>(
                  rng->UniformInt(0, static_cast<int64_t>(kMaxKey) - 1));
    const double roll = rng->UniformDouble();
    if (roll < 0.55) {
      const uint64_t seq = (*next_seq)++;
      const Status put = txn.Put(table, key, EncodePayload(key, seq));
      if (put.ok()) {
        staged.push_back({false, key, seq});
      } else {
        ++truth->refused_ops;
        doomed = true;
      }
    } else if (roll < 0.65) {
      const Status del = txn.Delete(table, key);
      if (del.ok()) {
        staged.push_back({true, key, 0});
      } else if (!del.IsNotFound()) {
        ++truth->refused_ops;
        doomed = true;
      }
    } else if (roll < 0.90) {
      (void)txn.Get(table, key);
    } else {
      const KeyRange r{key, std::min<Key>(key + 64, kMaxKey)};
      (void)txn.Scan(table, r, [](const storage::Record&) { return true; });
    }
  }
  if (doomed || rng->UniformDouble() < 0.08) {
    txn.Abort();
    for (const StagedOp& op : staged) {
      if (!op.is_delete) truth->aborted.insert({op.key, op.seq});
    }
    ++truth->aborted_txns;
    return;
  }
  const Status committed = txn.Commit();
  if (committed.ok()) {
    for (const StagedOp& op : staged) {
      if (op.is_delete) {
        truth->committed.erase(op.key);
      } else {
        truth->committed[op.key] = op.seq;
      }
      // A definite outcome supersedes any earlier indeterminate one.
      truth->fuzzy.erase(op.key);
    }
    ++truth->committed_txns;
  } else {
    for (const StagedOp& op : staged) truth->fuzzy.insert(op.key);
    ++truth->indeterminate_txns;
  }
}

/// Occasional batched upsert exercising the owner-grouped MultiPut path. A
/// committed batch applies exactly the per-key OK statuses; a refused key
/// inside a committed batch definitely did not apply, so its seq joins the
/// aborted set (it must never surface).
void RunMultiPut(Session* session, TableId table, Rng* rng, uint64_t* next_seq,
                 GroundTruth* truth) {
  const int n = static_cast<int>(rng->UniformInt(2, 8));
  std::vector<cluster::KeyValue> kvs;
  std::vector<uint64_t> seqs;
  kvs.reserve(n);
  for (int i = 0; i < n; ++i) {
    const Key key =
        static_cast<Key>(rng->UniformInt(0, static_cast<int64_t>(kMaxKey) - 1));
    const uint64_t seq = (*next_seq)++;
    kvs.push_back({key, EncodePayload(key, seq)});
    seqs.push_back(seq);
  }
  auto batch = session->MultiPut(table, kvs);
  if (!batch.ok()) {
    for (const auto& kv : kvs) truth->fuzzy.insert(kv.key);
    ++truth->indeterminate_txns;
    return;
  }
  for (int i = 0; i < n; ++i) {
    if (batch.value().statuses[i].ok()) {
      truth->committed[kvs[i].key] = seqs[i];
      truth->fuzzy.erase(kvs[i].key);
    } else {
      truth->aborted.insert({kvs[i].key, seqs[i]});
      ++truth->refused_ops;
    }
  }
  ++truth->committed_txns;
}

/// Empty string when the cluster has re-converged; otherwise the first
/// condition still violated (reported when the settle timeout expires).
std::string ConvergenceBlocker(Db& db, TableId table) {
  const int n = db.cluster().num_nodes();
  for (int i = 1; i < n; ++i) {
    const NodeId id(static_cast<uint32_t>(i));
    const cluster::NodeState& state = db.cluster().node_state(id);
    if (state.excluded) continue;
    if (state.crashed) {
      return "node " + std::to_string(i) + " still down";
    }
    if (state.partitioned) {
      return "node " + std::to_string(i) + " still partitioned";
    }
  }
  if (db.scheme().InProgress()) return "rebalance still in progress";
  for (const auto& entry : db.cluster().catalog().AllRoutes(table)) {
    if (entry.secondary.valid()) {
      return "move still in flight over [" + std::to_string(entry.range.lo) +
             ", " + std::to_string(entry.range.hi) + ")";
    }
    const catalog::Partition* p =
        db.cluster().catalog().GetPartition(entry.primary);
    if (p == nullptr) return "route names a dropped partition";
    if (p->route_epoch() < entry.epoch) {
      return "orphaned fence over [" + std::to_string(entry.range.lo) + ", " +
             std::to_string(entry.range.hi) + ")";
    }
    if (p->state() != catalog::PartitionState::kNormal) {
      // kForwarding is a legitimate post-move grace window; wait it out.
      return "partition " + std::to_string(p->id().value()) +
             " still in a move state";
    }
    cluster::Node* owner = db.cluster().node(p->owner());
    if (owner == nullptr || !owner->IsActive()) {
      return "range owned by inactive node " +
             std::to_string(p->owner().value());
    }
  }
  for (const auto& rep : db.replicas().replicas()) {
    cluster::Node* host = db.cluster().node(rep->host);
    if (host == nullptr || !host->IsActive()) {
      return "replica hosted on inactive node " +
             std::to_string(rep->host.value());
    }
    // Replica maintenance keeps running during settle and may start a
    // bootstrap right before a convergence check; give it sim time to
    // finish instead of letting the audit flag a healthy stream as stuck.
    if (rep->state == replica::ReplicaState::kBootstrapping) {
      return "replica of [" + std::to_string(rep->range.lo) + ", " +
             std::to_string(rep->range.hi) + ") still bootstrapping";
    }
  }
  if (db.master().OverloadPressure()) return "overload pressure not cleared";
  return "";
}

/// One scenario-scheduled elasticity action, drawn up front from the
/// forked elasticity rng so the whole plan prints before the run starts.
struct ElasticAction {
  SimTime at = 0;
  bool scale_out = false;  // else: drain the target's data to survivors
  NodeId target = NodeId::Invalid();
  /// 0 = none; 1 = crash the action's own target mid-action (recruited
  /// standby dies during bootstrap / drain victim dies mid-drain); 2 =
  /// crash a *survivor* mid-action (a drain destination or move peer dies
  /// while tasks are in flight); 3 = partition the target mid-action and
  /// heal shortly after, racing the heal against any promotion flip the
  /// partition provoked.
  int rider = 0;
  SimTime rider_delay = 0;
  NodeId rider_node = NodeId::Invalid();
};

/// Scenario-driven scale-out: boot `target` and pull a fair share of data
/// onto it, retrying while the single-flight repartitioner runs another
/// plan.
void ElasticScaleOut(Db* db, NodeId target, int retries,
                     ScenarioResult* result) {
  const int actives = db->cluster().ActiveNodeCount();
  const Status s = db->TriggerRebalance({target}, 1.0 / (actives + 1));
  if (s.IsBusy() && retries > 0) {
    db->events().ScheduleAfter(
        500 * kUsPerMs, [db, target, retries, result]() {
          ElasticScaleOut(db, target, retries - 1, result);
        });
    return;
  }
  result->timeline.push_back("t=" + FormatSimTime(db->Now()) +
                             " elastic scale-out onto node " +
                             std::to_string(target.value()) + ": " +
                             s.ToString());
}

/// Scenario-driven drain: move the victim's data to survivors but leave
/// the node online (the master's scale-in path owns power-off, because
/// only it can unwatch the node without tripping a false failure alarm).
/// Standby replicas on the victim are disposable and dropped, not moved.
void ElasticDrain(Db* db, NodeId victim, int retries, ScenarioResult* result) {
  cluster::Node* n = db->cluster().node(victim);
  if (n == nullptr || !n->IsActive()) {
    result->timeline.push_back("t=" + FormatSimTime(db->Now()) +
                               " elastic drain of node " +
                               std::to_string(victim.value()) +
                               " skipped: victim not active");
    return;
  }
  db->replicas().DropReplicasOn(victim);
  const Status s = db->scheme().Drain(victim, [db, victim, result]() {
    result->timeline.push_back("t=" + FormatSimTime(db->Now()) +
                               " elastic drain of node " +
                               std::to_string(victim.value()) + " completed");
  });
  if (s.IsBusy() && retries > 0) {
    db->events().ScheduleAfter(
        500 * kUsPerMs, [db, victim, retries, result]() {
          ElasticDrain(db, victim, retries - 1, result);
        });
    return;
  }
  result->timeline.push_back("t=" + FormatSimTime(db->Now()) +
                             " elastic drain of node " +
                             std::to_string(victim.value()) + ": " +
                             s.ToString());
}

}  // namespace

ScenarioResult RunScenario(const ChaosConfig& config) {
  ScenarioResult result;
  result.seed = config.seed;
  Rng rng(config.seed);
  // Every drawn plan line lands both in the merged timeline and in the
  // standalone fault_schedule — the part of the draw `chaos_soak --seed`
  // must print up front for a replay to be diagnosable.
  auto note_plan = [&result](const std::string& line) {
    result.timeline.push_back("plan: " + line);
    result.fault_schedule.push_back(line);
  };

  // --- Topology + policy, drawn from the seed ----------------------------
  const int num_nodes = static_cast<int>(rng.UniformInt(kMinNodes, kMaxNodes));
  result.nodes = num_nodes;

  cluster::MasterPolicy policy;
  policy.check_period = 500 * kUsPerMs;
  policy.stats_window = 2 * kUsPerSec;
  policy.trigger_after = 1;
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  policy.recovery.auto_heal = true;
  policy.recovery.restart_backoff =
      rng.UniformDouble() < 0.5 ? 0 : 500 * kUsPerMs;
  policy.recovery.exclude_after_crashes =
      rng.UniformDouble() < 0.35 ? static_cast<int>(rng.UniformInt(2, 3)) : 0;
  if (rng.UniformDouble() < 0.8) {
    policy.replica.enabled = true;
    policy.replica.replicas_per_segment = 1;
    policy.replica.heat_threshold = 1.0;
    policy.replica.max_replicated_segments = 4;
    policy.replica.max_lag_records = 64;
    policy.replica.drop_cold_after = 60 * kUsPerSec;
  }
  if (rng.UniformDouble() < 0.5) {
    policy.balance.enabled = true;
    policy.balance.trigger_ratio = 1.2;
    policy.balance.trigger_after = 1;
    policy.balance.min_total_heat = 1.0;
    policy.balance.cooldown = 5 * kUsPerSec;
    policy.balance.max_moves_per_round = 2;
  }
  note_plan("nodes=" + std::to_string(num_nodes) +
            " replicas=" + std::string(policy.replica.enabled ? "on" : "off") +
            " balance=" + std::string(policy.balance.enabled ? "on" : "off") +
            " exclude_after=" +
            std::to_string(policy.recovery.exclude_after_crashes) +
            " fencing=" + std::string(config.epoch_fencing ? "on" : "off"));

  // --- Fault schedule ----------------------------------------------------
  const SimTime fault_lo = 2 * kUsPerSec;
  const SimTime fault_hi = kWorkloadDuration - 2 * kUsPerSec;
  auto pick_node = [&]() {
    return NodeId(static_cast<uint32_t>(rng.UniformInt(1, num_nodes - 1)));
  };
  auto pick_at = [&]() {
    return static_cast<SimTime>(rng.UniformInt(fault_lo, fault_hi));
  };
  fault::FaultPlan plan;

  // Every scenario carries at least one partition — the tentpole path
  // (heartbeats lost, data path alive, fencing on the eventual handoff).
  {
    const NodeId node = pick_node();
    const SimTime at = pick_at();
    const SimTime heal =
        rng.UniformDouble() < 0.5
            ? static_cast<SimTime>(rng.UniformInt(4, 8)) * kUsPerSec
            : 0;
    plan.PartitionAt(node, at, heal);
    note_plan(
        "partition node " + std::to_string(node.value()) + " at " +
        FormatSimTime(at) +
        (heal > 0 ? " heal_after " + FormatSimTime(heal) : " (no auto-heal)"));
  }
  const int extra_faults = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < extra_faults; ++i) {
    const NodeId node = pick_node();
    switch (rng.UniformInt(0, 6)) {
      case 0: {  // Crash with auto-restart.
        const SimTime at = pick_at();
        const SimTime restart =
            static_cast<SimTime>(rng.UniformInt(2, 6)) * kUsPerSec;
        plan.CrashAt(node, at, restart);
        note_plan("crash node " + std::to_string(node.value()) + " at " +
                  FormatSimTime(at) + " restart_after " +
                  FormatSimTime(restart));
        break;
      }
      case 1: {  // Crash that stays down until the heal phase.
        const SimTime at = pick_at();
        plan.CrashAt(node, at, 0);
        note_plan("crash node " + std::to_string(node.value()) + " at " +
                  FormatSimTime(at) + " (stays down)");
        break;
      }
      case 2: {  // Two nodes at the same instant.
        NodeId other = pick_node();
        if (other == node) {
          other = NodeId(static_cast<uint32_t>(node.value() % (num_nodes - 1) +
                                               1));
        }
        const SimTime at = pick_at();
        const SimTime restart =
            static_cast<SimTime>(rng.UniformInt(3, 5)) * kUsPerSec;
        plan.CrashAt(node, at, restart).CrashAt(other, at, restart);
        note_plan("simultaneous crash of nodes " +
                  std::to_string(node.value()) + " and " +
                  std::to_string(other.value()) + " at " + FormatSimTime(at));
        break;
      }
      case 3: {  // Crash loop (bounces against exclude_after_crashes).
        const SimTime period =
            static_cast<SimTime>(rng.UniformInt(4, 8)) * kUsPerSec;
        const SimTime restart =
            static_cast<SimTime>(rng.UniformInt(1, 2)) * kUsPerSec;
        plan.CrashEvery(node, period, restart);
        note_plan("crash loop on node " + std::to_string(node.value()) +
                  " every " + FormatSimTime(period));
        break;
      }
      case 4: {  // Survivor dies while a heat move is in flight.
        const double frac = 0.2 + 0.6 * rng.UniformDouble();
        plan.CrashAtMigrationProgress(node, frac, 3 * kUsPerSec);
        note_plan("crash node " + std::to_string(node.value()) +
                  " at migration progress " + std::to_string(frac));
        break;
      }
      case 5: {  // Owner dies during replica catch-up.
        const double frac = 0.3 + 0.6 * rng.UniformDouble();
        plan.CrashAtReplicaProgress(node, frac, 3 * kUsPerSec);
        note_plan("crash node " + std::to_string(node.value()) +
                  " at replica progress " + std::to_string(frac));
        break;
      }
      default: {  // A second partition.
        const SimTime at = pick_at();
        const SimTime heal =
            static_cast<SimTime>(rng.UniformInt(3, 7)) * kUsPerSec;
        plan.PartitionAt(node, at, heal);
        note_plan("partition node " + std::to_string(node.value()) + " at " +
                  FormatSimTime(at) + " heal_after " + FormatSimTime(heal));
        break;
      }
    }
  }

  // --- Elasticity plan ---------------------------------------------------
  // Drawn from a rng *forked* off the seed (not the main rng): enabling
  // the arm must leave every existing seed's topology, policy, fault
  // schedule, and workload draws bit-identical.
  Rng erng(config.seed * 0x9E3779B97F4A7C15ULL + 0xE1A5);
  int spare_nodes = 0;
  std::vector<ElasticAction> elastic;
  if (config.elasticity) {
    spare_nodes = static_cast<int>(erng.UniformInt(1, 2));
    // Sometimes let the *master's* elasticity policies race the scripted
    // actions too: scale-out recruits the same spares on overload, and
    // scale-in drains whatever ends up least loaded.
    policy.enable_scale_out = erng.UniformDouble() < 0.35;
    policy.enable_scale_in = erng.UniformDouble() < 0.35;
    note_plan("elastic: spares=" + std::to_string(spare_nodes) +
              " master_scale_out=" +
              std::string(policy.enable_scale_out ? "on" : "off") +
              " master_scale_in=" +
              std::string(policy.enable_scale_in ? "on" : "off"));
    const int n_actions = static_cast<int>(erng.UniformInt(1, 3));
    for (int i = 0; i < n_actions; ++i) {
      ElasticAction a;
      a.at = static_cast<SimTime>(erng.UniformInt(fault_lo, fault_hi));
      a.scale_out = erng.UniformDouble() < 0.5;
      a.target =
          a.scale_out
              ? NodeId(static_cast<uint32_t>(num_nodes + i % spare_nodes))
              : NodeId(static_cast<uint32_t>(erng.UniformInt(1, num_nodes - 1)));
      const double roll = erng.UniformDouble();
      if (roll < 0.30) {
        a.rider = 1;  // Target dies mid-bootstrap / mid-drain.
      } else if (roll < 0.50) {
        a.rider = 2;  // A drain destination / move peer dies mid-move.
      } else if (roll < 0.65) {
        a.rider = 3;  // Partition target, heal racing the promotion flip.
      }
      a.rider_delay =
          static_cast<SimTime>(erng.UniformInt(200, 1500)) * kUsPerMs;
      a.rider_node = a.target;
      if (a.rider == 2) {
        NodeId survivor(
            static_cast<uint32_t>(erng.UniformInt(1, num_nodes - 1)));
        if (survivor == a.target) {
          survivor = NodeId(
              static_cast<uint32_t>(survivor.value() % (num_nodes - 1) + 1));
        }
        a.rider_node = survivor;
      }
      elastic.push_back(a);
      std::string line =
          std::string("elastic: ") +
          (a.scale_out ? "scale-out onto node " : "drain node ") +
          std::to_string(a.target.value()) + " at " + FormatSimTime(a.at);
      switch (a.rider) {
        case 1:
          line += " rider: crash target after " + FormatSimTime(a.rider_delay);
          break;
        case 2:
          line += " rider: crash survivor " +
                  std::to_string(a.rider_node.value()) + " after " +
                  FormatSimTime(a.rider_delay);
          break;
        case 3:
          line += " rider: partition target after " +
                  FormatSimTime(a.rider_delay) + ", heal 1s later";
          break;
        default:
          break;
      }
      note_plan(line);
    }
  }
  result.spare_nodes = spare_nodes;
  result.elastic_actions = static_cast<int>(elastic.size());
  const int total_nodes = num_nodes + spare_nodes;

  // --- Open --------------------------------------------------------------
  auto opened = Db::Open(DbOptions()
                             .WithNodes(total_nodes)
                             .WithActiveNodes(num_nodes)
                             .WithSeed(config.seed)
                             .WithoutTpccLoad()
                             .WithMasterLoop(policy)
                             .WithFaultPlan(plan)
                             .WithSampling(false));
  if (!opened.ok()) {
    result.violations.push_back("Db::Open failed: " +
                                opened.status().ToString());
    return result;
  }
  Db& db = *opened.value();
  db.cluster().set_epoch_fencing(config.epoch_fencing);
  auto created = db.CreateKvTable("chaos", 16, kMaxKey,
                                  /*segments_per_partition=*/2);
  if (!created.ok()) {
    result.violations.push_back("CreateKvTable failed: " +
                                created.status().ToString());
    return result;
  }
  const TableId table = created.value();

  // --- Arm the elasticity actions ----------------------------------------
  for (const ElasticAction& a : elastic) {
    Db* dbp = &db;
    ScenarioResult* res = &result;
    const SimTime at = std::max(a.at, db.Now() + 1);
    db.events().ScheduleAt(at, [dbp, res, a]() {
      if (a.scale_out) {
        ElasticScaleOut(dbp, a.target, /*retries=*/6, res);
      } else {
        ElasticDrain(dbp, a.target, /*retries=*/6, res);
      }
    });
    if (a.rider == 1 || a.rider == 2) {
      db.events().ScheduleAt(at + a.rider_delay, [dbp, res, a]() {
        const Status s = dbp->CrashNode(a.rider_node);
        res->timeline.push_back("t=" + FormatSimTime(dbp->Now()) +
                                " elastic rider: crash node " +
                                std::to_string(a.rider_node.value()) + ": " +
                                s.ToString());
      });
    } else if (a.rider == 3) {
      db.events().ScheduleAt(at + a.rider_delay, [dbp, res, a]() {
        const Status s = dbp->PartitionNode(a.rider_node);
        res->timeline.push_back("t=" + FormatSimTime(dbp->Now()) +
                                " elastic rider: partition node " +
                                std::to_string(a.rider_node.value()) + ": " +
                                s.ToString());
        dbp->events().ScheduleAfter(kUsPerSec, [dbp, res, a]() {
          const Status h = dbp->HealPartition(a.rider_node);
          res->timeline.push_back("t=" + FormatSimTime(dbp->Now()) +
                                  " elastic rider: heal node " +
                                  std::to_string(a.rider_node.value()) + ": " +
                                  h.ToString());
        });
      });
    }
  }

  // --- History workload (record_history) ---------------------------------
  // A dedicated single-op KV table rides alongside the chaos mix; every
  // Get/Put lands in the recorder as one history op, and the checker runs
  // over the result after the settle phase.
  HistoryRecorder recorder;
  workload::KvWorkload* history_kv = nullptr;
  if (config.record_history) {
    workload::KvConfig kcfg;
    kcfg.num_clients = kHistoryClients;
    kcfg.think_time = 10 * kUsPerMs;
    kcfg.read_ratio = 0.6;
    kcfg.batch_size = 1;
    kcfg.batched = false;
    kcfg.num_keys = kHistoryKeys;
    kcfg.value_bytes = 16;  // EncodePayload width.
    kcfg.history_payloads = true;
    kcfg.seed = config.seed * 31 + 7;
    auto added = db.AddKvWorkload(kcfg);
    if (!added.ok()) {
      result.violations.push_back("history workload failed to attach: " +
                                  added.status().ToString());
      return result;
    }
    history_kv = added.value();
    history_kv->set_history(&recorder);
    history_kv->Start();
  }

  // --- Workload against the armed fault schedule -------------------------
  Session session = db.OpenSession();
  GroundTruth truth;
  uint64_t next_seq = 1;
  const SimTime t_end = db.Now() + kWorkloadDuration;
  while (db.Now() < t_end) {
    const int txns = static_cast<int>(rng.UniformInt(2, 5));
    for (int i = 0; i < txns; ++i) {
      RunOneTxn(&session, table, &rng, &next_seq, &truth);
    }
    if (rng.UniformDouble() < 0.2) {
      RunMultiPut(&session, table, &rng, &next_seq, &truth);
    }
    db.RunFor(250 * kUsPerMs);
  }

  // --- Heal: disarm, reconnect, restart, wait for re-convergence ---------
  if (history_kv != nullptr) history_kv->Stop();
  db.fault().Disarm();
  result.timeline.push_back("t=" + FormatSimTime(db.Now()) +
                            " heal phase begins");
  // Heal loops cover the spares too: a recruited standby that a rider
  // crashed must be restarted like any other casualty.
  for (int i = 1; i < total_nodes; ++i) {
    const NodeId id(static_cast<uint32_t>(i));
    if (db.cluster().node_state(id).partitioned) (void)db.HealPartition(id);
  }
  const SimTime settle_deadline = db.Now() + kSettleTimeout;
  std::string blocker = ConvergenceBlocker(db, table);
  while (!blocker.empty() && db.Now() < settle_deadline) {
    for (int i = 1; i < total_nodes; ++i) {
      const NodeId id(static_cast<uint32_t>(i));
      const cluster::NodeState& state = db.cluster().node_state(id);
      if (state.crashed && !state.excluded) (void)db.RestartNode(id);
      if (state.partitioned) (void)db.HealPartition(id);
    }
    db.RunFor(kUsPerSec);
    blocker = ConvergenceBlocker(db, table);
  }
  if (!blocker.empty()) {
    result.violations.push_back(
        "cluster failed to re-converge within settle timeout: " + blocker);
  }

  // --- Invariant audit ---------------------------------------------------
  for (std::string& v : CheckInvariants(db, table, kMaxKey, truth)) {
    result.violations.push_back(std::move(v));
  }

  // --- History check -----------------------------------------------------
  if (config.record_history) {
    HistoryCheckResult hc = CheckHistory(recorder);
    result.history_ops = static_cast<int64_t>(recorder.size());
    result.history_keys_checked = hc.keys_checked;
    result.history_keys_over_budget = hc.keys_over_budget;
    for (HistoryViolation& v : hc.violations) {
      result.violations.push_back("history: " + v.anomaly);
      result.history_violations.push_back(std::move(v));
    }
  }

  // --- Report ------------------------------------------------------------
  for (const auto& e : db.control_events()) {
    result.timeline.push_back("t=" + FormatSimTime(e.at) + " " +
                              cluster::ToString(e.type) + " node=" +
                              std::to_string(e.node.value()) +
                              (e.detail.empty() ? "" : " " + e.detail));
  }
  result.crashes_injected = db.fault().crashes_injected();
  result.partitions_injected = db.fault().partitions_injected();
  result.restarts_injected = db.fault().restarts_injected();
  result.nodes_declared_dead =
      db.master().event_count(cluster::ControlEventType::kNodeDeclaredDead);
  result.replicas_promoted =
      db.master().event_count(cluster::ControlEventType::kReplicaPromoted);
  result.stale_route_refusals = db.cluster().stale_route_refusals();
  result.committed_txns = truth.committed_txns;
  result.aborted_txns = truth.aborted_txns;
  result.indeterminate_txns = truth.indeterminate_txns;
  result.sim_end = db.Now();
  result.passed = result.violations.empty();
  return result;
}

}  // namespace wattdb::chaos
