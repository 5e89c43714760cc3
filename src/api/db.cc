#include "api/db.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"
#include "partition/logical.h"
#include "partition/physical.h"
#include "partition/physiological.h"

namespace wattdb {

namespace {

using SchemeFactory = std::unique_ptr<cluster::Repartitioner> (*)(
    cluster::Cluster*, const partition::MigrationConfig&);

template <typename Scheme>
std::unique_ptr<cluster::Repartitioner> MakeScheme(
    cluster::Cluster* cluster, const partition::MigrationConfig& config) {
  return std::make_unique<Scheme>(cluster, config);
}

/// The partitioning schemes of §4 by DbOptions::scheme name. A new scheme
/// is one MigrationManagerBase subclass plus one row here.
constexpr struct {
  const char* name;
  SchemeFactory make;
} kSchemes[] = {
    {"logical", &MakeScheme<partition::LogicalPartitioning>},
    {"physical", &MakeScheme<partition::PhysicalPartitioning>},
    {"physiological", &MakeScheme<partition::PhysiologicalPartitioning>},
};

/// Factory of the scheme called `name`, or nullptr.
SchemeFactory FindScheme(const std::string& name) {
  for (const auto& scheme : kSchemes) {
    if (name == scheme.name) return scheme.make;
  }
  return nullptr;
}

std::string SchemeNames() {
  std::string names;
  for (const auto& scheme : kSchemes) {
    if (!names.empty()) names += ", ";
    names += scheme.name;
  }
  return names;
}

}  // namespace

Db::Db(DbOptions options) : options_(std::move(options)) {}

StatusOr<std::unique_ptr<Db>> Db::Open(DbOptions options) {
  // Validate topology and scheme before standing anything up — a bad option
  // must fail here with a message naming it, not deep in cluster wiring.
  if (options.scheme.empty()) {
    return Status::InvalidArgument("scheme name is empty; pick one of " +
                                   SchemeNames());
  }
  if (options.cluster.num_nodes <= 0) {
    return Status::InvalidArgument(
        "cluster needs at least one node, got WithNodes(" +
        std::to_string(options.cluster.num_nodes) + ")");
  }
  if (options.cluster.initially_active <= 0) {
    return Status::InvalidArgument(
        "at least the master must start active, got WithActiveNodes(" +
        std::to_string(options.cluster.initially_active) + ")");
  }
  if (options.cluster.initially_active > options.cluster.num_nodes) {
    return Status::InvalidArgument(
        "WithActiveNodes(" + std::to_string(options.cluster.initially_active) +
        ") exceeds WithNodes(" + std::to_string(options.cluster.num_nodes) +
        ")");
  }
  if (FindScheme(options.scheme) == nullptr) {
    return Status::NotFound("unknown partitioning scheme '" + options.scheme +
                            "' (known: " + SchemeNames() + ")");
  }
  // MasterPolicy misconfiguration must fail loudly here, not silently
  // disable the control loop (a check_period of 0 would spin the event
  // queue; inverted CPU bounds would flap scale decisions forever).
  const cluster::MasterPolicy& mp = options.master;
  if (mp.check_period <= 0) {
    return Status::InvalidArgument(
        "MasterPolicy.check_period must be > 0, got " +
        std::to_string(mp.check_period));
  }
  if (mp.stats_window <= 0) {
    return Status::InvalidArgument(
        "MasterPolicy.stats_window must be > 0, got " +
        std::to_string(mp.stats_window));
  }
  if (mp.stats_window > cluster::kResourceHistoryKeep) {
    return Status::InvalidArgument(
        "MasterPolicy.stats_window must be <= " +
        std::to_string(cluster::kResourceHistoryKeep) +
        " us (the resource history each sample tick keeps), got " +
        std::to_string(mp.stats_window));
  }
  if (!(mp.cpu_lower < mp.cpu_upper)) {
    return Status::InvalidArgument(
        "MasterPolicy needs cpu_lower < cpu_upper, got " +
        std::to_string(mp.cpu_lower) + " vs " + std::to_string(mp.cpu_upper));
  }
  if (mp.cpu_lower < 0.0 || mp.cpu_upper > 1.0) {
    return Status::InvalidArgument(
        "MasterPolicy CPU thresholds must lie in [0, 1], got [" +
        std::to_string(mp.cpu_lower) + ", " + std::to_string(mp.cpu_upper) +
        "]");
  }
  if (mp.trigger_after < 1) {
    return Status::InvalidArgument(
        "MasterPolicy.trigger_after must be >= 1, got " +
        std::to_string(mp.trigger_after));
  }
  if (mp.recovery.restart_backoff < 0) {
    return Status::InvalidArgument(
        "RecoveryPolicy.restart_backoff must be >= 0, got " +
        std::to_string(mp.recovery.restart_backoff));
  }
  if (mp.recovery.exclude_after_crashes < 0) {
    return Status::InvalidArgument(
        "RecoveryPolicy.exclude_after_crashes must be >= 0 (0 disables), "
        "got " +
        std::to_string(mp.recovery.exclude_after_crashes));
  }
  // BalancePolicy misconfiguration is rejected even when disabled — a typo
  // must surface the first time the options are used, not when the knob is
  // eventually switched on.
  const cluster::BalancePolicy& bp = mp.balance;
  if (bp.trigger_ratio <= 1.0) {
    return Status::InvalidArgument(
        "BalancePolicy.trigger_ratio must be > 1 (hottest vs mean), got " +
        std::to_string(bp.trigger_ratio));
  }
  if (bp.ewma_alpha <= 0.0 || bp.ewma_alpha > 1.0) {
    return Status::InvalidArgument(
        "BalancePolicy.ewma_alpha must lie in (0, 1], got " +
        std::to_string(bp.ewma_alpha));
  }
  if (bp.trigger_after < 1) {
    return Status::InvalidArgument(
        "BalancePolicy.trigger_after must be >= 1, got " +
        std::to_string(bp.trigger_after));
  }
  if (bp.cooldown < 0) {
    return Status::InvalidArgument(
        "BalancePolicy.cooldown must be >= 0, got " +
        std::to_string(bp.cooldown));
  }
  if (bp.max_moves_per_round < 1) {
    return Status::InvalidArgument(
        "BalancePolicy.max_moves_per_round must be >= 1, got " +
        std::to_string(bp.max_moves_per_round));
  }
  if (bp.min_total_heat < 0.0) {
    return Status::InvalidArgument(
        "BalancePolicy.min_total_heat must be >= 0, got " +
        std::to_string(bp.min_total_heat));
  }
  // ReplicaPolicy is validated even when disabled, for the same reason as
  // BalancePolicy above.
  const cluster::ReplicaPolicy& rp = mp.replica;
  if (rp.replicas_per_segment < 1) {
    return Status::InvalidArgument(
        "ReplicaPolicy.replicas_per_segment must be >= 1, got " +
        std::to_string(rp.replicas_per_segment));
  }
  if (rp.heat_threshold < 0.0) {
    return Status::InvalidArgument(
        "ReplicaPolicy.heat_threshold must be >= 0, got " +
        std::to_string(rp.heat_threshold));
  }
  if (rp.max_replicated_segments < 1) {
    return Status::InvalidArgument(
        "ReplicaPolicy.max_replicated_segments must be >= 1, got " +
        std::to_string(rp.max_replicated_segments));
  }
  if (rp.max_lag_records < 0) {
    return Status::InvalidArgument(
        "ReplicaPolicy.max_lag_records must be >= 0, got " +
        std::to_string(rp.max_lag_records));
  }
  if (rp.drop_cold_after < 0) {
    return Status::InvalidArgument(
        "ReplicaPolicy.drop_cold_after must be >= 0, got " +
        std::to_string(rp.drop_cold_after));
  }
  // AdmissionPolicy is validated even when disabled, for the same reason as
  // BalancePolicy above.
  const admission::AdmissionPolicy& ap = mp.admission;
  if (ap.max_queue_ops < 1) {
    return Status::InvalidArgument(
        "AdmissionPolicy.max_queue_ops must be >= 1, got " +
        std::to_string(ap.max_queue_ops));
  }
  if (ap.overload_ratio <= 0.0 || ap.overload_ratio > 1.0) {
    return Status::InvalidArgument(
        "AdmissionPolicy.overload_ratio must lie in (0, 1], got " +
        std::to_string(ap.overload_ratio));
  }
  // LanePolicy is validated even when disabled, for the same reason as
  // BalancePolicy above.
  const lanes::LanePolicy& lp = options.cluster.lanes;
  if (lp.lanes_per_node < 1) {
    return Status::InvalidArgument(
        "LanePolicy.lanes_per_node must be >= 1, got " +
        std::to_string(lp.lanes_per_node));
  }
  if (lp.lane_trigger_ratio <= 1.0) {
    return Status::InvalidArgument(
        "LanePolicy.lane_trigger_ratio must be > 1, got " +
        std::to_string(lp.lane_trigger_ratio));
  }
  if (lp.relane_cooldown < 0) {
    return Status::InvalidArgument(
        "LanePolicy.relane_cooldown must be >= 0, got " +
        std::to_string(lp.relane_cooldown));
  }
  // Catch casts of arbitrary integers before the first segment is built
  // with an index it cannot construct.
  if (index::MakeRecordIndex(options.cluster.index_kind) == nullptr) {
    return Status::InvalidArgument(
        "DbOptions.cluster.index_kind is not a known IndexKind, got " +
        std::to_string(static_cast<int>(options.cluster.index_kind)));
  }
  for (const fault::FaultPlan::Crash& crash : options.fault_plan.crashes) {
    if (!crash.node.valid() ||
        crash.node.value() >= static_cast<uint32_t>(options.cluster.num_nodes)) {
      return Status::InvalidArgument(
          "fault plan crashes node " + std::to_string(crash.node.value()) +
          " outside the cluster of " +
          std::to_string(options.cluster.num_nodes) + " nodes");
    }
    if (crash.node.value() == 0) {
      return Status::InvalidArgument(
          "fault plan cannot crash the master (node 0)");
    }
    // -1 is the "not a progress trigger" sentinel; anything else must be a
    // real fraction, or a typo'd trigger would degrade to a crash at t=0.
    if (crash.at_migration_progress != -1.0 &&
        (crash.at_migration_progress < 0.0 ||
         crash.at_migration_progress > 1.0)) {
      return Status::InvalidArgument(
          "fault plan migration-progress trigger must be in [0, 1], got " +
          std::to_string(crash.at_migration_progress));
    }
    if (crash.at_replica_progress != -1.0 &&
        (crash.at_replica_progress < 0.0 ||
         crash.at_replica_progress > 1.0)) {
      return Status::InvalidArgument(
          "fault plan replica-progress trigger must be in [0, 1], got " +
          std::to_string(crash.at_replica_progress));
    }
  }
  for (const fault::FaultPlan::NetSplit& split : options.fault_plan.splits) {
    if (!split.node.valid() ||
        split.node.value() >= static_cast<uint32_t>(options.cluster.num_nodes)) {
      return Status::InvalidArgument(
          "fault plan partitions node " + std::to_string(split.node.value()) +
          " outside the cluster of " +
          std::to_string(options.cluster.num_nodes) + " nodes");
    }
    if (split.node.value() == 0) {
      return Status::InvalidArgument(
          "fault plan cannot partition the master (node 0) from itself");
    }
  }
  if (options.load_tpcc && options.load.home_nodes.empty()) {
    return Status::InvalidArgument("TPC-C load needs at least one home node");
  }
  for (const NodeId home : options.load.home_nodes) {
    if (options.load_tpcc &&
        (!home.valid() ||
         home.value() >= static_cast<uint32_t>(options.cluster.num_nodes))) {
      return Status::InvalidArgument(
          "TPC-C home node " + std::to_string(home.value()) +
          " is outside the cluster of " +
          std::to_string(options.cluster.num_nodes) + " nodes");
    }
  }

  std::unique_ptr<Db> db(new Db(std::move(options)));
  const DbOptions& opts = db->options_;

  db->cluster_ = std::make_unique<cluster::Cluster>(opts.cluster);
  db->cluster_->set_auto_vacuum(opts.auto_vacuum);
  // The routing layer enforces the queue caps; the master only watches the
  // resulting depths for sustained overload. Installed before any load so
  // even the TPC-C loader's ops are tracked (as system txns they are never
  // refused).
  db->cluster_->admission().set_policy(opts.master.admission);

  if (opts.load_tpcc) {
    db->tpcc_ =
        std::make_unique<workload::TpccDatabase>(db->cluster_.get(), opts.load);
    WATTDB_RETURN_IF_ERROR(db->tpcc_->Load());
  }

  // Table ids exist only after the load, so the migration restriction is
  // resolved here rather than in DbOptions.
  partition::MigrationConfig migration = opts.migration;
  if (opts.migrate_only.has_value()) {
    if (db->tpcc_ == nullptr) {
      return Status::InvalidArgument(
          "WithMigrateOnly requires the TPC-C load");
    }
    migration.only_table = db->tpcc_->table(*opts.migrate_only);
  }

  db->scheme_ = FindScheme(opts.scheme)(db->cluster_.get(), migration);

  db->master_ = std::make_unique<cluster::Master>(
      db->cluster_.get(), db->scheme_.get(), opts.master);

  db->recovery_ = std::make_unique<fault::RecoveryManager>(db->cluster_.get(),
                                                           db->scheme_.get());
  db->fault_ = std::make_unique<fault::FaultInjector>(
      db->cluster_.get(), db->recovery_.get(), db->scheme_.get());
  if (!opts.fault_plan.empty()) db->fault_->Arm(opts.fault_plan);

  // Warm-standby subsystem: built unconditionally (its observers are part
  // of the facade), driven from the master's control ticks only when the
  // policy enables it.
  db->replicas_ = std::make_unique<replica::ReplicaManager>(
      db->cluster_.get(), db->master_.get());
  // Close the self-healing loop: the master's heartbeat detector restarts
  // nodes through the recovery manager (boot + redo) and promotes and drops
  // standbys through the replica manager.
  db->master_->SetManagers(db->recovery_.get(), db->replicas_.get());
  db->fault_->set_replica_manager(db->replicas_.get());

  if (opts.start_sampling) db->cluster_->StartSampling(nullptr);
  if (opts.start_master) db->master_->Start();

  return db;
}

Db::~Db() {
  for (auto& driver : drivers_) driver->Stop();
  if (master_ != nullptr) master_->Stop();
  if (cluster_ != nullptr) cluster_->StopSampling();
}

std::vector<TableRoute> Db::Routes(TableId table) const {
  std::vector<TableRoute> out;
  for (const auto& route : cluster_->catalog().AllRoutes(table)) {
    const catalog::Partition* p = cluster_->catalog().GetPartition(route.primary);
    if (p == nullptr) continue;
    out.push_back(TableRoute{route.range, route.primary, p->owner(),
                             p->segment_count()});
  }
  return out;
}

StatusOr<TableId> Db::CreateKvTable(const std::string& name, size_t value_bytes,
                                    Key max_key,
                                    int segments_per_partition) {
  if (name.empty()) {
    return Status::InvalidArgument("KV table needs a non-empty name");
  }
  if (value_bytes == 0 || max_key == 0) {
    return Status::InvalidArgument(
        "KV table needs value_bytes > 0 and a non-empty key space");
  }
  if (segments_per_partition < 0) {
    return Status::InvalidArgument(
        "segments_per_partition must be >= 0 (0 = lazy), got " +
        std::to_string(segments_per_partition));
  }
  if (cluster_->catalog().GetSchemaByName(name) != nullptr) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  catalog::TableSchema schema;
  schema.name = name;
  schema.columns = {
      {"value", catalog::ColumnType::kString,
       static_cast<uint32_t>(value_bytes)}};
  const TableId table = cluster_->catalog().CreateTable(std::move(schema));

  // Range-partition [0, max_key) evenly across the active nodes, one
  // partition per node; segments materialize lazily on first insert.
  const std::vector<cluster::Node*> actives = cluster_->ActiveNodes();
  const Key span = std::max<Key>(1, max_key / actives.size());
  for (size_t i = 0; i < actives.size(); ++i) {
    const Key lo = static_cast<Key>(i) * span;
    if (lo >= max_key) break;
    const Key hi = (i + 1 == actives.size()) ? max_key : std::min(max_key, lo + span);
    catalog::Partition* part =
        cluster_->catalog().CreatePartition(table, actives[i]->id());
    WATTDB_RETURN_IF_ERROR(
        cluster_->catalog().AssignRange(table, KeyRange{lo, hi}, part->id()));
    if (segments_per_partition > 0) {
      // Pre-split so the partition's range is covered by several segments;
      // a skewed workload then heats them unevenly and the balancer can
      // peel the hottest ones off onto colder nodes.
      const Key sub = std::max<Key>(
          1, (hi - lo) / static_cast<Key>(segments_per_partition));
      for (int j = 0; j < segments_per_partition; ++j) {
        const Key slo = lo + static_cast<Key>(j) * sub;
        if (slo >= hi) break;
        const Key shi = (j + 1 == segments_per_partition)
                            ? hi
                            : std::min(hi, slo + sub);
        auto seg = actives[i]->AllocateSegment(cluster_->Now(), part,
                                               KeyRange{slo, shi});
        WATTDB_RETURN_IF_ERROR(seg.status());
      }
    }
  }
  return table;
}

workload::WorkloadDriver& Db::AttachWorkload(
    std::unique_ptr<workload::WorkloadDriver> driver) {
  WATTDB_CHECK_MSG(driver != nullptr, "AttachWorkload needs a driver");
  drivers_.push_back(std::move(driver));
  return *drivers_.back();
}

workload::ClientPool& Db::AddClientPool(
    const workload::ClientPoolConfig& cfg) {
  WATTDB_CHECK_MSG(tpcc_ != nullptr,
                   "AddClientPool requires the TPC-C load (WithoutTpccLoad "
                   "databases drive Sessions directly)");
  auto pool = std::make_unique<workload::ClientPool>(tpcc_.get(), cfg);
  workload::ClientPool* raw = pool.get();
  AttachWorkload(std::move(pool));
  return *raw;
}

workload::MicroWorkload& Db::AddMicroWorkload(
    const workload::MicroConfig& cfg) {
  WATTDB_CHECK_MSG(tpcc_ != nullptr,
                   "AddMicroWorkload requires the TPC-C load");
  auto micro = std::make_unique<workload::MicroWorkload>(tpcc_.get(), cfg);
  workload::MicroWorkload* raw = micro.get();
  AttachWorkload(std::move(micro));
  return *raw;
}

StatusOr<workload::KvWorkload*> Db::AddKvWorkload(
    const workload::KvConfig& cfg) {
  if (cfg.num_clients <= 0 || cfg.batch_size <= 0 || cfg.num_keys <= 0) {
    return Status::InvalidArgument(
        "KvConfig needs positive num_clients, batch_size, and num_keys");
  }
  if (cfg.zipf_theta < 0.0 || cfg.zipf_theta >= 1.0) {
    return Status::InvalidArgument(
        "KvConfig.zipf_theta must lie in [0, 1) (Gray et al. generator), "
        "got " +
        std::to_string(cfg.zipf_theta));
  }
  if (cfg.zipf_offset < 0 || cfg.zipf_offset >= cfg.num_keys) {
    return Status::InvalidArgument(
        "KvConfig.zipf_offset must lie in [0, num_keys), got " +
        std::to_string(cfg.zipf_offset));
  }
  if (cfg.shed_retries < 0) {
    return Status::InvalidArgument(
        "KvConfig.shed_retries must be >= 0, got " +
        std::to_string(cfg.shed_retries));
  }
  if (cfg.shed_retries > 0 && cfg.retry_backoff <= 0) {
    return Status::InvalidArgument(
        "KvConfig.retry_backoff must be > 0 when shed_retries is set, got " +
        std::to_string(cfg.retry_backoff));
  }
  if (cfg.slo_us < 0) {
    return Status::InvalidArgument("KvConfig.slo_us must be >= 0, got " +
                                   std::to_string(cfg.slo_us));
  }
  // One table per attached driver so several KV workloads can coexist.
  const std::string table_name = "kv-" + std::to_string(drivers_.size());
  WATTDB_ASSIGN_OR_RETURN(
      const TableId table,
      CreateKvTable(table_name, cfg.value_bytes,
                    static_cast<Key>(cfg.num_keys),
                    cfg.segments_per_partition));
  auto kv = std::make_unique<workload::KvWorkload>(OpenSession(), table, cfg,
                                                   &cluster_->events());
  WATTDB_RETURN_IF_ERROR(kv->Load());
  workload::KvWorkload* raw = kv.get();
  AttachWorkload(std::move(kv));
  return raw;
}

Status Db::TriggerRebalance(const std::vector<NodeId>& targets,
                            double fraction, std::function<void()> done) {
  return master_->TriggerRebalance(targets, fraction, std::move(done));
}

StatusOr<SimTime> Db::RebalanceAndWait(const std::vector<NodeId>& targets,
                                       double fraction, SimTime max_wait) {
  // Shared, not stack-captured: on timeout the scheme still holds the done
  // callback and fires it whenever the move eventually completes.
  auto done = std::make_shared<bool>(false);
  WATTDB_RETURN_IF_ERROR(
      master_->TriggerRebalance(targets, fraction, [done]() { *done = true; }));
  const SimTime t0 = cluster_->Now();
  while (!*done && cluster_->Now() < t0 + max_wait) {
    cluster_->RunUntil(cluster_->Now() + kUsPerSec);
  }
  if (!*done) {
    return Status::TimedOut("rebalance still running after " +
                            std::to_string(ToSeconds(max_wait)) + " s");
  }
  return cluster_->Now() - t0;
}

Status Db::AttachHelpers(const std::vector<NodeId>& helpers,
                         const std::vector<NodeId>& assisted,
                         size_t remote_buffer_pages) {
  return master_->AttachHelpers(helpers, assisted, remote_buffer_pages);
}

Status Db::DetachHelpers() { return master_->DetachHelpers(); }

Status Db::CrashNode(NodeId node) { return recovery_->Crash(node); }

Status Db::RestartNode(
    NodeId node,
    std::function<void(const fault::RecoveryReport&)> on_recovered) {
  return recovery_->Restart(node, std::move(on_recovered));
}

StatusOr<fault::RecoveryReport> Db::RestartNodeAndWait(NodeId node,
                                                       SimTime max_wait) {
  // Shared, not stack-captured: on timeout the recovery callback is still
  // pending on the event loop and fires whenever recovery completes.
  auto report = std::make_shared<std::optional<fault::RecoveryReport>>();
  WATTDB_RETURN_IF_ERROR(recovery_->Restart(
      node, [report](const fault::RecoveryReport& r) { *report = r; }));
  const SimTime t0 = cluster_->Now();
  while (!report->has_value() && cluster_->Now() < t0 + max_wait) {
    cluster_->RunUntil(cluster_->Now() + kUsPerSec / 10);
  }
  if (!report->has_value()) {
    return Status::TimedOut("node " + std::to_string(node.value()) +
                            " still recovering after " +
                            std::to_string(ToSeconds(max_wait)) + " s");
  }
  return **report;
}

Status Db::PartitionNode(NodeId node) {
  return cluster_->PartitionNode(node);
}

Status Db::HealPartition(NodeId node) { return cluster_->HealPartition(node); }

}  // namespace wattdb
