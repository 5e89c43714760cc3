#ifndef WATTDB_BENCH_BENCH_UTIL_H_
#define WATTDB_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the paper-reproduction benches. Each bench binary
// regenerates one table/figure of Schall & Härder, ICDE 2015, or measures
// a subsystem layered on the reproduction; its header comment says which.
//
// All benches go through the wattdb::Db facade: the rig below is only the
// paper's §5.1 testbed constants folded into DbOptions plus an attached
// client pool.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/db.h"
#include "exec/operators.h"
#include "metrics/time_series.h"

namespace wattdb::bench {

/// True when WATTDB_BENCH_SMOKE is set (and not "0"): benches shrink their
/// sweeps and windows to CI-smoke size. The CI bench job runs every binary
/// this way; the numbers stay deterministic (simulated time), just coarser.
inline bool SmokeMode() {
  const char* v = std::getenv("WATTDB_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Machine-readable bench results. Construct one per binary; when the
/// WATTDB_BENCH_JSON_DIR environment variable names a directory, the
/// destructor writes BENCH_<name>.json there:
///
///   {"bench": "...", "config": {...},
///    "metrics": [{"name": ..., "value": ..., "unit": ..., "direction": ...}]}
///
/// `direction` tells the CI regression gate which way is worse: "higher"
/// metrics regress when they drop, "lower" metrics when they rise, "info"
/// metrics are recorded but never gated. Without the env var this is a
/// no-op, so benches stay plain stdout tools locally.
class JsonReporter {
 public:
  enum Direction { kHigherIsBetter, kLowerIsBetter, kInfo };

  explicit JsonReporter(std::string name) : name_(std::move(name)) {}
  ~JsonReporter() { Flush(); }
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  void Config(const std::string& key, const std::string& value) {
    config_.push_back({key, "\"" + Escaped(value) + "\""});
  }
  void Config(const std::string& key, double value) {
    config_.push_back({key, Number(value)});
  }

  void Metric(const std::string& name, double value, const std::string& unit,
              Direction direction = kInfo) {
    metrics_.push_back({name, value, unit, direction});
  }

  /// Write the file (idempotent; also runs at destruction).
  void Flush() {
    if (flushed_) return;
    flushed_ = true;
    // Wall-clock runtime of the bench process itself, reporter construction
    // to flush. Never gated (real time is hardware- and load-dependent);
    // recorded so the harness's own perf trajectory is visible in CI.
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - started_)
            .count();
    metrics_.push_back({"wall_clock_ms", wall_ms, "ms", kInfo});
    const char* dir = std::getenv("WATTDB_BENCH_JSON_DIR");
    if (dir == nullptr || dir[0] == '\0') return;
    const std::string path =
        std::string(dir) + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"config\": {",
                 Escaped(name_).c_str());
    for (size_t i = 0; i < config_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %s", i == 0 ? "" : ",",
                   Escaped(config_[i].key).c_str(),
                   config_[i].json_value.c_str());
    }
    std::fprintf(f, "%s},\n  \"metrics\": [", config_.empty() ? "" : "\n  ");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const MetricRow& m = metrics_[i];
      std::fprintf(
          f,
          "%s\n    {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
          "\"direction\": \"%s\"}",
          i == 0 ? "" : ",", Escaped(m.name).c_str(),
          Number(m.value).c_str(), Escaped(m.unit).c_str(),
          m.direction == kHigherIsBetter
              ? "higher"
              : (m.direction == kLowerIsBetter ? "lower" : "info"));
    }
    std::fprintf(f, "%s]\n}\n", metrics_.empty() ? "" : "\n  ");
    std::fclose(f);
    std::printf("\n[bench json] wrote %s\n", path.c_str());
  }

 private:
  struct ConfigRow {
    std::string key;
    std::string json_value;  ///< Already JSON-encoded.
  };
  struct MetricRow {
    std::string name;
    double value;
    std::string unit;
    Direction direction;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  static std::string Number(double v) {
    char buf[64];
    // %.10g round-trips every value the benches emit and still prints
    // integers without a trailing ".000000".
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    std::string s(buf);
    // JSON has no inf/nan literals.
    if (s.find_first_of("in") != std::string::npos &&
        s.find_first_of("0123456789") == std::string::npos) {
      return "null";
    }
    return s;
  }

  std::string name_;
  std::vector<ConfigRow> config_;
  std::vector<MetricRow> metrics_;
  bool flushed_ = false;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

/// A bench measures one fixed scenario, so a call that fails is a bug in
/// the bench, not a result: print `what` and the status, then abort.
inline void Must(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::abort();
}

/// As above, handing over the value on success.
template <typename T>
T Must(StatusOr<T> result, const char* what) {
  Must(result.status(), what);
  return std::move(result).value();
}

/// Warm-up of a KV arm before anything is measured or done to it.
inline constexpr SimTime kKvWarmup = 2 * kUsPerSec;

/// What a KV arm's measured workload booked over one window.
struct KvWindow {
  double committed_per_s = 0;
  double key_ops_per_s = 0;
  double aborted_per_s = 0;
  double mean_ms = 0;
  double p99_ms = 0;
};

/// One arm of a KV bench, on a Db of its own: the constructor opens
/// `options` and attaches one KV workload per config, in order; the first
/// is the measured one. A bench runs its own steps between the ones below
/// on `db()`: a settle before Start, a converge window before Measure, a
/// queue or lane snapshot or a crash after it. The Db stops every workload
/// when the arm goes out of scope.
class KvArm {
 public:
  KvArm(DbOptions options, const std::vector<workload::KvConfig>& workloads)
      : db_(Must(Db::Open(std::move(options)), "Db::Open")) {
    for (const workload::KvConfig& cfg : workloads) {
      drivers_.push_back(Must(db_->AddKvWorkload(cfg), "AddKvWorkload"));
    }
  }

  Db& db() { return *db_; }
  workload::KvWorkload& driver() { return *drivers_.front(); }

  /// Start every workload, then run `warmup`.
  void Start(SimTime warmup) {
    for (workload::KvWorkload* d : drivers_) d->Start();
    db_->RunFor(warmup);
  }

  /// Reset the measured workload's books, run `window`, and report what
  /// the workload committed in it.
  KvWindow Measure(SimTime window) {
    workload::KvWorkload& d = driver();
    d.ResetStats();
    db_->RunFor(window);
    const double secs = ToSeconds(window);
    KvWindow w;
    w.committed_per_s = static_cast<double>(d.committed()) / secs;
    w.key_ops_per_s = static_cast<double>(d.key_ops()) / secs;
    w.aborted_per_s = static_cast<double>(d.aborted()) / secs;
    w.mean_ms = d.latencies().mean() / kUsPerMs;
    w.p99_ms = d.latencies().Percentile(99.0) / kUsPerMs;
    return w;
  }

 private:
  std::unique_ptr<Db> db_;
  std::vector<workload::KvWorkload*> drivers_;
};

/// Options of a KV bench cluster with no TPC-C load, whose record CPU
/// costs are Atom-class scaled up (300 us per read, 600 us per write): one
/// node saturates at a load the whole cluster could serve, so the CPU is
/// the bottleneck, not disks or network.
inline DbOptions CpuBoundKvOptions(int nodes, int active_nodes,
                                   size_t buffer_pages, uint64_t seed) {
  DbOptions options = DbOptions()
                          .WithNodes(nodes)
                          .WithActiveNodes(active_nodes)
                          .WithBufferPages(buffer_pages)
                          .WithSeed(seed)
                          .WithoutTpccLoad();
  options.cluster.costs.cpu_record_read_us = 300;
  options.cluster.costs.cpu_record_write_us = 600;
  return options;
}

/// The skewed KV workload of the heat, lane and replica benches: open loop
/// at `qps`, YCSB-B (95% reads) in batches of 8 over 16384 keys of 100
/// bytes, 32 segments per partition. Zipf(0.99) keeps the hot head
/// contiguous, so one owner soaks up most of the traffic. Committed work is
/// booked at completion, so saturation shows as throughput loss, not just
/// latency.
inline workload::KvConfig SkewedKvConfig(double qps) {
  workload::KvConfig cfg;
  cfg.arrival_qps = qps;
  cfg.count_at_completion = true;
  cfg.read_ratio = 0.95;
  cfg.batch_size = 8;
  cfg.num_keys = 16384;
  cfg.value_bytes = 100;
  cfg.zipf_theta = 0.99;
  cfg.segments_per_partition = 32;
  cfg.seed = 23;
  return cfg;
}

/// The master loop of the skewed-KV benches: a half-second control tick,
/// CPU-threshold elasticity off, and heat balancing on when `balance` is:
/// a node over 1.3x the mean heat for two ticks sheds up to 6 segments a
/// round, with a 4 s cooldown between rounds.
inline cluster::MasterPolicy HeatBalancePolicy(bool balance) {
  cluster::MasterPolicy policy;
  policy.check_period = kUsPerSec / 2;
  policy.stats_window = kUsPerSec;
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  policy.balance.enabled = balance;
  policy.balance.trigger_ratio = 1.3;
  policy.balance.ewma_alpha = 0.5;
  policy.balance.trigger_after = 2;
  policy.balance.cooldown = 4 * kUsPerSec;
  policy.balance.max_moves_per_round = 6;
  policy.balance.min_total_heat = 100.0;
  return policy;
}

/// Snapshot every active node's admission-queue depth into `reporter` as
/// info metrics (`<prefix>_queue_depth_node<N>` plus the max across nodes).
/// Cheap and meaningful in every scenario — the admission controller tracks
/// outstanding ops whether or not shedding is enabled — so the open-loop
/// benches call it at their measurement points to make backlog visible next
/// to the throughput numbers.
inline void ReportQueueDepths(JsonReporter* reporter, Db* db,
                              const std::string& prefix) {
  int64_t deepest = 0;
  for (const auto& g : db->monitor().QueueDepths()) {
    reporter->Metric(
        prefix + "_queue_depth_node" + std::to_string(g.node.value()),
        static_cast<double>(g.queued_ops), "ops", JsonReporter::kInfo);
    deepest = std::max(deepest, g.queued_ops);
  }
  reporter->Metric(prefix + "_queue_depth_max", static_cast<double>(deepest),
                   "ops", JsonReporter::kInfo);
}

/// Snapshot every active node's per-lane backlog (outstanding scheduled
/// work on each worker lane, in ms) into `reporter` as info metrics:
/// `<prefix>_lane_backlog_node<N>_lane<L>` plus the max across all lanes.
/// No-op when the lane policy is off, so open-loop benches can call it
/// unconditionally next to ReportQueueDepths.
inline void ReportLaneBacklogs(JsonReporter* reporter, Db* db,
                               const std::string& prefix) {
  if (!db->cluster().lanes().enabled()) return;
  double deepest_ms = 0.0;
  for (int i = 0; i < db->cluster().num_nodes(); ++i) {
    const NodeId id(static_cast<uint32_t>(i));
    if (!db->cluster().node(id)->IsActive()) continue;
    for (const auto& ls : db->monitor().LaneStatsFor(id)) {
      const double ms = static_cast<double>(ls.backlog_us) / kUsPerMs;
      reporter->Metric(prefix + "_lane_backlog_node" + std::to_string(i) +
                           "_lane" + std::to_string(ls.lane),
                       ms, "ms", JsonReporter::kInfo);
      deepest_ms = std::max(deepest_ms, ms);
    }
  }
  reporter->Metric(prefix + "_lane_backlog_max", deepest_ms, "ms",
                   JsonReporter::kInfo);
}

/// The Fig. 6/8 testbed: a 10-node wimpy cluster, data initially on two
/// nodes (the master and node 1), TPC-C-derived workload throttled by
/// client think times (§5.1).
struct RebalanceSetup {
  int warehouses = 8;
  double fill = 0.5;
  int num_nodes = 10;
  int clients = 60;
  SimTime think_time = 60 * kUsPerMs;
  /// Every materialized byte stands for `cost_scale` paper bytes so the
  /// SF-1000 migration duration (~4-5 minutes) is reproduced with a small
  /// materialized database.
  double cost_scale = 22.0;
  /// Buffer sized to the paper's DRAM:data ratio (2 GB against ~20+ GB per
  /// node -> a few percent of the pages are resident).
  size_t buffer_pages = 400;
  uint64_t seed = 42;
};

/// The §5.1 testbed as facade options; tweak the returned object for
/// per-bench deviations before Db::Open.
inline DbOptions RigOptions(const RebalanceSetup& s,
                            const std::string& scheme = "physiological",
                            tx::CcScheme cc = tx::CcScheme::kMvcc) {
  DbOptions options;
  options.WithNodes(s.num_nodes)
      .WithActiveNodes(2)
      .WithBufferPages(s.buffer_pages)
      .WithCc(cc)
      .WithSeed(s.seed)
      .WithWarehouses(s.warehouses)
      .WithFill(s.fill)
      .WithHomeNodes({NodeId(0), NodeId(1)})
      .WithScheme(scheme)
      .WithCostScale(s.cost_scale);
  return options;
}

struct RebalanceRig {
  std::unique_ptr<Db> db;
  /// Attached closed-loop client pool (owned by `db`); null when the setup
  /// asked for zero clients.
  workload::ClientPool* pool = nullptr;
};

/// Open `options` and attach the setup's client pool. Use this overload for
/// per-bench option tweaks: `MakeRig(s, RigOptions(s).WithCopyChunkBytes(n))`.
inline RebalanceRig MakeRig(const RebalanceSetup& s, const DbOptions& options) {
  RebalanceRig rig;
  rig.db = Must(Db::Open(options), "Db::Open");
  if (s.clients > 0) {
    workload::ClientPoolConfig pool_cfg;
    pool_cfg.num_clients = s.clients;
    pool_cfg.think_time = s.think_time;
    pool_cfg.seed = s.seed;
    rig.pool = &rig.db->AddClientPool(pool_cfg);
  }
  return rig;
}

inline RebalanceRig MakeRig(const RebalanceSetup& s,
                            const std::string& scheme = "physiological",
                            tx::CcScheme cc = tx::CcScheme::kMvcc) {
  return MakeRig(s, RigOptions(s, scheme, cc));
}

/// The time axis of Figs. 6 and 8: 180 s of warm-up, the move starts at
/// t = 0, and the window closes 570 s later; 10 s buckets. Smoke mode keeps
/// the shape (dip and recovery) on a shorter window.
inline SimTime MoveWarmup() { return (SmokeMode() ? 30 : 180) * kUsPerSec; }
inline SimTime MoveRunAfter() { return (SmokeMode() ? 130 : 570) * kUsPerSec; }
inline constexpr SimTime kMoveBucket = 10 * kUsPerSec;

/// The Fig. 6/8 testbed. Smoke mode moves less data under a lighter load;
/// the ordering of the arms (the figures' point) is preserved.
inline RebalanceSetup MoveSetup() {
  RebalanceSetup setup;
  if (SmokeMode()) {
    setup.cost_scale = 4.0;
    setup.clients = 20;
    setup.warehouses = 4;
    setup.fill = 0.3;
  }
  return setup;
}

/// One arm of a rebalance-under-load figure.
struct MoveRun {
  metrics::TimeSeries series{kMoveBucket};
  int64_t completed = 0;
  int64_t aborted = 0;
  /// The scheme's move as the window closed.
  cluster::RebalanceStats move;
  /// Seconds the move took; -1 when it was still running as the window
  /// closed (logical may be), so a negative duration never reaches a gate.
  double migration_secs = -1.0;
};

/// Run `scheme` under the setup's client pool over the Fig. 6/8 axis,
/// sampling cluster and pool into the run's series. At t = 0 `at_zero`
/// starts the move.
inline MoveRun RunMove(const RebalanceSetup& s, const std::string& scheme,
                       const std::function<void(Db*)>& at_zero) {
  RebalanceRig rig = MakeRig(s, scheme);
  Db& db = *rig.db;
  MoveRun out;
  out.series.SetOrigin(MoveWarmup());
  db.cluster().StartSampling(&out.series);
  rig.pool->set_series(&out.series);
  rig.pool->Start();
  db.events().ScheduleAt(MoveWarmup(), [&]() { at_zero(&db); });
  db.RunUntil(MoveWarmup() + MoveRunAfter());
  out.completed = rig.pool->committed();
  out.aborted = rig.pool->aborted();
  out.move = db.scheme().stats();
  if (out.move.finished_at > out.move.started_at) {
    out.migration_secs = ToSeconds(out.move.finished_at - out.move.started_at);
  }
  return out;
}

/// Print the four panels of Figs. 6 and 8, one column group per arm.
inline void PrintMovePanels(const std::vector<std::string>& labels,
                            const std::vector<const MoveRun*>& runs) {
  std::vector<const metrics::TimeSeries*> series;
  for (const MoveRun* r : runs) series.push_back(&r->series);
  const double bs = ToSeconds(kMoveBucket);
  std::printf("\n(a) Throughput of the cluster [qps]\n%s\n",
              metrics::SideBySide(labels, series, "qps", bs).c_str());
  std::printf("\n(b) Avg. response time per query [ms]\n%s\n",
              metrics::SideBySide(labels, series, "ms", bs).c_str());
  std::printf("\n(c) Power consumption of the cluster [Watt]\n%s\n",
              metrics::SideBySide(labels, series, "watt", bs).c_str());
  std::printf("\n(d) Energy consumption per query [Joule/query]\n%s\n",
              metrics::SideBySide(labels, series, "jpq", bs).c_str());
}

struct PlanRunResult {
  size_t records = 0;
  SimTime elapsed_us = 0;
  /// Completion time of the plan, captured before the commit record is
  /// written (schedule follow-up work at this time, not after the commit).
  SimTime done_at = 0;
};

/// Drain a volcano plan in a fresh read-only facade transaction — the
/// operator-figure benches' shared choreography (Fig. 1, Fig. 2, E9).
inline PlanRunResult DrainPlanInTxn(Db* db, exec::Operator* root) {
  Session session = db->OpenSession();
  TxnHandle txn = session.Begin(/*read_only=*/true);
  exec::ExecContext ctx{&db->cluster(), txn.txn()};
  const SimTime t0 = txn.txn()->now;
  PlanRunResult r;
  r.records = exec::DrainPlan(&ctx, root);
  r.done_at = txn.txn()->now;
  r.elapsed_us = r.done_at - t0;
  (void)txn.Commit();
  return r;
}

inline void PrintHeader(const char* figure, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("Reproduction of Schall & Haerder, \"Dynamic Physiological\n");
  std::printf("Partitioning on a Shared-nothing Database Cluster\" (ICDE'15)\n");
  std::printf("==============================================================\n");
}

}  // namespace wattdb::bench

#endif  // WATTDB_BENCH_BENCH_UTIL_H_
