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
  auto opened = Db::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "Db::Open failed: %s\n",
                 opened.status().ToString().c_str());
    std::abort();
  }
  rig.db = std::move(opened).value();
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
