// wattbench: runs one workload for one seed and prints every metric by name
// with its unit, checks the outputs, and ends with one JSON line:
//
//   wattbench --workload kv-skew-rebalance --seed 1 --seconds 10 --trace 0
//             [--out DIR]
//
// A run repeats the workload (each repetition on a fresh Db) until
// --seconds of host time have passed, with at least three repetitions.
// Modeled values must agree bit for bit across repetitions; host values
// are medians. With --trace 1 untraced and traced repetitions alternate:
// the traced ones record spans and probes, the untraced ones give the
// baseline of trace.overhead_share. End-to-end numbers always come from
// untraced repetitions.
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "wattbench.h"

namespace wattdb::wattbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: printed by every workload with --trace 0.
constexpr MetricSpec kEndToEnd[] = {
    {"committed_txn_per_s", "txn/s"}, {"committed_share", "ratio"},
    {"host_run_s", "s"},              {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics: printed by every workload with --trace 1. A layer a
/// workload does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sim.pool_peek_us", "us"},
    {"sim.pool_peek_us_max", "us"},
    {"sim.event_ns", "ns"},
    {"sim.host_loop_s", "s"},
    {"api.host_us_per_txn", "us"},
    {"workload.latency_p50_ms", "sim_ms"},
    {"workload.latency_p99_ms", "sim_ms"},
    {"workload.latency_samples", "count"},
    {"workload.failed_share", "ratio"},
    {"workload.max_rate_at_slo_txn_per_s", "txn/s"},
    {"hw.cpu_busy_s", "sim_s"},
    {"hw.cpu_util_max", "ratio"},
    {"hw.disk_busy_s", "sim_s"},
    {"hw.disk_mb", "MB"},
    {"hw.net_mb", "MB"},
    {"hw.net_msgs_per_txn", "msg/txn"},
    {"hw.avg_watts", "W"},
    {"hw.active_nodes", "nodes"},
    {"hw.energy_j_per_txn", "J/txn"},
    {"hw.cpu_ms_per_txn", "sim_ms"},
    {"hw.net_ms_per_txn", "sim_ms"},
    {"storage.buffer_hit_rate", "ratio"},
    {"storage.misses_per_txn", "miss/txn"},
    {"storage.dirty_writebacks", "count"},
    {"storage.space_amp", "ratio"},
    {"storage.disk_ms_per_txn", "sim_ms"},
    {"storage.latch_ms_per_txn", "sim_ms"},
    {"tx.log_bytes_per_txn", "B/txn"},
    {"tx.versions", "count"},
    {"tx.aborted", "count"},
    {"tx.lock_ms_per_txn", "sim_ms"},
    {"tx.log_ms_per_txn", "sim_ms"},
    {"tx.commit_ms_per_txn", "sim_ms"},
    {"catalog.route_ns", "ns"},
    {"catalog.routes", "count"},
    {"cluster.owner_round_trips_per_txn", "rt/txn"},
    {"cluster.straggler_retries", "count"},
    {"cluster.heat_rounds", "count"},
    {"cluster.heat_moves_planned", "count"},
    {"cluster.heat_moves_completed", "count"},
    {"cluster.heat_move_success", "ratio"},
    {"cluster.other_ms_per_txn", "sim_ms"},
    {"admission.admitted", "count"},
    {"admission.shed", "count"},
    {"admission.admit_ratio", "ratio"},
    {"admission.queue_depth_max", "ops"},
    {"admission.retry_ms_per_txn", "sim_ms"},
    {"lanes.backlog_ms_max", "sim_ms"},
    {"lanes.relanes", "count"},
    {"partition.rebalance_s", "sim_s"},
    {"partition.mb_shipped", "MB"},
    {"partition.segments_moved", "count"},
    {"partition.records_moved", "count"},
    {"partition.copy_mb_per_s", "MB/sim_s"},
    {"partition.tasks_failed", "count"},
    {"chaos.seeds_per_min", "1/min"},
    {"chaos.slowest_seed_ratio", "ratio"},
    {"chaos.history_ops", "count"},
    {"chaos.keys_over_budget", "count"},
    {"chaos.unchecked_key_share", "ratio"},
    {"fault.crashes", "count"},
    {"fault.nodes_declared_dead", "count"},
    {"replica.promoted", "count"},
    {"trace.overhead_share", "ratio"},
};

struct WorkloadSpec {
  const char* name;
  WorkloadFn fn;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"kv-skew-rebalance", RunKvSkewRebalance},
    {"kv-rw-ramp", RunKvRwRamp},
    {"tpcc-scaleout", RunTpccScaleout},
    {"chaos-history", RunChaosHistory},
};

constexpr int kMinReps = 3;
constexpr int kMaxReps = 50;
/// Stop repeating once another repetition would push the run past this.
constexpr double kBudgetSeconds = 150;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--trace" && i + 1 < argc) {
      value = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc &&
               (std::strcmp(argv[i + 1], "0") == 0 ||
                std::strcmp(argv[i + 1], "1") == 0)) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload = value;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (!value.empty() && value != "0" && value != "1") return false;
      a->trace = value != "0";
    } else if (arg == "--out") {
      a->out = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kModeled:
      return "modeled";
    case Kind::kHost:
      return "host";
    case Kind::kAbsent:
      break;
  }
  return "absent";
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// `"name": {"value": v, "unit": u[, "kind": k]}`
std::string MetricJson(const Metric& m, bool with_kind) {
  std::string out = Quote(m.name) + ": {\"value\": " + Num(m.value) +
                    ", \"unit\": " + Quote(m.unit);
  if (with_kind) out += ", \"kind\": " + Quote(KindName(m.kind));
  return out + "}";
}

/// FNV-1a over every modeled value (name and all digits) and the final
/// state digest: equal fingerprints mean a bit-identical model outcome.
uint64_t Fingerprint(const Rep& rep) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  };
  for (const Metric& m : rep.modeled) mix(m.name + "=" + Num(m.value) + ";");
  mix(Num(static_cast<double>(rep.state_digest)));
  return h;
}

bool StartsWith(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

/// Per span, the summed duration of its direct children; a span's self time
/// is its duration minus this.
std::vector<int64_t> ChildNs(const std::vector<Tracer::Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  return child_ns;
}

/// Host metrics derived from a traced repetition's spans: the simulator's
/// own event loop (self time of Db::RunFor; a chaos scenario is all loop)
/// and the host cost of the public API calls per committed transaction.
void AddSpanMetrics(const std::vector<Tracer::Span>& spans, Rep* rep) {
  const std::vector<int64_t> child_ns = ChildNs(spans);
  double loop_s = 0;
  double api_s = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    const bool scenario = std::strcmp(s.name, "chaos::RunScenario") == 0;
    if (std::strcmp(s.name, "Db::RunFor") == 0) {
      loop_s += dur - static_cast<double>(child_ns[i]) / 1e9;
    }
    if (scenario) loop_s += dur;
    if (scenario || StartsWith(s.name, "Session::") ||
        StartsWith(s.name, "TxnHandle::") ||
        std::strcmp(s.name, "TpccRunner::Run") == 0) {
      api_s += dur;
    }
  }
  rep->Probe("sim.host_loop_s", loop_s, "s");
  rep->Probe("api.host_us_per_txn",
             rep->committed > 0 ? api_s * 1e6 / rep->committed : 0.0, "us");
}

void PrintSelfTimes(const std::vector<Tracer::Span>& spans) {
  const std::vector<int64_t> child_ns = ChildNs(spans);
  struct Row {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    Row& r = rows[spans[i].name];
    ++r.count;
    r.total_ns += spans[i].end_ns - spans[i].start_ns;
    r.self_ns += spans[i].end_ns - spans[i].start_ns - child_ns[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::printf("\nself time per span (last traced repetition):\n");
  std::printf("  %-36s %9s %11s %11s\n", "span", "count", "total s",
              "self s");
  for (const auto& [name, r] : sorted) {
    std::printf("  %-36s %9" PRId64 " %11.4f %11.4f\n", name.c_str(), r.count,
                r.total_ns / 1e9, r.self_ns / 1e9);
  }
}

/// Chrome trace-event format (chrome://tracing, Perfetto): one complete
/// event per span; `args.parent` names the enclosing span's index.
bool WriteChromeTrace(const std::vector<Tracer::Span>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}",
                 i == 0 ? "" : ",\n", Quote(s.name).c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

const Metric* Find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wattbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out DIR]\n");
    return 2;
  }
  WorkloadFn fn = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) fn = w.fn;
  }
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:",
                 args.workload.c_str());
    for (const WorkloadSpec& w : kWorkloads) {
      std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  // The chaos scenarios warn about every refused restart; writing those
  // lines is host work the measurement should not include.
  SetLogLevel(LogLevel::kError);

  // --- Repetitions -----------------------------------------------------
  Tracer tracer;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::vector<Tracer::Span> last_trace;
  const auto start = HostClock::now();
  for (int i = 0; i < kMaxReps; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    tracer.Clear();
    tracer.set_enabled(trace_this);
    const auto r0 = HostClock::now();
    Rep rep = fn(args.seed, &tracer);
    const double rep_s = SecondsSince(r0);
    tracer.set_enabled(false);
    const bool failed = !rep.failures.empty();
    if (trace_this) {
      AddSpanMetrics(tracer.spans(), &rep);
      last_trace = tracer.spans();
      traced.push_back(std::move(rep));
    } else {
      plain.push_back(std::move(rep));
    }
    std::fprintf(stderr, "[wattbench] %s seed %" PRIu64 " rep %d%s: %.2f s\n",
                 args.workload.c_str(), args.seed, i,
                 trace_this ? " (traced)" : "", rep_s);
    if (failed) break;
    const bool enough =
        args.trace ? plain.size() >= 2 && traced.size() >= 2
                   : static_cast<int>(plain.size()) >= kMinReps;
    const double elapsed = SecondsSince(start);
    if (enough && (elapsed >= args.seconds ||
                   elapsed + rep_s > kBudgetSeconds)) {
      break;
    }
  }

  // --- Checks ----------------------------------------------------------
  std::vector<std::string> failures;
  const Rep& base = plain.front();
  const uint64_t fingerprint = Fingerprint(base);
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      for (const std::string& f : r.failures) failures.push_back(f);
      if (Fingerprint(r) != fingerprint) {
        failures.push_back(
            "modeled values differ between repetitions of one seed");
      }
    }
  }
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()),
                 failures.end());

  // --- Aggregation -----------------------------------------------------
  std::vector<double> setup_s, run_s, traced_run_s;
  for (const Rep& r : plain) {
    setup_s.push_back(r.setup_s);
    run_s.push_back(r.run_s);
  }
  for (const Rep& r : traced) traced_run_s.push_back(r.run_s);
  const std::vector<Metric> host = {
      {"host_run_s", Median(run_s), "s", Kind::kHost},
      {"setup_s", Median(setup_s), "s", Kind::kHost},
      {"peak_rss_mb", PeakRssMb(), "MB", Kind::kHost},
  };

  auto value_of = [&](const MetricSpec& spec, bool* found) -> Metric {
    *found = true;
    if (const Metric* m = Find(base.modeled, spec.name)) return *m;
    if (const Metric* m = Find(host, spec.name)) return *m;
    if (std::strcmp(spec.name, "trace.overhead_share") == 0 &&
        !traced.empty()) {
      return {spec.name, Median(traced_run_s) / Median(run_s) - 1, spec.unit,
              Kind::kHost};
    }
    std::vector<double> samples;
    for (const Rep& r : traced) {
      if (const Metric* m = Find(r.probes, spec.name)) {
        samples.push_back(m->value);
      }
    }
    if (!samples.empty()) {
      return {spec.name, Median(samples), spec.unit, Kind::kHost};
    }
    *found = false;
    return {spec.name, 0.0, spec.unit, Kind::kAbsent};
  };

  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  for (const MetricSpec& spec : kEndToEnd) {
    bool found = false;
    e2e.push_back(value_of(spec, &found));
    if (!found) failures.push_back(std::string("no value for ") + spec.name);
  }
  for (const MetricSpec& spec : kPerLayer) {
    bool found = false;
    Metric m = value_of(spec, &found);
    // Host probes exist only in traced runs; other absent layers read 0.
    if (found || args.trace) layers.push_back(m);
  }
  for (const std::vector<Metric>* list : {&e2e, &layers}) {
    for (const Metric& m : *list) {
      if (!std::isfinite(m.value)) {
        failures.push_back("non-finite value for " + m.name);
      }
    }
  }
  const bool correct = failures.empty();

  // --- Report ----------------------------------------------------------
  std::printf("wattbench %s seed %" PRIu64 ": %zu repetition(s)%s\n",
              args.workload.c_str(), args.seed, plain.size() + traced.size(),
              args.trace ? ", alternating untraced/traced" : "");
  for (const std::vector<Metric>* list : {&e2e, &layers}) {
    for (const Metric& m : *list) {
      std::printf("  %-36s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), KindName(m.kind));
    }
  }
  for (const std::string& note : base.notes) std::printf("%s\n", note.c_str());
  std::printf("model fingerprint %s\n", Hex(fingerprint).c_str());
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (args.trace) PrintSelfTimes(last_trace);

  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
    return out + "]";
  };
  std::string json = "{\"workload\": " + Quote(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"traced\": " + (args.trace ? "true" : "false") +
                     ", \"fingerprint\": \"" + Hex(fingerprint) +
                     "\", \"correct\": " + (correct ? "true" : "false") +
                     ", \"host_run_s_reps\": " + list(run_s) +
                     ", \"setup_s_reps\": " + list(setup_s) +
                     ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    json += (i ? ", " : "") + Quote(failures[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const std::vector<Metric>* list : {&e2e, &layers}) {
    for (const Metric& m : *list) {
      json += (first ? "" : ", ") + MetricJson(m, /*with_kind=*/true);
      first = false;
    }
  }
  json += "}}\n";
  const std::string path = args.out + "/" + args.workload + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  if (args.trace) {
    const std::string trace_path =
        args.out + "/TRACE_" + args.workload + ".json";
    if (!WriteChromeTrace(last_trace, trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }

  // The result line: end-to-end metrics untraced, per-layer traced.
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(base.attempted) +
                     ", \"failed\": " + std::to_string(base.failed) +
                     ", \"metrics\": {";
  const std::vector<Metric>& shown = args.trace ? layers : e2e;
  for (size_t i = 0; i < shown.size(); ++i) {
    line += (i ? ", " : "") + MetricJson(shown[i], /*with_kind=*/false);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wattdb::wattbench

int main(int argc, char** argv) {
  return wattdb::wattbench::Main(argc, argv);
}
