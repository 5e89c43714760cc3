// Shared declarations of wattbench: metric records, the in-memory span
// tracer, and the per-repetition result every workload returns.
//
// Two kinds of numbers come out of a run:
//  * modeled — simulated time, watts, counts. Deterministic in the seed, so
//    every repetition of a run must reproduce them bit for bit; they feed
//    the model fingerprint.
//  * host — wall-clock and memory of the simulator itself (steady_clock,
//    getrusage). These vary run to run and are reported as medians.
#ifndef WATTBENCH_WATTBENCH_H_
#define WATTBENCH_WATTBENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wattdb::wattbench {

using HostClock = std::chrono::steady_clock;

inline double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/// Lower median (0 for no samples).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

/// kAbsent marks a layer the workload does not exercise (reported as 0).
enum class Kind { kModeled, kHost, kAbsent };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  Kind kind = Kind::kModeled;
};

/// Spans recorded around the bench's own calls into the engine: a name, a
/// start, an end, and the enclosing span. Off (every call a no-op) unless
/// the run was started with --trace.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  ///< Index into spans(), -1 for a root.
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int Begin(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int idx) {
    spans_[idx].end_ns = NowNs();
    stack_.pop_back();
  }
  void Clear() {
    spans_.clear();
    stack_.clear();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               HostClock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  HostClock::time_point origin_ = HostClock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; free when tracing is off.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer),
        idx_(tracer != nullptr && tracer->enabled() ? tracer->Begin(name)
                                                    : -1) {}
  ~Scope() {
    if (idx_ >= 0) tracer_->End(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int idx_;
};

/// What one repetition of a workload produced.
struct Rep {
  /// Deterministic values, in a fixed order (the fingerprint hashes them).
  std::vector<Metric> modeled;
  /// Host timings of a traced repetition: the probes (const calls that
  /// leave the model untouched) and the span-derived costs.
  std::vector<Metric> probes;
  double setup_s = 0;  ///< Db::Open + data load.
  double run_s = 0;    ///< Measured phases (after set-up, before checks).
  /// Output and intent checks that failed, one line each.
  std::vector<std::string> failures;
  /// Human-readable detail printed once per run (e.g. the ramp's steps).
  std::vector<std::string> notes;
  int64_t attempted = 0;  ///< Operations the workload issued.
  int64_t failed = 0;     ///< Operations that ended in an unexpected error.
  /// Committed transactions, the base of the per-txn host costs.
  int64_t committed = 0;
  /// Digest of the checked final state (folded into the fingerprint).
  uint64_t state_digest = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    modeled.push_back(Metric{name, value, unit, Kind::kModeled});
  }
  void Probe(const std::string& name, double value, const std::string& unit) {
    probes.push_back(Metric{name, value, unit, Kind::kHost});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

using WorkloadFn = Rep (*)(uint64_t seed, Tracer* tracer);

/// The four workloads (workloads.cc).
Rep RunKvSkewRebalance(uint64_t seed, Tracer* tracer);
Rep RunKvRwRamp(uint64_t seed, Tracer* tracer);
Rep RunTpccScaleout(uint64_t seed, Tracer* tracer);
Rep RunChaosHistory(uint64_t seed, Tracer* tracer);

}  // namespace wattdb::wattbench

#endif  // WATTBENCH_WATTBENCH_H_
