#ifndef WATTDB_WORKLOAD_DRIVER_H_
#define WATTDB_WORKLOAD_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "sim/event_queue.h"

namespace wattdb::chaos {
class HistoryRecorder;
}  // namespace wattdb::chaos

namespace wattdb::workload {

/// The client loop every workload generator (TPC-C client pool, Fig. 3
/// micro read/update mix, YCSB-style KV, ...) runs on (§5.1): each client
/// submits one transaction, waits for the answer, then thinks for an
/// exponentially distributed interval before the next one. The loop owns
/// the per-client Rng streams, the staggered first arrival, the think-time
/// reschedule, the jittered shed-retry backoff, the optional open-loop
/// Poisson arrival process and the books; a concrete driver supplies only
/// RunAttempt(), the body of one transaction attempt.
///
/// Every loop event runs on the cluster's simulated event queue. Per
/// client, the Rng draws come in a fixed order — the stagger, then the
/// body's, then the backoff or the think time — so a seed replays bit for
/// bit. `Db::AttachWorkload` owns drivers through this class, so benches
/// and scenario scripts can mix workloads without knowing their types.
class WorkloadDriver {
 public:
  virtual ~WorkloadDriver() = default;

  /// Short stable identifier ("tpcc", "micro", "kv", ...).
  virtual std::string name() const = 0;

  /// Attach a chaos-harness history recorder. Drivers that support
  /// per-operation history recording (see chaos/history.h) log every
  /// invocation/response through it; the default is a no-op so workloads
  /// without op-level observability stay untouched.
  virtual void set_history(chaos::HistoryRecorder*) {}

  /// Begin issuing transactions now; clients run until Stop(). Idempotent.
  void Start();
  /// Let in-flight loops drain: scheduled client events find the driver
  /// stopped and end there.
  void Stop() { running_ = false; }

  /// Committed transactions since the last ResetStats().
  int64_t committed() const { return books_.committed; }
  int64_t aborted() const { return books_.aborted; }
  /// Transactions issued — in open-loop mode the offered load, vs.
  /// committed() + aborted() actually finished.
  int64_t issued() const { return books_.issued; }
  /// Attempts refused by admission control (each retry that sheds again
  /// counts again). A shed-then-retried-then-committed transaction counts
  /// here and in committed().
  int64_t shed() const { return books_.shed; }
  /// Backoff retries taken after a shed attempt (<= shed()).
  int64_t retried() const { return books_.retried; }
  /// Transactions finally dropped because a shed attempt had no retries
  /// left — the subset of aborted() caused by admission control.
  int64_t dropped() const { return books_.dropped; }
  /// Scheduled retries abandoned because the driver stopped first; closes
  /// the books: issued == committed + aborted + retry_abandoned once the
  /// event queue drains.
  int64_t retry_abandoned() const { return books_.retry_abandoned; }
  const Histogram& latencies() const { return latencies_; }
  void ResetStats() {
    books_ = Books();
    latencies_.Reset();
  }

 protected:
  /// What one attempt of a client's transaction did.
  struct Attempt {
    SimTime completed_at = 0;
    SimTime latency = 0;
    bool committed = false;
    /// Refused by admission control (ResourceExhausted).
    bool shed = false;
    /// Per-key operations the transaction ran; booked if it committed.
    int64_t key_ops = 0;
    /// Committed within the driver's latency SLO; booked if it committed.
    bool within_slo = false;
    /// Book the attempt at completed_at through the event queue instead of
    /// now. Under saturation the two differ: arrivals keep their offered
    /// rate while completions are capped by the bottleneck node.
    bool book_at_completion = false;
  };

  /// Counters since the last ResetStats().
  struct Books {
    int64_t issued = 0;
    int64_t committed = 0;
    int64_t aborted = 0;
    int64_t shed = 0;
    int64_t retried = 0;
    int64_t dropped = 0;
    int64_t retry_abandoned = 0;
    int64_t key_ops = 0;
    int64_t slo_met = 0;
    int64_t owner_round_trips = 0;
    int64_t straggler_retries = 0;
  };

  /// Client i draws from Rng(stream_seed + i). A shed attempt is retried up
  /// to `shed_retries` times after a backoff of `retry_backoff`, doubled
  /// per attempt and jittered uniformly over 0.5-1.5x; once retries run out
  /// it counts as aborted. `arrival_qps` > 0 replaces the closed loop by
  /// one Poisson arrival process at that rate, drawing from client 0.
  WorkloadDriver(sim::EventQueue* events, int num_clients,
                 uint64_t stream_seed, SimTime think_time,
                 int shed_retries = 0, SimTime retry_backoff = 0,
                 double arrival_qps = 0.0);

  /// Runs one attempt of `client`'s transaction, drawing from `rng` (that
  /// client's stream). A shed retry runs the body again.
  virtual Attempt RunAttempt(int client, Rng* rng) = 0;

  Rng* client_rng(int client) const { return rngs_[client].get(); }

  Books books_;

 private:
  /// One attempt of `client`'s current transaction, then its retry or the
  /// next transaction after a think time.
  void Step(int client, int attempt);
  /// Open loop: schedule the next arrival, then issue this one.
  void Arrive();
  void Book(const Attempt& a, bool retry);

  sim::EventQueue* events_;
  std::vector<std::unique_ptr<Rng>> rngs_;
  SimTime think_time_;
  int shed_retries_;
  SimTime retry_backoff_;
  double arrival_qps_;
  bool running_ = false;
  Histogram latencies_;
};

}  // namespace wattdb::workload

#endif  // WATTDB_WORKLOAD_DRIVER_H_
