#ifndef WATTDB_WORKLOAD_CLIENT_H_
#define WATTDB_WORKLOAD_CLIENT_H_

#include "metrics/breakdown.h"
#include "metrics/time_series.h"
#include "workload/driver.h"
#include "workload/tpcc_txn.h"

namespace wattdb::workload {

/// Closed-loop OLTP client pool (§5.1 "Workload mix"): each client submits
/// one query, waits for the answer, then thinks for an exponentially
/// distributed interval before the next query. Throughput is therefore
/// limited at the client side — the experiments measure the DBMS's fitness
/// to keep latency acceptable at a *given* load, not peak tpmC.
struct ClientPoolConfig {
  int num_clients = 50;
  /// Mean think time between a completion and the next submission.
  SimTime think_time = 100 * kUsPerMs;
  uint64_t seed = 1234;
};

/// Each attempt draws a transaction type from the standard TpccMix. The
/// pool never retries: a transaction shed by admission control counts as
/// aborted (and dropped).
class ClientPool : public WorkloadDriver {
 public:
  ClientPool(TpccDatabase* db, ClientPoolConfig config);

  std::string name() const override { return "tpcc"; }

  /// Attach sinks: completions are recorded into `series` (may be null) and
  /// component times into `breakdown` (may be null; switched atomically so
  /// benches can segment phases).
  void set_series(metrics::TimeSeries* series) { series_ = series; }
  void set_breakdown(metrics::TimeBreakdown* bd) { breakdown_ = bd; }

  /// TPC-C transactions are not register ops, so the pool records whole-
  /// transaction OpKind::kTxn markers only: the linearizability checker
  /// skips them, but they situate a violation's surroundings in dumps of
  /// mixed-workload histories.
  void set_history(chaos::HistoryRecorder* history) override {
    history_ = history;
  }

 private:
  Attempt RunAttempt(int client, Rng* rng) override;

  TpccRunner runner_;
  TpccMix mix_;

  metrics::TimeSeries* series_ = nullptr;
  metrics::TimeBreakdown* breakdown_ = nullptr;
  chaos::HistoryRecorder* history_ = nullptr;
};

}  // namespace wattdb::workload

#endif  // WATTDB_WORKLOAD_CLIENT_H_
