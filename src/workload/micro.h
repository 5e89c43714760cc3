#ifndef WATTDB_WORKLOAD_MICRO_H_
#define WATTDB_WORKLOAD_MICRO_H_

#include "workload/driver.h"
#include "workload/tpcc_loader.h"

namespace wattdb::workload {

/// Micro-benchmark driver for the Fig. 3 experiment (§3.5): a pool of
/// clients issuing short transactions against the CUSTOMER table, each
/// either read-only (point reads) or write-intensive (point updates),
/// with a configurable update-transaction percentage — while a partition
/// is concurrently being moved.
struct MicroConfig {
  int num_clients = 20;
  SimTime think_time = 20 * kUsPerMs;
  /// Fraction of transactions that are updaters (the Fig. 3 x-axis).
  double update_ratio = 0.5;
  uint64_t seed = 99;
};

class MicroWorkload : public WorkloadDriver {
 public:
  MicroWorkload(TpccDatabase* db, MicroConfig config);

  std::string name() const override { return "micro"; }

 private:
  Attempt RunAttempt(int client, Rng* rng) override;
  Key RandomCustomerKey(Rng* rng) const;

  TpccDatabase* db_;
  double update_ratio_;
};

}  // namespace wattdb::workload

#endif  // WATTDB_WORKLOAD_MICRO_H_
