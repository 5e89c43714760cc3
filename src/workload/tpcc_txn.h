#ifndef WATTDB_WORKLOAD_TPCC_TXN_H_
#define WATTDB_WORKLOAD_TPCC_TXN_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "workload/tpcc_loader.h"

namespace wattdb::workload {

/// The five TPC-C transaction types. As in the paper (§5.1), the queries
/// are adapted to run "in a single run" — no user interaction mid-
/// transaction, no response-time constraints — because the goal is to
/// stress the partitioning schemes, not to report official tpmC.
enum class TpccTxnType {
  kNewOrder = 0,
  kPayment,
  kOrderStatus,
  kDelivery,
  kStockLevel,
};

const char* TpccTxnName(TpccTxnType t);

/// Outcome of one executed transaction.
struct TpccTxnResult {
  TpccTxnType type = TpccTxnType::kNewOrder;
  bool committed = false;
  /// Why an uncommitted transaction aborted (OK when committed) — lets the
  /// pool tell shed work (ResourceExhausted) from real aborts.
  Status status;
  SimTime latency_us = 0;
  SimTime completed_at = 0;
  /// Component times, copied from the Txn before release (Fig. 7).
  tx::Txn profile;
};

/// The standard transaction mix (TPC-C clause 5.2.3 minimums, which the
/// paper's "workload mix" approximates).
struct TpccMix {
  double new_order = 0.45;
  double payment = 0.43;
  double order_status = 0.04;
  double delivery = 0.04;
  double stock_level = 0.04;

  TpccTxnType Pick(Rng* rng) const;
};

/// Executes TPC-C transactions against the cluster through the master's
/// routing layer (the client endpoint, §3.2). Stateless apart from the
/// database handle; safe to share across simulated clients.
class TpccRunner {
 public:
  explicit TpccRunner(TpccDatabase* db) : db_(db) {}

  /// Run one transaction of `type` on a NURand-chosen warehouse/district.
  /// The returned result carries the simulated latency; the Txn has been
  /// committed/aborted and released.
  TpccTxnResult Run(TpccTxnType type, Rng* rng);

  int64_t aborts() const { return aborts_; }

 private:
  Status NewOrder(tx::Txn* txn, Rng* rng);
  Status Payment(tx::Txn* txn, Rng* rng);
  Status OrderStatus(tx::Txn* txn, Rng* rng);
  Status Delivery(tx::Txn* txn, Rng* rng);
  Status StockLevel(tx::Txn* txn, Rng* rng);

  /// Route to the owning partition and run a point read/update/insert on
  /// the owner node, charging the master<->owner hop.
  Status DoRead(tx::Txn* txn, TpccTable table, Key key, storage::Record* out);
  Status DoUpdate(tx::Txn* txn, TpccTable table, Key key,
                  const std::vector<uint8_t>& payload);
  Status DoInsert(tx::Txn* txn, TpccTable table, Key key,
                  const std::vector<uint8_t>& payload);
  Status DoDelete(tx::Txn* txn, TpccTable table, Key key);
  Status DoScan(tx::Txn* txn, TpccTable table, const KeyRange& range,
                const std::function<bool(const storage::Record&)>& fn);

  TpccDatabase* db_;
  int64_t aborts_ = 0;
};

}  // namespace wattdb::workload

#endif  // WATTDB_WORKLOAD_TPCC_TXN_H_
