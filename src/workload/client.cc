#include "workload/client.h"

#include "chaos/history.h"

namespace wattdb::workload {

ClientPool::ClientPool(TpccDatabase* db, ClientPoolConfig config)
    : WorkloadDriver(&db->cluster()->events(), config.num_clients,
                     config.seed * 7919, config.think_time),
      runner_(db) {}

WorkloadDriver::Attempt ClientPool::RunAttempt(int client, Rng* rng) {
  const TpccTxnResult result = runner_.Run(mix_.Pick(rng), rng);
  if (history_ != nullptr) {
    chaos::HistoryOp op;
    op.client = client;
    op.kind = chaos::OpKind::kTxn;
    op.outcome = result.committed ? chaos::OpOutcome::kOk
                                  : chaos::OpOutcome::kFailed;
    op.invoked_at = result.completed_at - result.latency_us;
    op.responded_at = result.completed_at;
    history_->Record(op);
  }
  if (result.committed) {
    if (series_ != nullptr) {
      series_->RecordCompletion(result.completed_at, result.latency_us);
    }
    if (breakdown_ != nullptr) {
      breakdown_->AddTxn(result.profile);
    }
  }
  Attempt a;
  a.completed_at = result.completed_at;
  a.latency = result.latency_us;
  a.committed = result.committed;
  a.shed = result.status.IsResourceExhausted();
  return a;
}

}  // namespace wattdb::workload
