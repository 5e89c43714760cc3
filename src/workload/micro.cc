#include "workload/micro.h"

#include "cluster/routed_ops.h"
#include "workload/tpcc_schema.h"

namespace wattdb::workload {

namespace {
/// Point reads (and, for updaters, updates) per transaction.
constexpr int kOpsPerTxn = 4;
}  // namespace

MicroWorkload::MicroWorkload(TpccDatabase* db, MicroConfig config)
    : WorkloadDriver(&db->cluster()->events(), config.num_clients,
                     config.seed * 31337, config.think_time),
      db_(db),
      update_ratio_(config.update_ratio) {}

Key MicroWorkload::RandomCustomerKey(Rng* rng) const {
  const int64_t w = rng->UniformInt(1, db_->warehouses());
  const int64_t d = rng->UniformInt(1, kDistrictsPerWarehouse);
  const int64_t c = rng->UniformInt(1, db_->customers_per_district());
  return TpccKeys::Customer(w, d, c);
}

WorkloadDriver::Attempt MicroWorkload::RunAttempt(int /*client*/,
                                                  Rng* rng) {
  cluster::Cluster* c = db_->cluster();
  const bool updater = rng->UniformDouble() < update_ratio_;
  tx::Txn* txn = c->BeginTxn(!updater);
  const TableId customer = db_->table(TpccTable::kCustomer);

  Status status;
  for (int op = 0; op < kOpsPerTxn && status.ok(); ++op) {
    const Key key = RandomCustomerKey(rng);
    storage::Record rec;
    // Routed ops charge one client hop per read AND per update (the
    // historical hand-rolled loop let updates ride the read's hop), so
    // update-heavy mixes pay more simulated network time than older
    // Fig. 3 outputs.
    status = cluster::RoutedRead(c, txn, customer, key, &rec);
    if (status.ok() && updater) {
      PutF64(&rec.payload, CustomerFields::kBalance,
             GetF64(rec.payload, CustomerFields::kBalance) + 1.0);
      status = cluster::RoutedWrite(c, txn, customer, key,
                                    cluster::WriteOp::kUpdate, rec.payload);
    }
  }

  Attempt a;
  if (status.ok()) {
    c->CommitTxn(c->master(), txn);
    a.committed = true;
    a.latency = txn->Elapsed();
  } else {
    c->AbortTxn(txn);
    a.shed = status.IsResourceExhausted();
  }
  a.completed_at = txn->now;
  c->tm().Release(txn->id);
  return a;
}

}  // namespace wattdb::workload
