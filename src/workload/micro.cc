#include "workload/micro.h"

#include "cluster/routed_ops.h"
#include "common/logging.h"
#include "workload/tpcc_schema.h"

namespace wattdb::workload {

MicroWorkload::MicroWorkload(TpccDatabase* db, MicroConfig config)
    : db_(db), config_(config) {
  for (int i = 0; i < config_.num_clients; ++i) {
    rngs_.push_back(std::make_unique<Rng>(config_.seed * 31337 + i));
  }
}

void MicroWorkload::Start() {
  if (running_) return;
  running_ = true;
  auto& events = db_->cluster()->events();
  for (int i = 0; i < config_.num_clients; ++i) {
    const SimTime offset = static_cast<SimTime>(
        rngs_[i]->UniformDouble() * static_cast<double>(config_.think_time));
    events.ScheduleAfter(offset, [this, i]() { ClientLoop(i); });
  }
}

Key MicroWorkload::RandomCustomerKey(Rng* rng) const {
  const int64_t w = rng->UniformInt(1, db_->warehouses());
  const int64_t d = rng->UniformInt(1, kDistrictsPerWarehouse);
  const int64_t c = rng->UniformInt(1, db_->customers_per_district());
  return TpccKeys::Customer(w, d, c);
}

void MicroWorkload::ClientLoop(int idx) {
  if (!running_) return;
  Rng* rng = rngs_[idx].get();
  cluster::Cluster* c = db_->cluster();
  const bool updater = rng->UniformDouble() < config_.update_ratio;
  tx::Txn* txn = c->BeginTxn(!updater);
  const TableId customer = db_->table(TpccTable::kCustomer);

  Status status;
  for (int op = 0; op < config_.ops_per_txn && status.ok(); ++op) {
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

  SimTime completed_at;
  if (status.ok()) {
    c->CommitTxn(c->master(), txn);
    ++committed_;
    latencies_.Add(static_cast<double>(txn->Elapsed()));
  } else {
    c->AbortTxn(txn);
    ++aborted_;
  }
  completed_at = txn->now;
  c->tm().Release(txn->id);

  const SimTime think = static_cast<SimTime>(
      rng->Exponential(static_cast<double>(config_.think_time)));
  c->events().ScheduleAt(completed_at + think,
                         [this, idx]() { ClientLoop(idx); });
}

}  // namespace wattdb::workload
