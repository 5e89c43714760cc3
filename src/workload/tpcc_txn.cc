#include "workload/tpcc_txn.h"

#include <algorithm>

#include "cluster/routed_ops.h"
#include "common/logging.h"

namespace wattdb::workload {

const char* TpccTxnName(TpccTxnType t) {
  switch (t) {
    case TpccTxnType::kNewOrder:
      return "NewOrder";
    case TpccTxnType::kPayment:
      return "Payment";
    case TpccTxnType::kOrderStatus:
      return "OrderStatus";
    case TpccTxnType::kDelivery:
      return "Delivery";
    case TpccTxnType::kStockLevel:
      return "StockLevel";
  }
  return "?";
}

TpccTxnType TpccMix::Pick(Rng* rng) const {
  const double u = rng->UniformDouble();
  double acc = new_order;
  if (u < acc) return TpccTxnType::kNewOrder;
  acc += payment;
  if (u < acc) return TpccTxnType::kPayment;
  acc += order_status;
  if (u < acc) return TpccTxnType::kOrderStatus;
  acc += delivery;
  if (u < acc) return TpccTxnType::kDelivery;
  return TpccTxnType::kStockLevel;
}

Status TpccRunner::DoRead(tx::Txn* txn, TpccTable table, Key key,
                          storage::Record* out) {
  return cluster::RoutedRead(db_->cluster(), txn, db_->table(table), key, out);
}

Status TpccRunner::DoUpdate(tx::Txn* txn, TpccTable table, Key key,
                            const std::vector<uint8_t>& payload) {
  return cluster::RoutedWrite(db_->cluster(), txn, db_->table(table), key,
                              cluster::WriteOp::kUpdate, payload);
}

Status TpccRunner::DoInsert(tx::Txn* txn, TpccTable table, Key key,
                            const std::vector<uint8_t>& payload) {
  return cluster::RoutedInsert(db_->cluster(), txn, db_->table(table), key,
                               payload);
}

Status TpccRunner::DoDelete(tx::Txn* txn, TpccTable table, Key key) {
  return cluster::RoutedWrite(db_->cluster(), txn, db_->table(table), key,
                              cluster::WriteOp::kDelete);
}

Status TpccRunner::DoScan(tx::Txn* txn, TpccTable table, const KeyRange& range,
                          const std::function<bool(const storage::Record&)>& fn) {
  return cluster::RoutedScan(db_->cluster(), txn, db_->table(table), range, fn);
}

TpccTxnResult TpccRunner::Run(TpccTxnType type, Rng* rng) {
  cluster::Cluster* c = db_->cluster();
  tx::Txn* txn = c->BeginTxn(type == TpccTxnType::kOrderStatus ||
                             type == TpccTxnType::kStockLevel);
  Status s;
  switch (type) {
    case TpccTxnType::kNewOrder:
      s = NewOrder(txn, rng);
      break;
    case TpccTxnType::kPayment:
      s = Payment(txn, rng);
      break;
    case TpccTxnType::kOrderStatus:
      s = OrderStatus(txn, rng);
      break;
    case TpccTxnType::kDelivery:
      s = Delivery(txn, rng);
      break;
    case TpccTxnType::kStockLevel:
      s = StockLevel(txn, rng);
      break;
  }
  TpccTxnResult result;
  result.type = type;
  result.status = s;
  if (s.ok()) {
    c->CommitTxn(c->master(), txn);
    result.committed = true;
  } else {
    ++aborts_;
    c->AbortTxn(txn);
    result.committed = false;
  }
  result.latency_us = txn->Elapsed();
  result.completed_at = txn->now;
  result.profile = *txn;
  c->tm().Release(txn->id);
  return result;
}

Status TpccRunner::NewOrder(tx::Txn* txn, Rng* rng) {
  const int64_t w = rng->UniformInt(1, db_->warehouses());
  const int64_t d = rng->UniformInt(1, kDistrictsPerWarehouse);
  const int64_t c_id = rng->NURand(1023, 1, db_->customers_per_district());

  storage::Record wrec, drec, crec;
  WATTDB_RETURN_IF_ERROR(
      DoRead(txn, TpccTable::kWarehouse, TpccKeys::Warehouse(w), &wrec));
  WATTDB_RETURN_IF_ERROR(
      DoRead(txn, TpccTable::kDistrict, TpccKeys::District(w, d), &drec));
  WATTDB_RETURN_IF_ERROR(
      DoRead(txn, TpccTable::kCustomer, TpccKeys::Customer(w, d, c_id), &crec));

  // Allocate the order id. The d_next_o_id update is deferred to the end
  // of the transaction so the X lock on the hot DISTRICT row is held as
  // briefly as possible (order ids are handed out by the owning node).
  const int64_t o_id = db_->NextOid(w, d);

  const int64_t ol_cnt = rng->UniformInt(5, 15);
  auto order_payload = db_->MakePayload(TpccTable::kOrders, rng);
  PutI64(&order_payload, OrderFields::kOlCount, ol_cnt);
  PutI64(&order_payload, OrderFields::kCustomer, c_id);
  PutI64(&order_payload, OrderFields::kCarrierId, 0);
  WATTDB_RETURN_IF_ERROR(DoInsert(txn, TpccTable::kOrders,
                                  TpccKeys::Order(w, d, o_id), order_payload));
  WATTDB_RETURN_IF_ERROR(
      DoInsert(txn, TpccTable::kNewOrder, TpccKeys::NewOrder(w, d, o_id),
               db_->MakePayload(TpccTable::kNewOrder, rng)));

  for (int64_t ol = 1; ol <= ol_cnt; ++ol) {
    // Clause 2.4.1.5: 1% of NewOrders reference an unused item id and must
    // roll back.
    const bool bad_item = rng->UniformInt(1, 100) == 1 && ol == ol_cnt;
    const int64_t i_id =
        bad_item ? kItems + 7 : rng->NURand(8191, 1, kItems);
    // 1% of order lines reference a remote warehouse (clause 2.4.1.5).
    int64_t supply_w = w;
    if (db_->warehouses() > 1 && rng->UniformInt(1, 100) == 1) {
      do {
        supply_w = rng->UniformInt(1, db_->warehouses());
      } while (supply_w == w);
    }
    storage::Record item, stock;
    const Status item_status =
        DoRead(txn, TpccTable::kItem, TpccKeys::Item(i_id), &item);
    if (!item_status.ok()) {
      // Unused item id: TPC-C specifies a 1% intentional abort; emulate by
      // aborting when the item lookup fails.
      return Status::Aborted("invalid item");
    }
    // Fold the item id into the materialized stock range (fill < 1) without
    // collapsing the tail onto one hot record.
    const int64_t s_i = (i_id - 1) % db_->stock_per_warehouse() + 1;
    WATTDB_RETURN_IF_ERROR(
        DoRead(txn, TpccTable::kStock, TpccKeys::Stock(supply_w, s_i), &stock));
    int64_t qty = GetI64(stock.payload, StockFields::kQuantity);
    qty = qty > 10 ? qty - 5 : qty + 91;
    PutI64(&stock.payload, StockFields::kQuantity, qty);
    PutI64(&stock.payload, StockFields::kYtd,
           GetI64(stock.payload, StockFields::kYtd) + 5);
    WATTDB_RETURN_IF_ERROR(DoUpdate(txn, TpccTable::kStock,
                                    TpccKeys::Stock(supply_w, s_i),
                                    stock.payload));
    auto ol_payload = db_->MakePayload(TpccTable::kOrderLine, rng);
    PutI64(&ol_payload, OrderLineFields::kItem, i_id);
    WATTDB_RETURN_IF_ERROR(DoInsert(txn, TpccTable::kOrderLine,
                                    TpccKeys::OrderLine(w, d, o_id, ol),
                                    ol_payload));
  }
  // Hot-row update last (see above).
  PutI64(&drec.payload, DistrictFields::kNextOid, o_id + 1);
  WATTDB_RETURN_IF_ERROR(DoUpdate(txn, TpccTable::kDistrict,
                                  TpccKeys::District(w, d), drec.payload));
  return Status::OK();
}

Status TpccRunner::Payment(tx::Txn* txn, Rng* rng) {
  const int64_t w = rng->UniformInt(1, db_->warehouses());
  const int64_t d = rng->UniformInt(1, kDistrictsPerWarehouse);
  // 15% of payments are for a customer of a remote warehouse.
  int64_t c_w = w, c_d = d;
  if (db_->warehouses() > 1 && rng->UniformInt(1, 100) <= 15) {
    do {
      c_w = rng->UniformInt(1, db_->warehouses());
    } while (c_w == w);
    c_d = rng->UniformInt(1, kDistrictsPerWarehouse);
  }
  const int64_t c_id = rng->NURand(1023, 1, db_->customers_per_district());
  const double amount = rng->UniformInt(100, 500000) / 100.0;

  // Reads first, hot-row updates last: WAREHOUSE is the classic TPC-C
  // contention point, so its X lock is taken as late as possible.
  storage::Record wrec, drec, crec;
  WATTDB_RETURN_IF_ERROR(
      DoRead(txn, TpccTable::kWarehouse, TpccKeys::Warehouse(w), &wrec));
  WATTDB_RETURN_IF_ERROR(
      DoRead(txn, TpccTable::kDistrict, TpccKeys::District(w, d), &drec));
  WATTDB_RETURN_IF_ERROR(DoRead(txn, TpccTable::kCustomer,
                                TpccKeys::Customer(c_w, c_d, c_id), &crec));

  PutF64(&crec.payload, CustomerFields::kBalance,
         GetF64(crec.payload, CustomerFields::kBalance) - amount);
  PutF64(&crec.payload, CustomerFields::kYtdPayment,
         GetF64(crec.payload, CustomerFields::kYtdPayment) + amount);
  PutI64(&crec.payload, CustomerFields::kPaymentCount,
         GetI64(crec.payload, CustomerFields::kPaymentCount) + 1);
  WATTDB_RETURN_IF_ERROR(DoUpdate(txn, TpccTable::kCustomer,
                                  TpccKeys::Customer(c_w, c_d, c_id),
                                  crec.payload));

  auto h = db_->MakePayload(TpccTable::kHistory, rng);
  PutF64(&h, 0, amount);
  WATTDB_RETURN_IF_ERROR(
      DoInsert(txn, TpccTable::kHistory,
               TpccKeys::History(w, d, db_->NextHistorySeq(w, d)), h));

  PutF64(&drec.payload, DistrictFields::kYtd,
         GetF64(drec.payload, DistrictFields::kYtd) + amount);
  WATTDB_RETURN_IF_ERROR(DoUpdate(txn, TpccTable::kDistrict,
                                  TpccKeys::District(w, d), drec.payload));

  PutF64(&wrec.payload, WarehouseFields::kYtd,
         GetF64(wrec.payload, WarehouseFields::kYtd) + amount);
  return DoUpdate(txn, TpccTable::kWarehouse, TpccKeys::Warehouse(w),
                  wrec.payload);
}

Status TpccRunner::OrderStatus(tx::Txn* txn, Rng* rng) {
  const int64_t w = rng->UniformInt(1, db_->warehouses());
  const int64_t d = rng->UniformInt(1, kDistrictsPerWarehouse);
  const int64_t c_id = rng->NURand(1023, 1, db_->customers_per_district());

  storage::Record crec;
  WATTDB_RETURN_IF_ERROR(DoRead(txn, TpccTable::kCustomer,
                                TpccKeys::Customer(w, d, c_id), &crec));
  // Most recent order of the district (the paper's single-run adaptation:
  // scan the tail of the order range).
  const int64_t newest = db_->PeekNextOid(w, d) - 1;
  const int64_t from = std::max<int64_t>(1, newest - 5);
  int64_t found_oid = -1;
  WATTDB_RETURN_IF_ERROR(DoScan(
      txn, TpccTable::kOrders,
      KeyRange{TpccKeys::Order(w, d, from), TpccKeys::Order(w, d, newest + 1)},
      [&](const storage::Record& r) {
        found_oid = static_cast<int64_t>(r.key & ((1 << 24) - 1));
        return true;
      }));
  if (found_oid < 0) return Status::OK();  // District drained; still valid.
  // Read its order lines.
  return DoScan(txn, TpccTable::kOrderLine,
                KeyRange{TpccKeys::OrderLine(w, d, found_oid, 0),
                         TpccKeys::OrderLine(w, d, found_oid + 1, 0)},
                [](const storage::Record&) { return true; });
}

Status TpccRunner::Delivery(tx::Txn* txn, Rng* rng) {
  const int64_t w = rng->UniformInt(1, db_->warehouses());
  const int64_t carrier = rng->UniformInt(1, 10);
  // The paper's single-run form: deliver the oldest new-order of each
  // district of the warehouse.
  for (int64_t d = 1; d <= kDistrictsPerWarehouse; ++d) {
    int64_t& cursor = db_->OldestNewOrder(w, d);
    const int64_t newest = db_->PeekNextOid(w, d) - 1;
    if (cursor > newest) continue;
    // Find the oldest undelivered order at/after the cursor.
    int64_t o_id = -1;
    WATTDB_RETURN_IF_ERROR(
        DoScan(txn, TpccTable::kNewOrder,
               KeyRange{TpccKeys::NewOrder(w, d, cursor),
                        TpccKeys::NewOrder(w, d, newest + 1)},
               [&](const storage::Record& r) {
                 o_id = static_cast<int64_t>(r.key & ((1 << 24) - 1));
                 return false;  // Oldest only.
               }));
    if (o_id < 0) continue;
    cursor = o_id + 1;
    WATTDB_RETURN_IF_ERROR(
        DoDelete(txn, TpccTable::kNewOrder, TpccKeys::NewOrder(w, d, o_id)));
    storage::Record order;
    WATTDB_RETURN_IF_ERROR(
        DoRead(txn, TpccTable::kOrders, TpccKeys::Order(w, d, o_id), &order));
    PutI64(&order.payload, OrderFields::kCarrierId, carrier);
    WATTDB_RETURN_IF_ERROR(DoUpdate(txn, TpccTable::kOrders,
                                    TpccKeys::Order(w, d, o_id),
                                    order.payload));
    const int64_t c_id = GetI64(order.payload, OrderFields::kCustomer);
    // Sum the order lines' amounts and stamp delivery dates.
    double total = 0.0;
    std::vector<storage::Record> lines;
    WATTDB_RETURN_IF_ERROR(
        DoScan(txn, TpccTable::kOrderLine,
               KeyRange{TpccKeys::OrderLine(w, d, o_id, 0),
                        TpccKeys::OrderLine(w, d, o_id + 1, 0)},
               [&](const storage::Record& r) {
                 lines.push_back(r);
                 return true;
               }));
    for (auto& line : lines) {
      total += GetF64(line.payload, OrderLineFields::kAmount);
      PutI64(&line.payload, OrderLineFields::kDeliveryD, 1);
      WATTDB_RETURN_IF_ERROR(
          DoUpdate(txn, TpccTable::kOrderLine, line.key, line.payload));
    }
    storage::Record crec;
    const int64_t cc =
        std::min<int64_t>(std::max<int64_t>(1, c_id),
                          db_->customers_per_district());
    WATTDB_RETURN_IF_ERROR(DoRead(txn, TpccTable::kCustomer,
                                  TpccKeys::Customer(w, d, cc), &crec));
    PutF64(&crec.payload, CustomerFields::kBalance,
           GetF64(crec.payload, CustomerFields::kBalance) + total);
    PutI64(&crec.payload, CustomerFields::kDeliveryCount,
           GetI64(crec.payload, CustomerFields::kDeliveryCount) + 1);
    WATTDB_RETURN_IF_ERROR(DoUpdate(txn, TpccTable::kCustomer,
                                    TpccKeys::Customer(w, d, cc),
                                    crec.payload));
  }
  return Status::OK();
}

Status TpccRunner::StockLevel(tx::Txn* txn, Rng* rng) {
  const int64_t w = rng->UniformInt(1, db_->warehouses());
  const int64_t d = rng->UniformInt(1, kDistrictsPerWarehouse);
  const int64_t threshold = rng->UniformInt(10, 20);
  const int64_t newest = db_->PeekNextOid(w, d) - 1;
  const int64_t from = std::max<int64_t>(1, newest - 19);

  // Items of the last 20 orders' lines.
  std::vector<int64_t> items;
  WATTDB_RETURN_IF_ERROR(
      DoScan(txn, TpccTable::kOrderLine,
             KeyRange{TpccKeys::OrderLine(w, d, from, 0),
                      TpccKeys::OrderLine(w, d, newest + 1, 0)},
             [&](const storage::Record& r) {
               items.push_back(GetI64(r.payload, OrderLineFields::kItem));
               return true;
             }));
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  // Cap the stock probes: the paper runs a reduced single-run variant.
  if (items.size() > 64) items.resize(64);
  int64_t low = 0;
  for (int64_t i : items) {
    storage::Record stock;
    const int64_t s_i = (i - 1) % db_->stock_per_warehouse() + 1;
    const Status s =
        DoRead(txn, TpccTable::kStock, TpccKeys::Stock(w, s_i), &stock);
    if (!s.ok()) continue;
    if (GetI64(stock.payload, StockFields::kQuantity) < threshold) ++low;
  }
  (void)low;
  return Status::OK();
}

}  // namespace wattdb::workload
