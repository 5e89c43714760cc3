#include "workload/tpcc_loader.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::workload {

TpccDatabase::TpccDatabase(cluster::Cluster* cluster,
                           const TpccLoadConfig& config)
    : cluster_(cluster), config_(config), rng_(config.seed) {
  WATTDB_CHECK(config_.warehouses >= 1);
  WATTDB_CHECK(!config_.home_nodes.empty());
  const size_t districts =
      static_cast<size_t>(config_.warehouses) * kDistrictsPerWarehouse;
  const int64_t orders = std::max<int64_t>(
      1, static_cast<int64_t>(kInitialOrdersPerDistrict * config_.fill));
  const int64_t new_orders = std::max<int64_t>(
      1, static_cast<int64_t>(kInitialNewOrdersPerDistrict * config_.fill));
  next_oid_.assign(districts, orders + 1);
  oldest_new_order_.assign(districts, std::max<int64_t>(1, orders - new_orders + 1));
  next_history_.assign(districts, 1);
}

std::vector<uint8_t> TpccDatabase::MakePayload(TpccTable t, Rng* rng) const {
  std::vector<uint8_t> p(TpccRecordBytes(t));
  for (auto& b : p) b = static_cast<uint8_t>(rng->Next() & 0xFF);
  switch (t) {
    case TpccTable::kWarehouse:
      PutF64(&p, WarehouseFields::kTax, rng->UniformInt(0, 2000) / 10000.0);
      PutF64(&p, WarehouseFields::kYtd, 300000.0);
      break;
    case TpccTable::kDistrict:
      PutF64(&p, DistrictFields::kTax, rng->UniformInt(0, 2000) / 10000.0);
      PutF64(&p, DistrictFields::kYtd, 30000.0);
      PutI64(&p, DistrictFields::kNextOid, kInitialOrdersPerDistrict + 1);
      break;
    case TpccTable::kCustomer:
      PutF64(&p, CustomerFields::kBalance, -10.0);
      PutF64(&p, CustomerFields::kYtdPayment, 10.0);
      PutI64(&p, CustomerFields::kPaymentCount, 1);
      PutI64(&p, CustomerFields::kDeliveryCount, 0);
      break;
    case TpccTable::kHistory:
      PutF64(&p, 0, 10.0);
      break;
    case TpccTable::kNewOrder:
      PutI64(&p, 0, 1);
      break;
    case TpccTable::kOrders:
      PutI64(&p, OrderFields::kCarrierId, 0);
      PutI64(&p, OrderFields::kOlCount, 10);
      PutI64(&p, OrderFields::kCustomer, rng->UniformInt(1, kCustomersPerDistrict));
      break;
    case TpccTable::kOrderLine:
      PutI64(&p, OrderLineFields::kItem, rng->UniformInt(1, kItems));
      PutI64(&p, OrderLineFields::kQuantity, 5);
      PutF64(&p, OrderLineFields::kAmount, rng->UniformInt(1, 999999) / 100.0);
      PutI64(&p, OrderLineFields::kDeliveryD, 0);
      break;
    case TpccTable::kItem:
      PutF64(&p, ItemFields::kPrice, rng->UniformInt(100, 10000) / 100.0);
      break;
    case TpccTable::kStock:
      PutI64(&p, StockFields::kQuantity, rng->UniformInt(10, 100));
      PutI64(&p, StockFields::kYtd, 0);
      PutI64(&p, StockFields::kOrderCount, 0);
      PutI64(&p, StockFields::kRemoteCount, 0);
      break;
  }
  return p;
}

Status TpccDatabase::Load() {
  auto& cat = cluster_->catalog();
  tables_ = RegisterTpccSchema(&cat);

  // Contiguous warehouse ranges per home node.
  const int homes = static_cast<int>(config_.home_nodes.size());
  const int w_total = config_.warehouses;
  std::vector<std::pair<int64_t, int64_t>> node_ranges;  // [w_lo, w_hi)
  int64_t w_cursor = 1;
  for (int i = 0; i < homes; ++i) {
    const int64_t count = w_total / homes + (i < w_total % homes ? 1 : 0);
    node_ranges.push_back({w_cursor, w_cursor + count});
    w_cursor += count;
  }

  for (int i = 0; i < homes; ++i) {
    const NodeId home = config_.home_nodes[i];
    cluster::Node* node = cluster_->node(home);
    if (node == nullptr || !node->IsActive()) {
      return Status::Unavailable("home node not active");
    }
    const auto [w_lo, w_hi] = node_ranges[i];
    if (w_lo >= w_hi) continue;

    // ITEM has no warehouse dimension: one partition + segment per node,
    // splitting the item-id space evenly.
    {
      catalog::Partition* ipart =
          cat.CreatePartition(table(TpccTable::kItem), home);
      const int64_t per = (kItems + homes) / homes;
      const KeyRange range{
          TpccKeys::Item(1 + i * per),
          TpccKeys::Item(std::min<int64_t>(kItems + 1, 1 + (i + 1) * per))};
      WATTDB_RETURN_IF_ERROR(
          cat.AssignRange(table(TpccTable::kItem), range, ipart->id()));
      auto seg = node->AllocateSegment(cluster_->Now(), ipart, range);
      if (!seg.ok()) return seg.status();
      for (Key k = range.lo; k < range.hi && k <= kItems; ++k) {
        if (k == 0) continue;
        auto pos =
            seg.value()->Insert(k, MakePayload(TpccTable::kItem, &rng_));
        WATTDB_RETURN_IF_ERROR(pos.status());
        ++rows_loaded_;
      }
    }

    // Warehouse-aligned tables: one partition AND one initial segment per
    // (table, warehouse). Warehouse-grained partitions give the migration
    // read lock (§4.3) TPC-C's natural granularity: moving one warehouse's
    // segment only drains that warehouse's writers.
    for (int64_t w = w_lo; w < w_hi; ++w) {
      WATTDB_RETURN_IF_ERROR(LoadWarehouse(w, home));
    }
  }
  WATTDB_INFO("TPC-C loaded: " << rows_loaded_ << " rows, "
                               << cluster_->segments().size() << " segments");
  return Status::OK();
}

Status TpccDatabase::LoadWarehouse(int64_t w, NodeId home) {
  auto& cat = cluster_->catalog();
  cluster::Node* node = cluster_->node(home);
  const SimTime now = cluster_->Now();

  // One partition + one initial segment per (table, warehouse): the
  // partition is the locking/ownership granule, the segment the
  // mini-partition of physiological partitioning. Inserts go through
  // SegmentForInsert, which tail-splits within the warehouse range if a
  // table outgrows 32 MB (STOCK does at full fill).
  catalog::Partition* parts[kNumTpccTables] = {nullptr};
  for (TpccTable t :
       {TpccTable::kWarehouse, TpccTable::kDistrict, TpccTable::kCustomer,
        TpccTable::kHistory, TpccTable::kNewOrder, TpccTable::kOrders,
        TpccTable::kOrderLine, TpccTable::kStock}) {
    catalog::Partition* part = cat.CreatePartition(table(t), home);
    parts[static_cast<int>(t)] = part;
    const KeyRange range = TpccKeys::WarehouseRange(t, w, w + 1);
    WATTDB_RETURN_IF_ERROR(cat.AssignRange(table(t), range, part->id()));
    auto seg = node->AllocateSegment(now, part, range);
    if (!seg.ok()) return seg.status();
  }

  auto insert = [&](TpccTable t, Key key) -> Status {
    catalog::Partition* part = parts[static_cast<int>(t)];
    auto seg = node->SegmentForInsert(now, /*txn=*/nullptr, part, key);
    if (!seg.ok()) return seg.status();
    auto pos = seg.value()->Insert(key, MakePayload(t, &rng_));
    if (!pos.ok()) return pos.status();
    ++rows_loaded_;
    return Status::OK();
  };

  const int64_t customers = std::max<int64_t>(
      1, static_cast<int64_t>(kCustomersPerDistrict * config_.fill));
  const int64_t orders = std::max<int64_t>(
      1, static_cast<int64_t>(kInitialOrdersPerDistrict * config_.fill));
  const int64_t new_orders = std::max<int64_t>(
      1, static_cast<int64_t>(kInitialNewOrdersPerDistrict * config_.fill));
  const int64_t stocks = std::max<int64_t>(
      1, static_cast<int64_t>(kStockPerWarehouse * config_.fill));

  WATTDB_RETURN_IF_ERROR(
      insert(TpccTable::kWarehouse, TpccKeys::Warehouse(w)));
  for (int64_t d = 1; d <= kDistrictsPerWarehouse; ++d) {
    WATTDB_RETURN_IF_ERROR(
        insert(TpccTable::kDistrict, TpccKeys::District(w, d)));
    for (int64_t c = 1; c <= customers; ++c) {
      WATTDB_RETURN_IF_ERROR(
          insert(TpccTable::kCustomer, TpccKeys::Customer(w, d, c)));
    }
  }
  for (int64_t i = 1; i <= stocks; ++i) {
    WATTDB_RETURN_IF_ERROR(insert(TpccTable::kStock, TpccKeys::Stock(w, i)));
  }
  for (int64_t d = 1; d <= kDistrictsPerWarehouse; ++d) {
    for (int64_t o = 1; o <= orders; ++o) {
      WATTDB_RETURN_IF_ERROR(
          insert(TpccTable::kOrders, TpccKeys::Order(w, d, o)));
      const int64_t lines = rng_.UniformInt(5, 15);
      for (int64_t ol = 1; ol <= lines; ++ol) {
        WATTDB_RETURN_IF_ERROR(
            insert(TpccTable::kOrderLine, TpccKeys::OrderLine(w, d, o, ol)));
      }
      if (o > orders - new_orders) {
        WATTDB_RETURN_IF_ERROR(
            insert(TpccTable::kNewOrder, TpccKeys::NewOrder(w, d, o)));
      }
    }
    WATTDB_RETURN_IF_ERROR(
        insert(TpccTable::kHistory, TpccKeys::History(w, d, 0)));
  }
  return Status::OK();
}

}  // namespace wattdb::workload
