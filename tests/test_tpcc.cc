// Tests for the TPC-C substrate: key packing, loader cardinalities and
// placement, transaction profiles, and functional consistency invariants.

#include <gtest/gtest.h>

#include <set>

#include "cluster/cluster.h"
#include "workload/client.h"
#include "workload/micro.h"
#include "workload/tpcc_loader.h"
#include "workload/tpcc_txn.h"

namespace wattdb::workload {
namespace {

TEST(TpccKeys, PackingIsInjectiveAndMonotone) {
  std::set<Key> seen;
  for (int64_t w = 1; w <= 3; ++w) {
    for (int64_t d = 1; d <= 10; ++d) {
      EXPECT_TRUE(seen.insert(TpccKeys::District(w, d)).second);
      for (int64_t c = 1; c <= 20; ++c) {
        EXPECT_TRUE(seen.insert(TpccKeys::Customer(w, d, c)).second);
      }
    }
  }
  // Monotone in warehouse: ranges align with warehouses.
  EXPECT_LT(TpccKeys::Customer(1, 10, 3000), TpccKeys::Customer(2, 1, 1));
  EXPECT_LT(TpccKeys::OrderLine(1, 10, 3000, 15), TpccKeys::OrderLine(2, 1, 1, 1));
  EXPECT_LT(TpccKeys::Stock(1, 100000), TpccKeys::Stock(2, 1));
}

TEST(TpccKeys, WarehouseRangeCoversExactlyTheWarehouse) {
  for (TpccTable t : {TpccTable::kDistrict, TpccTable::kCustomer,
                      TpccTable::kOrders, TpccTable::kOrderLine,
                      TpccTable::kStock, TpccTable::kHistory}) {
    const KeyRange r = TpccKeys::WarehouseRange(t, 2, 3);
    SCOPED_TRACE(static_cast<int>(t));
    switch (t) {
      case TpccTable::kDistrict:
        EXPECT_TRUE(r.Contains(TpccKeys::District(2, 1)));
        EXPECT_TRUE(r.Contains(TpccKeys::District(2, 10)));
        EXPECT_FALSE(r.Contains(TpccKeys::District(3, 1)));
        break;
      case TpccTable::kCustomer:
        EXPECT_TRUE(r.Contains(TpccKeys::Customer(2, 1, 1)));
        EXPECT_TRUE(r.Contains(TpccKeys::Customer(2, 10, 3000)));
        EXPECT_FALSE(r.Contains(TpccKeys::Customer(1, 10, 3000)));
        break;
      case TpccTable::kOrders:
        EXPECT_TRUE(r.Contains(TpccKeys::Order(2, 10, 1 << 20)));
        EXPECT_FALSE(r.Contains(TpccKeys::Order(3, 1, 1)));
        break;
      case TpccTable::kOrderLine:
        EXPECT_TRUE(r.Contains(TpccKeys::OrderLine(2, 1, 1, 1)));
        EXPECT_FALSE(r.Contains(TpccKeys::OrderLine(3, 1, 1, 1)));
        break;
      case TpccTable::kStock:
        EXPECT_TRUE(r.Contains(TpccKeys::Stock(2, 100000)));
        EXPECT_FALSE(r.Contains(TpccKeys::Stock(3, 0)));
        break;
      case TpccTable::kHistory:
        EXPECT_TRUE(r.Contains(TpccKeys::History(2, 5, 12345)));
        EXPECT_FALSE(r.Contains(TpccKeys::History(3, 1, 0)));
        break;
      default:
        break;
    }
  }
}

TEST(TpccSchema, FieldCodecsRoundTrip) {
  std::vector<uint8_t> p(64, 0);
  PutI64(&p, 8, -12345);
  PutF64(&p, 16, 3.25);
  EXPECT_EQ(GetI64(p, 8), -12345);
  EXPECT_DOUBLE_EQ(GetF64(p, 16), 3.25);
}

TEST(TpccSchema, RegistersNineTables) {
  catalog::GlobalPartitionTable cat;
  auto ids = RegisterTpccSchema(&cat);
  ASSERT_EQ(ids.size(), static_cast<size_t>(kNumTpccTables));
  EXPECT_EQ(cat.Tables().size(), 9u);
  const auto* customer = cat.GetSchemaByName("customer");
  ASSERT_NE(customer, nullptr);
  EXPECT_EQ(customer->RecordBytes(), kCustomerBytes);
  EXPECT_EQ(cat.GetSchemaByName("stock")->RecordBytes(), kStockBytes);
}

class TpccFixture : public ::testing::Test {
 protected:
  TpccFixture() : cluster_(MakeConfig()), db_(&cluster_, MakeLoad()) {
    WATTDB_CHECK(db_.Load().ok());
  }
  static cluster::ClusterConfig MakeConfig() {
    cluster::ClusterConfig cfg;
    cfg.num_nodes = 2;
    cfg.initially_active = 2;
    cfg.buffer.capacity_pages = 2000;
    return cfg;
  }
  static TpccLoadConfig MakeLoad() {
    TpccLoadConfig load;
    load.warehouses = 2;
    load.fill = 0.05;
    load.home_nodes = {NodeId(0), NodeId(1)};
    return load;
  }

  cluster::Cluster cluster_;
  TpccDatabase db_;
};

TEST_F(TpccFixture, LoaderCardinalities) {
  // items + per-warehouse rows.
  const int64_t customers = db_.customers_per_district();
  const int64_t stock = db_.stock_per_warehouse();
  EXPECT_EQ(customers, 150);
  EXPECT_EQ(stock, 5000);
  EXPECT_GT(db_.rows_loaded(), kItems + 2 * (stock + 10 * customers));
  EXPECT_TRUE(cluster_.catalog().CheckInvariants());
}

TEST_F(TpccFixture, WarehouseGrainedPartitions) {
  // 8 warehouse-aligned tables x 2 warehouses + 2 item partitions = 18.
  size_t total = 0;
  for (TableId t : cluster_.catalog().Tables()) {
    total += cluster_.catalog().PartitionsOf(t).size();
  }
  EXPECT_EQ(total, 18u);
  // Warehouse 1 lives on node 0, warehouse 2 on node 1.
  auto r1 = cluster_.catalog().Route(db_.table(TpccTable::kCustomer),
                                     TpccKeys::Customer(1, 1, 1));
  auto r2 = cluster_.catalog().Route(db_.table(TpccTable::kCustomer),
                                     TpccKeys::Customer(2, 1, 1));
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  EXPECT_EQ(cluster_.catalog().GetPartition(r1->primary)->owner(), NodeId(0));
  EXPECT_EQ(cluster_.catalog().GetPartition(r2->primary)->owner(), NodeId(1));
}

TEST_F(TpccFixture, AllTransactionTypesCommit) {
  TpccRunner runner(&db_);
  Rng rng(5);
  for (auto type : {TpccTxnType::kNewOrder, TpccTxnType::kPayment,
                    TpccTxnType::kOrderStatus, TpccTxnType::kDelivery,
                    TpccTxnType::kStockLevel}) {
    int committed = 0;
    for (int i = 0; i < 10; ++i) {
      auto r = runner.Run(type, &rng);
      if (r.committed) ++committed;
      EXPECT_GT(r.latency_us, 0);
      cluster_.RunUntil(cluster_.Now() + 100 * kUsPerMs);
    }
    EXPECT_GE(committed, 9) << TpccTxnName(type);
  }
}

TEST_F(TpccFixture, NewOrderCreatesOrderRows) {
  TpccRunner runner(&db_);
  Rng rng(5);
  const int64_t before_oid = db_.PeekNextOid(1, 1);
  // Run NewOrders until district (1,1) receives one.
  for (int i = 0; i < 200 && db_.PeekNextOid(1, 1) == before_oid; ++i) {
    runner.Run(TpccTxnType::kNewOrder, &rng);
    cluster_.RunUntil(cluster_.Now() + 10 * kUsPerMs);
  }
  ASSERT_GT(db_.PeekNextOid(1, 1), before_oid);
  // The order + its lines are readable.
  tx::Txn* r = cluster_.BeginTxn(true);
  const Key okey = TpccKeys::Order(1, 1, before_oid);
  catalog::Partition* part =
      cluster_.Route(r, db_.table(TpccTable::kOrders), okey);
  ASSERT_NE(part, nullptr);
  storage::Record rec;
  ASSERT_TRUE(cluster_.node(part->owner())->Read(r, part, okey, &rec).ok());
  const int64_t ol_cnt = GetI64(rec.payload, OrderFields::kOlCount);
  EXPECT_GE(ol_cnt, 5);
  EXPECT_LE(ol_cnt, 15);
  cluster_.tm().Commit(r);
  cluster_.tm().Release(r->id);
}

TEST_F(TpccFixture, PaymentConservesMoney) {
  // Sum of (customer balance decrease) == sum of (warehouse ytd increase).
  TpccRunner runner(&db_);
  Rng rng(7);
  auto warehouse_ytd = [&](int64_t w) {
    tx::Txn* r = cluster_.BeginTxn(true);
    catalog::Partition* part = cluster_.Route(
        r, db_.table(TpccTable::kWarehouse), TpccKeys::Warehouse(w));
    storage::Record rec;
    WATTDB_CHECK(cluster_.node(part->owner())
                     ->Read(r, part, TpccKeys::Warehouse(w), &rec)
                     .ok());
    cluster_.tm().Commit(r);
    cluster_.tm().Release(r->id);
    return GetF64(rec.payload, WarehouseFields::kYtd);
  };
  const double before = warehouse_ytd(1) + warehouse_ytd(2);
  double committed_amounts = 0;
  for (int i = 0; i < 50; ++i) {
    auto res = runner.Run(TpccTxnType::kPayment, &rng);
    cluster_.RunUntil(cluster_.Now() + 20 * kUsPerMs);
    (void)res;
  }
  const double after = warehouse_ytd(1) + warehouse_ytd(2);
  EXPECT_GT(after, before) << "payments must raise warehouse YTD";
  (void)committed_amounts;
}

TEST_F(TpccFixture, DeliveryConsumesNewOrders) {
  TpccRunner runner(&db_);
  Rng rng(11);
  // Count NEW_ORDER rows of warehouse 1 before/after deliveries.
  auto count_new_orders = [&]() {
    tx::Txn* r = cluster_.BeginTxn(true);
    size_t n = 0;
    const KeyRange range = TpccKeys::WarehouseRange(TpccTable::kNewOrder, 1, 2);
    catalog::Partition* part = cluster_.Route(
        r, db_.table(TpccTable::kNewOrder), TpccKeys::NewOrder(1, 1, 106));
    WATTDB_CHECK(part != nullptr);
    WATTDB_CHECK(cluster_.node(part->owner())
                     ->ScanRange(r, part, range,
                                 [&](const storage::Record&) {
                                   ++n;
                                   return true;
                                 })
                     .ok());
    cluster_.tm().Commit(r);
    cluster_.tm().Release(r->id);
    return n;
  };
  const size_t before = count_new_orders();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 12; ++i) {
    runner.Run(TpccTxnType::kDelivery, &rng);
    cluster_.RunUntil(cluster_.Now() + 50 * kUsPerMs);
  }
  EXPECT_LT(count_new_orders(), before);
}

TEST_F(TpccFixture, MixRoughlyMatchesSpec) {
  TpccMix mix;
  Rng rng(3);
  int counts[5] = {0};
  for (int i = 0; i < 20000; ++i) {
    counts[static_cast<int>(mix.Pick(&rng))]++;
  }
  EXPECT_NEAR(counts[0] / 20000.0, 0.45, 0.02);  // NewOrder.
  EXPECT_NEAR(counts[1] / 20000.0, 0.43, 0.02);  // Payment.
  EXPECT_NEAR(counts[4] / 20000.0, 0.04, 0.01);  // StockLevel.
}

TEST_F(TpccFixture, ClientPoolDrivesThroughput) {
  ClientPoolConfig cfg;
  cfg.num_clients = 8;
  cfg.think_time = 30 * kUsPerMs;
  ClientPool pool(&db_, cfg);
  metrics::TimeSeries series(kUsPerSec);
  pool.set_series(&series);
  pool.Start();
  cluster_.RunUntil(cluster_.Now() + 15 * kUsPerSec);
  pool.Stop();
  EXPECT_GT(pool.committed(), 100);
  EXPECT_GT(pool.latencies().count(), 0);
  EXPECT_FALSE(series.buckets().empty());
  // Closed loop: qps bounded by clients/think.
  EXPECT_LT(pool.committed(), 15.0 * cfg.num_clients / 0.030 + 1);
}

TEST_F(TpccFixture, MicroWorkloadReadsAndWrites) {
  MicroConfig cfg;
  cfg.num_clients = 4;
  cfg.update_ratio = 0.5;
  MicroWorkload micro(&db_, cfg);
  micro.Start();
  cluster_.RunUntil(cluster_.Now() + 10 * kUsPerSec);
  micro.Stop();
  EXPECT_GT(micro.committed(), 50);
  EXPECT_EQ(micro.aborted(), 0);
}

TEST(TpccLoader, SingleNodeLoad) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 1;
  cluster::Cluster c(cfg);
  TpccLoadConfig load;
  load.warehouses = 1;
  load.fill = 0.02;
  load.home_nodes = {NodeId(0)};
  TpccDatabase db(&c, load);
  ASSERT_TRUE(db.Load().ok());
  EXPECT_GT(db.rows_loaded(), kItems);
}

TEST(TpccLoader, FailsOnStandbyHomeNode) {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.initially_active = 1;
  cluster::Cluster c(cfg);
  TpccLoadConfig load;
  load.warehouses = 2;
  load.fill = 0.02;
  load.home_nodes = {NodeId(0), NodeId(1)};  // Node 1 is standby.
  TpccDatabase db(&c, load);
  EXPECT_TRUE(db.Load().IsUnavailable());
}

}  // namespace
}  // namespace wattdb::workload
