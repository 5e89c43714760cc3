// Property sweep across (scheme × seed × fraction): online repartitioning
// must conserve every record of every table, keep the routing tree
// consistent, and leave all data readable — with a live workload running.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "cluster/cluster.h"
#include "cluster/master.h"
#include "partition/logical.h"
#include "partition/physical.h"
#include "partition/physiological.h"
#include "workload/client.h"
#include "workload/tpcc_loader.h"

namespace wattdb::partition {
namespace {

struct Param {
  const char* scheme;
  uint64_t seed;
  double fraction;
};

class MigrationPropertyTest : public ::testing::TestWithParam<Param> {};

std::unique_ptr<MigrationManagerBase> MakeScheme(cluster::Cluster* c,
                                                 const char* name) {
  MigrationConfig mc;
  mc.logical_batch_records = 512;
  if (std::string(name) == "physical") {
    return std::make_unique<PhysicalPartitioning>(c, mc);
  }
  if (std::string(name) == "logical") {
    return std::make_unique<LogicalPartitioning>(c, mc);
  }
  return std::make_unique<PhysiologicalPartitioning>(c, mc);
}

/// Rows per table, counted via the routing tree (so misrouted ranges or
/// lost segments show up as missing rows).
std::map<uint32_t, size_t> CountByTable(cluster::Cluster* c) {
  std::map<uint32_t, size_t> counts;
  for (TableId t : c->catalog().Tables()) {
    size_t n = 0;
    for (const auto& route : c->catalog().AllRoutes(t)) {
      catalog::Partition* p = c->catalog().GetPartition(route.primary);
      for (const auto& e : p->SegmentsInRange(route.range)) {
        storage::Segment* seg = c->segments().Get(e.segment);
        if (seg == nullptr) continue;
        const Key lo = std::max(route.range.lo, e.range.lo);
        const Key hi = std::min(route.range.hi, e.range.hi);
        n += seg->ScanRange(lo, hi,
                            [](const storage::Record&) { return true; });
      }
    }
    counts[t.value()] = n;
  }
  return counts;
}

TEST_P(MigrationPropertyTest, ConservesRecordsUnderLoad) {
  const Param param = GetParam();
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 5;
  cfg.initially_active = 2;
  cfg.buffer.capacity_pages = 1500;
  cfg.seed = param.seed;
  cluster::Cluster c(cfg);

  workload::TpccLoadConfig load;
  load.warehouses = 2;
  load.fill = 0.04;
  load.home_nodes = {NodeId(0), NodeId(1)};
  load.seed = param.seed;
  workload::TpccDatabase db(&c, load);
  ASSERT_TRUE(db.Load().ok());

  // Read-mostly workload runs throughout (OrderStatus/StockLevel mutate
  // nothing; Payment inserts history rows, NewOrder adds orders — so we
  // only check conservation on tables the mix does not touch: CUSTOMER,
  // STOCK, ITEM, WAREHOUSE, DISTRICT row *counts* stay fixed).
  workload::ClientPoolConfig pool_cfg;
  pool_cfg.num_clients = 10;
  pool_cfg.think_time = 30 * kUsPerMs;
  pool_cfg.seed = param.seed;
  workload::ClientPool pool(&db, pool_cfg);
  pool.Start();
  c.StartSampling(nullptr);
  c.RunUntil(5 * kUsPerSec);

  const auto before = CountByTable(&c);

  auto scheme = MakeScheme(&c, param.scheme);
  cluster::Master master(&c, scheme.get());
  bool done = false;
  ASSERT_TRUE(master
                  .TriggerRebalance({NodeId(2), NodeId(3)}, param.fraction,
                                    [&]() { done = true; })
                  .ok());
  const SimTime deadline = c.Now() + 1200 * kUsPerSec;
  while (!done && c.Now() < deadline) {
    c.RunUntil(c.Now() + kUsPerSec);
  }
  pool.Stop();
  ASSERT_TRUE(done) << param.scheme << " did not finish";
  EXPECT_GT(pool.committed(), 100) << "workload must keep running";

  EXPECT_TRUE(c.catalog().CheckInvariants());
  const auto after = CountByTable(&c);
  for (TableId t : c.catalog().Tables()) {
    const auto* schema = c.catalog().GetSchema(t);
    // Fixed-cardinality tables must be conserved exactly.
    if (schema->name == "customer" || schema->name == "stock" ||
        schema->name == "item" || schema->name == "warehouse" ||
        schema->name == "district") {
      EXPECT_EQ(after.at(t.value()), before.at(t.value())) << schema->name;
    } else {
      // Growing tables must not lose rows (orders/new_order/order_line/
      // history only gain or are consumed by Delivery's new_order deletes).
      if (schema->name != "new_order") {
        EXPECT_GE(after.at(t.value()), before.at(t.value())) << schema->name;
      }
    }
  }
  // Spot-check readability through the two-pointer router.
  tx::Txn* r = c.BeginTxn(true);
  for (int64_t w = 1; w <= 2; ++w) {
    const Key key = workload::TpccKeys::Customer(w, 1, 1);
    auto [part, second] =
        c.RouteBoth(r, db.table(workload::TpccTable::kCustomer), key);
    ASSERT_NE(part, nullptr);
    storage::Record rec;
    Status s = c.node(part->owner())->Read(r, part, key, &rec);
    if (s.IsNotFound() && second != nullptr) {
      s = c.node(second->owner())->Read(r, second, key, &rec);
    }
    EXPECT_TRUE(s.ok()) << "customer (" << w << ",1,1) unreachable";
  }
  c.tm().Commit(r);
  c.tm().Release(r->id);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MigrationPropertyTest,
    ::testing::Values(Param{"physiological", 1, 0.5},
                      Param{"physiological", 2, 0.25},
                      Param{"physiological", 3, 0.75},
                      Param{"physical", 1, 0.5},
                      Param{"physical", 4, 0.33},
                      Param{"logical", 1, 0.5},
                      Param{"logical", 5, 0.25}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(info.param.scheme) + "_s" +
             std::to_string(info.param.seed) + "_f" +
             std::to_string(static_cast<int>(info.param.fraction * 100));
    });

}  // namespace
}  // namespace wattdb::partition
