// End-to-end smoke test: stand up a cluster, load a tiny TPC-C database,
// run the workload, rebalance with each scheme, and check nothing breaks.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/master.h"
#include "fault/recovery_manager.h"
#include "partition/logical.h"
#include "partition/physical.h"
#include "partition/physiological.h"
#include "workload/client.h"
#include "workload/tpcc_loader.h"
#include "workload/tpcc_txn.h"

namespace wattdb {
namespace {

cluster::ClusterConfig SmallConfig() {
  cluster::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.initially_active = 2;
  cfg.buffer.capacity_pages = 2000;
  return cfg;
}

workload::TpccLoadConfig SmallLoad() {
  workload::TpccLoadConfig load;
  load.warehouses = 2;
  load.fill = 0.05;  // ~5% of full cardinalities: fast unit test.
  load.home_nodes = {NodeId(0), NodeId(1)};
  return load;
}

TEST(Smoke, LoadAndRunWorkload) {
  cluster::Cluster c(SmallConfig());
  workload::TpccDatabase db(&c, SmallLoad());
  ASSERT_TRUE(db.Load().ok());
  EXPECT_GT(db.rows_loaded(), 1000);
  EXPECT_TRUE(c.catalog().CheckInvariants());

  workload::ClientPoolConfig pool_cfg;
  pool_cfg.num_clients = 10;
  pool_cfg.think_time = 50 * kUsPerMs;
  workload::ClientPool pool(&db, pool_cfg);
  pool.Start();
  c.RunUntil(20 * kUsPerSec);
  pool.Stop();
  EXPECT_GT(pool.committed(), 100) << "workload should make progress";
}

TEST(Smoke, PhysiologicalRebalance) {
  cluster::Cluster c(SmallConfig());
  workload::TpccDatabase db(&c, SmallLoad());
  ASSERT_TRUE(db.Load().ok());

  partition::PhysiologicalPartitioning scheme(&c);
  fault::RecoveryManager recovery(&c, &scheme);
  cluster::Master master(&c, &scheme, &recovery);

  workload::ClientPoolConfig pool_cfg;
  pool_cfg.num_clients = 8;
  workload::ClientPool pool(&db, pool_cfg);
  pool.Start();
  c.RunUntil(5 * kUsPerSec);

  bool finished = false;
  ASSERT_TRUE(master
                  .TriggerRebalance({NodeId(2), NodeId(3)}, 0.5,
                                    [&]() { finished = true; })
                  .ok());
  c.RunUntil(300 * kUsPerSec);
  pool.Stop();
  EXPECT_TRUE(finished);
  EXPECT_GT(scheme.stats().segments_moved, 0);
  EXPECT_TRUE(c.catalog().CheckInvariants());
  // Targets actually own data now.
  EXPECT_FALSE(c.catalog().PartitionsOwnedBy(NodeId(2)).empty());

  // Workload still correct afterwards: run more queries.
  pool.ResetStats();
  pool.Start();
  c.RunUntil(c.Now() + 10 * kUsPerSec);
  pool.Stop();
  EXPECT_GT(pool.committed(), 50);
}

TEST(Smoke, PhysicalAndLogicalRebalance) {
  for (int which = 0; which < 2; ++which) {
    cluster::Cluster c(SmallConfig());
    workload::TpccDatabase db(&c, SmallLoad());
    ASSERT_TRUE(db.Load().ok());
    std::unique_ptr<partition::MigrationManagerBase> scheme;
    if (which == 0) {
      scheme = std::make_unique<partition::PhysicalPartitioning>(&c);
    } else {
      partition::MigrationConfig mc;
      mc.logical_batch_records = 512;
      scheme = std::make_unique<partition::LogicalPartitioning>(&c, mc);
    }
    fault::RecoveryManager recovery(&c, scheme.get());
    cluster::Master master(&c, scheme.get(), &recovery);
    bool finished = false;
    ASSERT_TRUE(master
                    .TriggerRebalance({NodeId(2), NodeId(3)}, 0.5,
                                      [&]() { finished = true; })
                    .ok());
    c.RunUntil(3000 * kUsPerSec);
    EXPECT_TRUE(finished) << "scheme " << scheme->name();
    EXPECT_TRUE(c.catalog().CheckInvariants());
    if (which == 0) {
      // Physical: ownership unchanged, bytes moved.
      EXPECT_TRUE(c.catalog().PartitionsOwnedBy(NodeId(2)).empty());
      EXPECT_FALSE(c.segments().SegmentsOn(NodeId(2)).empty());
    } else {
      EXPECT_GT(scheme->stats().records_moved, 0);
      EXPECT_FALSE(c.catalog().PartitionsOwnedBy(NodeId(2)).empty());
    }
  }
}

}  // namespace
}  // namespace wattdb
