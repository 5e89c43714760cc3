// Tests for the admission-control subsystem (src/admission): the
// controller's depth caps and global-time pruning, policy validation at
// Db::Open, ResourceExhausted surfacing through Session/TxnHandle with the
// batch class shed first, Monitor queue-depth gauges, the KvWorkload
// open-loop accounting invariants under shedding + retries, and the
// master's sustained-overload signal feeding scale-out.

#include <gtest/gtest.h>

#include <vector>

#include "admission/admission.h"
#include "api/db.h"
#include "cluster/master.h"
#include "cluster/monitor.h"

namespace wattdb {
namespace {

int CountEvents(Db& db, cluster::ControlEventType type) {
  return db.master().event_count(type);
}

int64_t TotalQueueDepth(Db& db) {
  int64_t total = 0;
  for (const auto& g : db.monitor().QueueDepths()) total += g.queued_ops;
  return total;
}

// -------------------------------------------------------- controller unit

TEST(AdmissionController, CapsAndGlobalTimePruning) {
  admission::AdmissionController ctl;
  admission::AdmissionPolicy ap;
  ap.enabled = true;
  ap.max_queue_ops = 4;
  ap.batch_share = 0.5;  // Batch cap: 2.
  ctl.set_policy(ap);
  const NodeId n1(1);
  const auto lat = admission::OpClass::kLatencySensitive;
  const auto batch = admission::OpClass::kBatch;

  // Three ops admitted at t=0, completing at 100/200/300.
  for (SimTime done : {100, 200, 300}) {
    ASSERT_TRUE(ctl.Admit(n1, lat, 0).ok());
    ctl.Complete(n1, done);
  }
  EXPECT_EQ(ctl.QueueDepth(n1, 0), 3);

  // A 2-op group busts the cap; a single op still fits.
  const Status refused = ctl.Admit(n1, lat, 0, 2);
  EXPECT_TRUE(refused.IsResourceExhausted()) << refused.ToString();
  ASSERT_TRUE(ctl.Admit(n1, lat, 0).ok());
  ctl.Complete(n1, 400);
  EXPECT_EQ(ctl.QueueDepth(n1, 0), 4);
  EXPECT_TRUE(ctl.Admit(n1, lat, 0).IsResourceExhausted());

  // Depth 4 > batch cap 2: the batch class is refused while a
  // latency-sensitive op would only be refused at the full cap.
  EXPECT_TRUE(ctl.Admit(n1, batch, 0).IsResourceExhausted());

  // The global clock passing completions drains the queue lazily.
  EXPECT_EQ(ctl.QueueDepth(n1, 250), 2);  // 300 and 400 still outstanding.
  EXPECT_TRUE(ctl.Admit(n1, batch, 250).IsResourceExhausted());  // 2 >= 2.
  ASSERT_TRUE(ctl.Admit(n1, lat, 250).ok());
  EXPECT_EQ(ctl.QueueDepth(n1, 400), 0);
  ASSERT_TRUE(ctl.Admit(n1, batch, 400).ok());

  // Other nodes are independent queues.
  EXPECT_EQ(ctl.QueueDepth(NodeId(2), 0), 0);
  EXPECT_TRUE(ctl.Admit(NodeId(2), lat, 0).ok());

  // Counters: one Admit call = one decision.
  EXPECT_EQ(ctl.admitted(lat), 6);
  EXPECT_EQ(ctl.admitted(batch), 1);
  EXPECT_EQ(ctl.shed(lat), 2);
  EXPECT_EQ(ctl.shed(batch), 2);
  EXPECT_EQ(ctl.shed_total(), 4);
}

TEST(AdmissionController, DisabledPolicyTracksButNeverRefuses) {
  admission::AdmissionController ctl;  // Default policy: disabled.
  const NodeId n1(1);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        ctl.Admit(n1, admission::OpClass::kLatencySensitive, 0).ok());
    ctl.Complete(n1, 1000 + i);
  }
  // Depth gauges stay live even though nothing is ever refused.
  EXPECT_EQ(ctl.QueueDepth(n1, 0), 1000);
  EXPECT_EQ(ctl.shed_total(), 0);
  EXPECT_EQ(ctl.QueueDepth(n1, 2000), 0);
}

// ------------------------------------------------------- Db::Open validation

TEST(Admission, OpenValidatesPolicyKnobs) {
  auto with = [](admission::AdmissionPolicy ap) {
    return Db::Open(DbOptions()
                        .WithNodes(2)
                        .WithActiveNodes(2)
                        .WithoutTpccLoad()
                        .WithAdmissionPolicy(ap))
        .status();
  };
  admission::AdmissionPolicy ap;
  EXPECT_TRUE(with(ap).ok()) << "defaults must validate";

  ap = {};
  ap.max_queue_ops = 0;
  EXPECT_TRUE(with(ap).IsInvalidArgument());
  ap = {};
  ap.batch_share = 0.0;
  EXPECT_TRUE(with(ap).IsInvalidArgument());
  ap = {};
  ap.batch_share = 1.5;
  EXPECT_TRUE(with(ap).IsInvalidArgument());
  ap = {};
  ap.overload_ratio = -0.1;
  EXPECT_TRUE(with(ap).IsInvalidArgument());
  ap = {};
  ap.overload_trigger_after = 0;
  EXPECT_TRUE(with(ap).IsInvalidArgument());
}

TEST(Admission, AddKvWorkloadValidatesRetryKnobs) {
  auto opened =
      Db::Open(DbOptions().WithNodes(2).WithActiveNodes(2).WithoutTpccLoad());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  workload::KvConfig cfg;
  cfg.shed_retries = -1;
  EXPECT_TRUE(db.AddKvWorkload(cfg).status().IsInvalidArgument());
  cfg = {};
  cfg.shed_retries = 2;
  cfg.retry_backoff = 0;
  EXPECT_TRUE(db.AddKvWorkload(cfg).status().IsInvalidArgument());
  cfg = {};
  cfg.slo_us = -5;
  EXPECT_TRUE(db.AddKvWorkload(cfg).status().IsInvalidArgument());
}

// ------------------------------------------------- surfacing through the API

TEST(Admission, ShedSurfacesAsResourceExhaustedAndDrains) {
  admission::AdmissionPolicy ap;
  ap.enabled = true;
  // An upsert of a fresh key is ONE admission (WriteOp::kUpsert folds the
  // update probe and the insert into a single queued unit), so cap 1 lets
  // exactly one autocommit Put through.
  ap.max_queue_ops = 1;
  auto opened = Db::Open(DbOptions()
                             .WithNodes(2)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad()
                             .WithAdmissionPolicy(ap));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  // Two active nodes: [0,512) on the master, [512,1024) on node 1.
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1024);
  ASSERT_TRUE(table.ok());

  // The first Put is admitted; its completions sit in node 1's queue until
  // the *global* clock passes them, so an immediate second op is refused.
  ASSERT_TRUE(session.Put(*table, 600, std::vector<uint8_t>(64, 0x01)).ok());
  const Status refused =
      session.Put(*table, 601, std::vector<uint8_t>(64, 0x02));
  EXPECT_TRUE(refused.IsResourceExhausted()) << refused.ToString();
  EXPECT_GE(db.admission().shed_total(), 1);
  EXPECT_GT(TotalQueueDepth(db), 0) << "gauge must see the outstanding op";

  // Advancing the event loop past the completion drains the queue and the
  // same ops are admitted again.
  db.RunFor(kUsPerSec);
  EXPECT_EQ(TotalQueueDepth(db), 0);
  EXPECT_TRUE(session.Put(*table, 601, std::vector<uint8_t>(64, 0x02)).ok());
  db.RunFor(kUsPerSec);
  EXPECT_TRUE(session.Get(*table, 601).ok());
}

TEST(Admission, UpsertOfFreshKeyIsOneAdmissionUnit) {
  // Regression (PR 7 follow-up): Session::Put of a fresh key used to run
  // an update + RoutedInsert — two admission decisions (and two queued
  // ops of depth) for one logical upsert. WriteOp::kUpsert must take exactly
  // one decision whether the key is fresh (update -> insert fall-through)
  // or already present (plain update).
  admission::AdmissionPolicy ap;
  ap.enabled = true;
  ap.max_queue_ops = 64;  // Roomy: counting decisions, not shedding.
  auto opened = Db::Open(DbOptions()
                             .WithNodes(2)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad()
                             .WithAdmissionPolicy(ap));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1024);
  ASSERT_TRUE(table.ok());
  const auto lat = admission::OpClass::kLatencySensitive;

  // Fresh key: update probe misses, insert fall-through — one admission.
  int64_t before = db.admission().admitted(lat);
  ASSERT_TRUE(session.Put(*table, 600, std::vector<uint8_t>(64, 0x01)).ok());
  EXPECT_EQ(db.admission().admitted(lat) - before, 1)
      << "fresh-key upsert must be a single admission unit";

  // Existing key: plain update — still one admission.
  db.RunFor(kUsPerSec);
  before = db.admission().admitted(lat);
  ASSERT_TRUE(session.Put(*table, 600, std::vector<uint8_t>(64, 0x02)).ok());
  EXPECT_EQ(db.admission().admitted(lat) - before, 1);
  EXPECT_EQ(db.admission().shed_total(), 0);

  // And the depth gauge agrees: one outstanding op right after the Put.
  db.RunFor(kUsPerSec);
  before = db.admission().admitted(lat);
  ASSERT_TRUE(session.Put(*table, 601, std::vector<uint8_t>(64, 0x03)).ok());
  EXPECT_EQ(db.admission().admitted(lat) - before, 1);
  EXPECT_LE(TotalQueueDepth(db), 1)
      << "a fresh-key upsert must occupy at most one queue slot";
}

TEST(Admission, BatchClassShedBeforeLatencySensitive) {
  admission::AdmissionPolicy ap;
  ap.enabled = true;
  ap.max_queue_ops = 2;
  ap.batch_share = 0.5;  // Batch cap: 1.
  auto opened = Db::Open(DbOptions()
                             .WithNodes(2)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad()
                             .WithAdmissionPolicy(ap));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("kv", 64, 1024);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session.Put(*table, 600, std::vector<uint8_t>(64, 0x01)).ok());
  db.RunFor(kUsPerSec);

  // One outstanding op on node 1 fills the batch slice but not the queue.
  ASSERT_TRUE(session.Put(*table, 600, std::vector<uint8_t>(64, 0x02)).ok());

  TxnHandle batch_txn = session.Begin(false, /*batch_priority=*/true);
  const StatusOr<storage::Record> batch_read = batch_txn.Get(*table, 600);
  EXPECT_TRUE(batch_read.status().IsResourceExhausted())
      << batch_read.status().ToString();
  batch_txn.Abort();

  TxnHandle lat_txn = session.Begin();
  const StatusOr<storage::Record> lat_read = lat_txn.Get(*table, 600);
  EXPECT_TRUE(lat_read.ok()) << lat_read.status().ToString();
  EXPECT_TRUE(lat_txn.Commit().ok());

  // Scans ride the batch class whatever the transaction's priority.
  TxnHandle scan_txn = session.Begin();
  const auto scanned = scan_txn.Scan(*table, {512, 640},
                                     [](const storage::Record&) {
                                       return true;
                                     });
  EXPECT_TRUE(scanned.status().IsResourceExhausted())
      << scanned.status().ToString();
  scan_txn.Abort();

  EXPECT_GE(db.admission().shed(admission::OpClass::kBatch), 2);
  EXPECT_EQ(db.admission().shed(admission::OpClass::kLatencySensitive), 0);
}

// ------------------------------------- open-loop accounting under shedding

TEST(Admission, KvWorkloadAccountingConsistentUnderShedding) {
  admission::AdmissionPolicy ap;
  ap.enabled = true;
  ap.max_queue_ops = 8;
  DbOptions options = DbOptions()
                          .WithNodes(2)
                          .WithActiveNodes(2)
                          .WithSeed(17)
                          .WithoutTpccLoad()
                          .WithAdmissionPolicy(ap);
  // Expensive ops so the offered load overruns the tiny cap immediately.
  options.cluster.costs.cpu_record_read_us = 300;
  options.cluster.costs.cpu_record_write_us = 600;
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;

  workload::KvConfig cfg;
  cfg.arrival_qps = 1500;
  cfg.count_at_completion = true;
  cfg.read_ratio = 0.5;
  cfg.batch_size = 4;
  cfg.num_keys = 2048;
  cfg.value_bytes = 64;
  cfg.slo_us = 50 * kUsPerMs;
  cfg.shed_retries = 2;
  cfg.retry_backoff = 5 * kUsPerMs;
  cfg.seed = 17;
  auto kv = db.AddKvWorkload(cfg);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  workload::KvWorkload& driver = **kv;

  driver.Start();
  db.RunFor(3 * kUsPerSec);
  EXPECT_GT(TotalQueueDepth(db), 0) << "saturated: gauges must show backlog";
  driver.Stop();
  // Drain: completion-time bookings and in-flight retry backoffs all fire.
  db.RunFor(2 * kUsPerSec);

  EXPECT_GT(driver.shed(), 0) << "load was sized to overrun the cap";
  EXPECT_GT(driver.committed(), 0);
  EXPECT_GT(driver.dropped(), 0) << "retries are finite; some txns drop";
  // Every issued arrival resolves exactly once: committed, aborted (shed
  // txns that exhausted their retries count here), or abandoned because
  // the workload stopped while a retry was waiting out its backoff.
  EXPECT_EQ(driver.issued(),
            driver.committed() + driver.aborted() + driver.retry_abandoned())
      << "issued=" << driver.issued() << " committed=" << driver.committed()
      << " aborted=" << driver.aborted()
      << " abandoned=" << driver.retry_abandoned();
  // A retry is a shed attempt that got rescheduled — never a fresh issue.
  EXPECT_LE(driver.retried(), driver.shed());
  EXPECT_GT(driver.retried(), 0);
  EXPECT_LE(driver.dropped(), driver.aborted());
  EXPECT_LE(driver.slo_met(), driver.committed());
  EXPECT_GT(driver.slo_met(), 0);
  // After the drain the admission queues are empty again.
  EXPECT_EQ(TotalQueueDepth(db), 0);
}

// ------------------------------------------------- overload -> master signal

TEST(Admission, SustainedOverloadTriggersScaleOutAndClears) {
  admission::AdmissionPolicy ap;
  ap.enabled = true;
  ap.max_queue_ops = 16;
  ap.overload_ratio = 0.5;
  ap.overload_trigger_after = 2;
  cluster::MasterPolicy mp;
  mp.check_period = kUsPerSec / 2;
  mp.stats_window = kUsPerSec;
  mp.trigger_after = 1;
  // Utilization can reach but never exceed 1.0, and the CPU trigger is
  // strict-greater: only queue pressure can scale out here.
  mp.cpu_upper = 1.0;
  mp.enable_scale_out = true;
  mp.enable_scale_in = false;
  mp.admission = ap;
  DbOptions options = DbOptions()
                          .WithNodes(3)
                          .WithActiveNodes(2)
                          .WithSeed(19)
                          .WithoutTpccLoad()
                          .WithMasterLoop(mp);
  options.cluster.costs.cpu_record_read_us = 300;
  options.cluster.costs.cpu_record_write_us = 600;
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;

  workload::KvConfig cfg;
  cfg.arrival_qps = 1500;
  cfg.count_at_completion = true;
  cfg.read_ratio = 0.9;
  cfg.batch_size = 4;
  cfg.num_keys = 2048;
  cfg.value_bytes = 64;
  cfg.shed_retries = 1;
  cfg.retry_backoff = 5 * kUsPerMs;
  cfg.seed = 19;
  auto kv = db.AddKvWorkload(cfg);
  ASSERT_TRUE(kv.ok());
  workload::KvWorkload& driver = **kv;

  driver.Start();
  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kScaleOut) == 0 &&
         db.Now() < t0 + 10 * kUsPerSec) {
    db.RunFor(kUsPerSec);
  }
  EXPECT_GE(CountEvents(db, cluster::ControlEventType::kOverloadDetected), 1);
  EXPECT_GE(CountEvents(db, cluster::ControlEventType::kScaleOut), 1)
      << "sustained queue overload must enlist the standby even though the "
         "CPU gauge never crossed its (unreachable) threshold";

  // Load gone -> queues drain -> the master announces the all-clear.
  driver.Stop();
  const SimTime t1 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kOverloadCleared) == 0 &&
         db.Now() < t1 + 10 * kUsPerSec) {
    db.RunFor(kUsPerSec);
  }
  EXPECT_GE(CountEvents(db, cluster::ControlEventType::kOverloadCleared), 1);
}

}  // namespace
}  // namespace wattdb
