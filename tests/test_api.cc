// Tests for the wattdb::Db facade: construction per scheme, option
// validation, the unknown-scheme error path, the RAII Session/TxnHandle
// commit/abort semantics (including moved-from guards), the async/batched
// data plane — futures resolving in sim-time order, owner-grouped
// MultiGet/MultiPut hop charging, batches landing mid-migration that return
// every key exactly once via the §4.3 two-pointer retry — and the
// WorkloadDriver attachment interface.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/db.h"
#include "workload/kv.h"
#include "workload/tpcc_schema.h"

namespace wattdb {
namespace {

DbOptions SmallOptions() {
  return DbOptions()
      .WithNodes(4)
      .WithActiveNodes(2)
      .WithBufferPages(2000)
      .WithWarehouses(2)
      .WithFill(0.05)
      .WithHomeNodes({NodeId(0), NodeId(1)});
}

TEST(Db, OpensWithEachBuiltinScheme) {
  for (const std::string name : {"physical", "logical", "physiological"}) {
    auto db = Db::Open(SmallOptions().WithScheme(name));
    ASSERT_TRUE(db.ok()) << name << ": " << db.status().ToString();
    EXPECT_EQ((*db)->scheme().name(), name);
    EXPECT_GT((*db)->tpcc()->rows_loaded(), 1000);
    EXPECT_TRUE((*db)->cluster().catalog().CheckInvariants());
  }
}

TEST(Db, UnknownSchemeFailsWithRegisteredNames) {
  auto db = Db::Open(SmallOptions().WithScheme("hash-ring"));
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsNotFound());
  // The error teaches the caller what would have worked.
  EXPECT_NE(db.status().message().find("hash-ring"), std::string::npos);
  EXPECT_NE(db.status().message().find("physiological"), std::string::npos);
}

TEST(Session, CommitMakesWritesVisible) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  const Key key = workload::TpccKeys::Customer(1, 1, 1);

  StatusOr<storage::Record> before = session.Get(customer, key);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  std::vector<uint8_t> payload = before->payload;
  workload::PutF64(&payload, workload::CustomerFields::kBalance, 4242.5);
  {
    TxnHandle txn = session.Begin();
    ASSERT_TRUE(txn.active());
    ASSERT_TRUE(txn.Update(customer, key, payload).ok());
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_FALSE(txn.active());
    // Double-commit is an error, not a crash.
    EXPECT_TRUE(txn.Commit().IsInvalidArgument());
  }

  StatusOr<storage::Record> after = session.Get(customer, key);
  ASSERT_TRUE(after.ok());
  EXPECT_DOUBLE_EQ(
      workload::GetF64(after->payload, workload::CustomerFields::kBalance),
      4242.5);
}

TEST(Session, AbortAndRaiiRollBack) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  const Key key = workload::TpccKeys::Customer(1, 1, 2);

  const double original = workload::GetF64(
      session.Get(customer, key)->payload, workload::CustomerFields::kBalance);

  std::vector<uint8_t> payload = session.Get(customer, key)->payload;
  workload::PutF64(&payload, workload::CustomerFields::kBalance, -1.0);

  {  // Explicit abort.
    TxnHandle txn = session.Begin();
    ASSERT_TRUE(txn.Update(customer, key, payload).ok());
    txn.Abort();
    EXPECT_FALSE(txn.active());
  }
  {  // Dropped without commit: the destructor must abort.
    TxnHandle txn = session.Begin();
    ASSERT_TRUE(txn.Update(customer, key, payload).ok());
  }
  EXPECT_DOUBLE_EQ(
      workload::GetF64(session.Get(customer, key)->payload,
                       workload::CustomerFields::kBalance),
      original);
}

TEST(Session, InsertScanDelete) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  // A key above every loaded customer of (w=1, d=1): fill=0.05 materializes
  // far fewer than 3000 customers per district.
  const Key fresh = workload::TpccKeys::Customer(1, 1, 2999);

  EXPECT_TRUE(session.Get(customer, fresh).status().IsNotFound());

  TxnHandle txn = session.Begin();
  const std::vector<uint8_t> payload(64, 0xAB);
  ASSERT_TRUE(txn.Insert(customer, fresh, payload).ok());
  EXPECT_TRUE(txn.Insert(customer, fresh, payload).IsAlreadyExists());
  ASSERT_TRUE(txn.Commit().ok());

  StatusOr<storage::Record> rec = session.Get(customer, fresh);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->payload, payload);

  // The inserted key is visible to a range scan.
  bool seen = false;
  const StatusOr<int64_t> visited = session.Scan(
      customer, KeyRange{fresh, fresh + 1}, [&](const storage::Record& r) {
        seen = r.key == fresh;
        return true;
      });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(*visited, 1);
  EXPECT_TRUE(seen);

  TxnHandle del = session.Begin();
  ASSERT_TRUE(del.Delete(customer, fresh).ok());
  ASSERT_TRUE(del.Commit().ok());
  EXPECT_TRUE(session.Get(customer, fresh).status().IsNotFound());
}

TEST(Session, ScanEarlyStopHaltsAcrossRoutes) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  // CUSTOMER spans two routes (warehouse 1 on node 0, warehouse 2 on
  // node 1); a callback stopping after the first record must halt the
  // whole scan, not just the first route.
  ASSERT_GE(db.Routes(customer).size(), 2u);
  const StatusOr<int64_t> visited =
      session.Scan(customer, KeyRange{kMinKey, kMaxKey},
                   [](const storage::Record&) { return false; });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(*visited, 1);
}

TEST(Session, GetSucceedsMidMigrationViaTwoPointerRetry) {
  // Logical moves delete records at the source and re-insert them at the
  // target batch by batch — the window where only the two-pointer retry
  // finds a moving record (§4.3).
  auto opened = Db::Open(SmallOptions()
                             .WithScheme("logical")
                             .WithLogicalBatchRecords(64)
                             .WithMigrateOnly(workload::TpccTable::kCustomer));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  const int64_t per_district = db.tpcc()->customers_per_district();

  // Warehouse 2 is the half that moves (node 1 -> node 2); warehouse 1
  // stays on the master.
  std::vector<Key> keys;
  for (int64_t w = 1; w <= 2; ++w) {
    for (int64_t c = 1; c <= per_district; ++c) {
      keys.push_back(workload::TpccKeys::Customer(w, 1, c));
    }
  }

  bool done = false;
  ASSERT_TRUE(
      db.TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, [&]() { done = true; })
          .ok());

  // Probe every customer of district 1 repeatedly while the move is in
  // flight. Every read must succeed: primary, forwarded, or secondary
  // location. Every update must find the record the same way — a write that
  // misses a moving record must not read as NotFound.
  std::vector<std::vector<uint8_t>> last_written(keys.size());
  int64_t reads = 0;
  uint8_t round = 0;
  const SimTime t0 = db.Now();
  while (!done && db.Now() < t0 + 600 * kUsPerSec) {
    db.RunFor(kUsPerSec / 2);
    ++round;
    for (size_t i = 0; i < keys.size(); ++i) {
      StatusOr<storage::Record> rec = session.Get(customer, keys[i]);
      ASSERT_TRUE(rec.ok()) << "key " << keys[i] << " unreadable mid-move: "
                            << rec.status().ToString();
      ++reads;
      rec->payload.back() = round;
      TxnHandle txn = session.Begin();
      const Status update = txn.Update(customer, keys[i], rec->payload);
      ASSERT_TRUE(update.ok()) << "key " << keys[i] << " not updatable "
                               << "mid-move: " << update.ToString();
      ASSERT_TRUE(txn.Commit().ok());
      last_written[i] = rec->payload;
    }
  }
  EXPECT_TRUE(done) << "migration did not finish";
  EXPECT_GT(db.scheme().stats().records_moved, 0);
  EXPECT_GT(reads, 0);
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());

  // After the move the same keys still resolve (ownership transferred), each
  // holding its last write.
  for (size_t i = 0; i < keys.size(); ++i) {
    const StatusOr<storage::Record> rec = session.Get(customer, keys[i]);
    ASSERT_TRUE(rec.ok()) << "key " << keys[i] << ": "
                          << rec.status().ToString();
    EXPECT_EQ(rec->payload, last_written[i])
        << "key " << keys[i] << " lost its last mid-move write";
  }
}

TEST(Db, RebalanceAndWaitReportsDuration) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  const StatusOr<SimTime> elapsed =
      db.RebalanceAndWait({NodeId(2), NodeId(3)}, 0.5, 600 * kUsPerSec);
  ASSERT_TRUE(elapsed.ok()) << elapsed.status().ToString();
  EXPECT_GT(*elapsed, 0);
  EXPECT_GT(db.scheme().stats().segments_moved, 0);
  EXPECT_FALSE(db.cluster().catalog().PartitionsOwnedBy(NodeId(2)).empty());
}

TEST(Db, RebalanceRejectsBadArgumentsSynchronously) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  // An out-of-range target is a clean error, not a crash.
  EXPECT_TRUE(db.TriggerRebalance({NodeId(99)}, 0.5).IsNotFound());
  // A bad fraction surfaces the validation error immediately instead of a
  // TimedOut after max_wait of simulation — even when the target is in
  // standby and would otherwise boot before the scheme ever checked it.
  const StatusOr<SimTime> r = db.RebalanceAndWait({NodeId(2)}, 1.5);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  EXPECT_TRUE(db.AttachHelpers({NodeId(42)}, {NodeId(0)}, 100).IsNotFound());
}

TEST(DbOptions, OpenValidatesTopologyUpFront) {
  // Non-positive node count.
  auto no_nodes = Db::Open(SmallOptions().WithNodes(0));
  ASSERT_FALSE(no_nodes.ok());
  EXPECT_TRUE(no_nodes.status().IsInvalidArgument());
  EXPECT_NE(no_nodes.status().message().find("WithNodes(0)"),
            std::string::npos);

  // More active nodes than nodes.
  auto too_active = Db::Open(SmallOptions().WithNodes(4).WithActiveNodes(5));
  ASSERT_FALSE(too_active.ok());
  EXPECT_TRUE(too_active.status().IsInvalidArgument());
  EXPECT_NE(too_active.status().message().find("WithActiveNodes(5)"),
            std::string::npos);

  // Non-positive active count.
  auto zero_active = Db::Open(SmallOptions().WithActiveNodes(0));
  ASSERT_FALSE(zero_active.ok());
  EXPECT_TRUE(zero_active.status().IsInvalidArgument());

  // Empty scheme name gets its own message, not an unknown-scheme lookup.
  auto no_scheme = Db::Open(SmallOptions().WithScheme(""));
  ASSERT_FALSE(no_scheme.ok());
  EXPECT_TRUE(no_scheme.status().IsInvalidArgument());
  EXPECT_NE(no_scheme.status().message().find("empty"), std::string::npos);

  // A home node outside the cluster fails before the loader trips on it.
  auto bad_home = Db::Open(SmallOptions().WithHomeNodes({NodeId(7)}));
  ASSERT_FALSE(bad_home.ok());
  EXPECT_TRUE(bad_home.status().IsInvalidArgument());
}

TEST(Session, MovedFromHandlesReturnFailedPrecondition) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  const Key key = workload::TpccKeys::Customer(1, 1, 1);

  Session alive = db.OpenSession();
  Session moved = std::move(alive);

  // The moved-from session fails cleanly on every entry point.
  EXPECT_TRUE(alive.Get(customer, key).status().IsFailedPrecondition());
  EXPECT_TRUE(alive.Put(customer, key, {1, 2, 3}).IsFailedPrecondition());
  EXPECT_TRUE(alive.MultiGet(customer, {key}).status().IsFailedPrecondition());
  EXPECT_TRUE(alive.MultiPut(customer, {KeyValue{key, {1}}})
                  .status()
                  .IsFailedPrecondition());
  Future<StatusOr<storage::Record>> f = alive.GetAsync(customer, key);
  ASSERT_TRUE(f.resolved());
  EXPECT_TRUE(f.value().status().IsFailedPrecondition());
  TxnHandle inert = alive.Begin();
  EXPECT_FALSE(inert.active());
  EXPECT_TRUE(inert.Get(customer, key).status().IsFailedPrecondition());

  // Moved-from transaction handles are equally inert; the destination works.
  TxnHandle txn = moved.Begin();
  TxnHandle stolen = std::move(txn);
  EXPECT_TRUE(txn.Get(customer, key).status().IsFailedPrecondition());
  EXPECT_TRUE(txn.Commit().IsFailedPrecondition());
  EXPECT_TRUE(stolen.Get(customer, key).ok());
  EXPECT_TRUE(stolen.Commit().ok());
  // A committed (but not moved-from) handle keeps the historical error.
  EXPECT_TRUE(stolen.Commit().IsInvalidArgument());
}

TEST(Session, FuturesResolveInSimTimeOrder) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  // Warehouse 1 lives on the master (no network hop), warehouse 2 on
  // node 1 (a master<->owner round trip): the remote read finishes later in
  // simulated time even when issued first.
  const Key remote_key = workload::TpccKeys::Customer(2, 1, 1);
  const Key local_key = workload::TpccKeys::Customer(1, 1, 1);

  Future<StatusOr<storage::Record>> remote =
      session.GetAsync(customer, remote_key);
  Future<StatusOr<storage::Record>> local =
      session.GetAsync(customer, local_key);
  ASSERT_TRUE(remote.resolved());
  ASSERT_TRUE(local.resolved());
  ASSERT_TRUE(remote.value().ok());
  ASSERT_TRUE(local.value().ok());
  EXPECT_LT(local.ready_at(), remote.ready_at());

  // Continuations fire through the event loop in sim-time order, not in
  // issue order.
  std::vector<std::string> order;
  remote.Then([&](const StatusOr<storage::Record>&) {
    order.push_back("remote");
  });
  local.Then([&](const StatusOr<storage::Record>&) {
    order.push_back("local");
  });
  EXPECT_TRUE(order.empty());  // Nothing fires before the loop runs.
  db.RunFor(10 * kUsPerSec);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "local");
  EXPECT_EQ(order[1], "remote");
}

TEST(Session, MultiGetMatchesPerOpGetsAndChargesPerOwner) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);

  // Four keys on the master (warehouse 1), four on node 1 (warehouse 2).
  std::vector<Key> keys;
  for (int64_t c = 1; c <= 4; ++c) {
    keys.push_back(workload::TpccKeys::Customer(1, 1, c));
    keys.push_back(workload::TpccKeys::Customer(2, 1, c));
  }

  const int64_t msgs_before_batch = db.cluster().network().messages_sent();
  StatusOr<MultiGetResult> batch = session.MultiGet(customer, keys);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const int64_t batch_msgs =
      db.cluster().network().messages_sent() - msgs_before_batch;

  // One owner group is the master (free), one is node 1: exactly one round
  // trip (request + response) for the whole batch.
  EXPECT_EQ(batch->stats.owner_round_trips, 1);
  EXPECT_EQ(batch->stats.straggler_retries, 0);
  EXPECT_EQ(batch_msgs, 2);

  // Per-op equivalent pays one round trip per non-master key.
  const int64_t msgs_before_per_op = db.cluster().network().messages_sent();
  ASSERT_EQ(batch->records.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    StatusOr<storage::Record> rec = session.Get(customer, keys[i]);
    ASSERT_TRUE(rec.ok());
    ASSERT_TRUE(batch->records[i].ok());
    EXPECT_EQ(rec->key, batch->records[i]->key);
    EXPECT_EQ(rec->payload, batch->records[i]->payload);
  }
  const int64_t per_op_msgs =
      db.cluster().network().messages_sent() - msgs_before_per_op;
  EXPECT_EQ(per_op_msgs, 2 * 4);
  EXPECT_EQ(batch->hits(), static_cast<int64_t>(keys.size()));
}

TEST(Session, MultiPutUpsertsAndReadsBack) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);

  // Fresh keys above the materialized cardinality: the first MultiPut runs
  // the insert tail of the upsert, the second the update path.
  std::vector<KeyValue> kvs;
  for (int64_t c = 0; c < 6; ++c) {
    const int64_t w = 1 + (c % 2);
    kvs.push_back(KeyValue{workload::TpccKeys::Customer(w, 2, 2900 + c),
                           std::vector<uint8_t>(64, 0x5A)});
  }
  StatusOr<MultiPutResult> first = session.MultiPut(customer, kvs);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->oks(), static_cast<int64_t>(kvs.size()));
  EXPECT_EQ(first->stats.inserts, static_cast<int>(kvs.size()));
  EXPECT_EQ(first->stats.owner_round_trips, 1);  // w=2 group only.

  for (auto& kv : kvs) kv.payload.assign(64, 0xC3);
  StatusOr<MultiPutResult> second = session.MultiPut(customer, kvs);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->oks(), static_cast<int64_t>(kvs.size()));
  EXPECT_EQ(second->stats.inserts, 0);

  std::vector<Key> keys;
  for (const KeyValue& kv : kvs) keys.push_back(kv.key);
  StatusOr<MultiGetResult> read = session.MultiGet(customer, keys);
  ASSERT_TRUE(read.ok());
  for (const auto& rec : read->records) {
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0xC3));
  }
}

TEST(Session, MultiGetMidMigrationReturnsEveryKeyExactlyOnce) {
  // Logical moves delete records at the source and re-insert them at the
  // target batch by batch — the window where only the §4.3 two-pointer
  // retry finds a moving record. A batch spanning the moving partition must
  // return every key exactly once and keep charging hops per owner.
  auto opened = Db::Open(SmallOptions()
                             .WithScheme("logical")
                             .WithLogicalBatchRecords(64)
                             .WithMigrateOnly(workload::TpccTable::kCustomer));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  const int64_t per_district = db.tpcc()->customers_per_district();

  std::vector<Key> keys;
  for (int64_t c = 1; c <= per_district; ++c) {
    keys.push_back(workload::TpccKeys::Customer(1, 1, c));
  }

  bool done = false;
  ASSERT_TRUE(
      db.TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, [&]() { done = true; })
          .ok());

  int64_t batches = 0;
  int64_t stragglers = 0;
  const SimTime t0 = db.Now();
  while (!done && db.Now() < t0 + 600 * kUsPerSec) {
    db.RunFor(kUsPerSec / 2);
    StatusOr<MultiGetResult> batch = session.MultiGet(customer, keys);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->records.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(batch->records[i].ok())
          << "key " << keys[i]
          << " unreadable mid-move: " << batch->records[i].status().ToString();
      // Exactly once: slot i answers key i, no duplicates or substitutes.
      EXPECT_EQ(batch->records[i]->key, keys[i]);
    }
    // Hops are charged per owner group (+ per-key straggler retries), never
    // per key: even mid-move a batch touches at most every active node.
    EXPECT_LE(batch->stats.owner_round_trips, db.ActiveNodeCount());
    EXPECT_LT(batch->stats.owner_round_trips + batch->stats.straggler_retries,
              static_cast<int>(keys.size()));
    stragglers += batch->stats.straggler_retries;
    ++batches;
  }
  EXPECT_TRUE(done) << "migration did not finish";
  EXPECT_GT(batches, 0);
  EXPECT_GT(db.scheme().stats().records_moved, 0);
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());

  // After the move the same batch still resolves fully at the new owners.
  StatusOr<MultiGetResult> after = session.MultiGet(customer, keys);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->hits(), static_cast<int64_t>(keys.size()));
  // The §4.3 retry machinery observed at least one straggler across the
  // move, or the move finished without a batch landing mid-window; both are
  // legal, but record the count so regressions in retry charging show up.
  EXPECT_GE(stragglers, 0);
}

TEST(Fault, CrashAndRestartValidateArguments) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;

  EXPECT_TRUE(db.CrashNode(NodeId(0)).IsInvalidArgument());  // The master.
  EXPECT_TRUE(db.CrashNode(NodeId(99)).IsNotFound());
  EXPECT_TRUE(db.CrashNode(NodeId(2)).IsFailedPrecondition());  // Standby.
  EXPECT_TRUE(db.RestartNode(NodeId(1)).IsFailedPrecondition());  // Active.

  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
  EXPECT_TRUE(db.cluster().node_state(NodeId(1)).crashed);
  EXPECT_TRUE(db.CrashNode(NodeId(1)).IsFailedPrecondition());  // Down.

  const StatusOr<fault::RecoveryReport> report =
      db.RestartNodeAndWait(NodeId(1));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(db.cluster().node_state(NodeId(1)).crashed);
  EXPECT_EQ(db.recovery().crashes(), 1);
  EXPECT_EQ(db.recovery().recoveries(), 1);
}

TEST(DbOptions, ValidatesFaultPlan) {
  // A crash target outside the cluster fails Open up front.
  auto bad_node = Db::Open(SmallOptions().WithFaultPlan(
      fault::FaultPlan().CrashAt(NodeId(9), kUsPerSec)));
  ASSERT_FALSE(bad_node.ok());
  EXPECT_TRUE(bad_node.status().IsInvalidArgument());

  // The master is never a legal crash target.
  auto master = Db::Open(SmallOptions().WithFaultPlan(
      fault::FaultPlan().CrashAt(NodeId(0), kUsPerSec)));
  ASSERT_FALSE(master.ok());
  EXPECT_TRUE(master.status().IsInvalidArgument());
  EXPECT_NE(master.status().message().find("master"), std::string::npos);

  // Progress fractions outside [0, 1] are rejected (a typo'd negative
  // fraction must not degrade into a crash at t=0).
  auto bad_frac = Db::Open(SmallOptions().WithFaultPlan(
      fault::FaultPlan().CrashAtMigrationProgress(NodeId(1), 1.5)));
  ASSERT_FALSE(bad_frac.ok());
  EXPECT_TRUE(bad_frac.status().IsInvalidArgument());
  auto neg_frac = Db::Open(SmallOptions().WithFaultPlan(
      fault::FaultPlan().CrashAtMigrationProgress(NodeId(1), -0.3)));
  ASSERT_FALSE(neg_frac.ok());
  EXPECT_TRUE(neg_frac.status().IsInvalidArgument());

  // Replica-progress triggers get the same fraction validation.
  auto bad_rep = Db::Open(SmallOptions().WithFaultPlan(
      fault::FaultPlan().CrashAtReplicaProgress(NodeId(1), 2.0)));
  ASSERT_FALSE(bad_rep.ok());
  EXPECT_TRUE(bad_rep.status().IsInvalidArgument());
}

TEST(DbOptions, ValidatesReplicaPolicy) {
  // Misconfiguration is rejected even with the policy disabled — a typo
  // must surface the first time the options are used.
  auto check = [](std::function<void(cluster::ReplicaPolicy&)> corrupt,
                  const char* field) {
    DbOptions options = SmallOptions();
    corrupt(options.master.replica);
    auto db = Db::Open(std::move(options));
    ASSERT_FALSE(db.ok()) << field << " accepted";
    EXPECT_TRUE(db.status().IsInvalidArgument());
    EXPECT_NE(db.status().message().find(field), std::string::npos)
        << db.status().ToString();
  };
  check([](cluster::ReplicaPolicy& rp) { rp.replicas_per_segment = 0; },
        "replicas_per_segment");
  check([](cluster::ReplicaPolicy& rp) { rp.heat_threshold = -1.0; },
        "heat_threshold");
  check([](cluster::ReplicaPolicy& rp) { rp.max_replicated_segments = 0; },
        "max_replicated_segments");
  check([](cluster::ReplicaPolicy& rp) { rp.max_lag_records = -1; },
        "max_lag_records");
  check([](cluster::ReplicaPolicy& rp) { rp.drop_cold_after = -1; },
        "drop_cold_after");
}

TEST(Db, AttachHelpersRefusesRewiringAndDoomedHelpers) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(5)
                             .WithActiveNodes(3)
                             .WithoutTpccLoad());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;

  // A node cannot ship its own log to itself.
  EXPECT_TRUE(
      db.AttachHelpers({NodeId(2)}, {NodeId(1), NodeId(2)}, 128)
          .IsInvalidArgument());

  // A crashed node must not become a helper: its disk needs redo itself,
  // and wiring it would strand the assisted nodes' WAL stream.
  ASSERT_TRUE(db.CrashNode(NodeId(2)).ok());
  const Status crashed = db.AttachHelpers({NodeId(2)}, {NodeId(1)}, 128);
  EXPECT_TRUE(crashed.IsFailedPrecondition()) << crashed.ToString();
  EXPECT_NE(crashed.message().find("crashed"), std::string::npos);
  EXPECT_EQ(crashed.message(), "helper node 2 crashed and has not recovered");
  ASSERT_TRUE(db.RestartNodeAndWait(NodeId(2)).ok());

  // First attach succeeds; a second one must not silently rewire (the
  // first helper's shipped tail would be stranded) — DetachHelpers first.
  ASSERT_TRUE(db.AttachHelpers({NodeId(3)}, {NodeId(1)}, 128).ok());
  const Status twice = db.AttachHelpers({NodeId(4)}, {NodeId(1)}, 128);
  EXPECT_TRUE(twice.IsFailedPrecondition()) << twice.ToString();
  EXPECT_NE(twice.message().find("DetachHelpers"), std::string::npos);
  db.RunFor(7 * kUsPerSec);  // Helper boots and wires.
  ASSERT_TRUE(db.DetachHelpers().ok());
  EXPECT_TRUE(db.AttachHelpers({NodeId(4)}, {NodeId(1)}, 128).ok());
}

TEST(Fault, CrashedOwnerIsUnavailableAndRedoRecoversItsWrites) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  // [0, 512) lives on the master, [512, 1024) on node 1.
  StatusOr<TableId> table = db.CreateKvTable("t", 64, 1024);
  ASSERT_TRUE(table.ok());
  for (Key k = 600; k < 616; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xAA)).ok());
  }
  ASSERT_TRUE(session.Put(*table, 42, std::vector<uint8_t>(64, 0xBB)).ok());

  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());

  // Routed single ops on the dead owner surface Unavailable; other owners
  // keep serving.
  EXPECT_TRUE(session.Get(*table, 600).status().IsUnavailable());
  EXPECT_TRUE(
      session.Put(*table, 600, std::vector<uint8_t>(64, 1)).IsUnavailable());
  EXPECT_TRUE(session.Get(*table, 42).ok());
  // Updates and deletes of a key on the dead owner are unreachable, not
  // absent.
  TxnHandle writer = session.Begin();
  const Status update = writer.Update(*table, 601, std::vector<uint8_t>(64, 2));
  EXPECT_TRUE(update.IsUnavailable()) << update.ToString();
  const Status del = writer.Delete(*table, 602);
  EXPECT_TRUE(del.IsUnavailable()) << del.ToString();
  writer.Abort();

  // Batches fail only the dead owner's keys, each reported per slot.
  StatusOr<MultiGetResult> batch = session.MultiGet(*table, {42, 600, 601});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->records[0].ok());
  EXPECT_TRUE(batch->records[1].status().IsUnavailable());
  EXPECT_TRUE(batch->records[2].status().IsUnavailable());
  StatusOr<MultiPutResult> puts = session.MultiPut(
      *table, {{42, std::vector<uint8_t>(64, 0xBB)},
               {600, std::vector<uint8_t>(64, 3)},
               {601, std::vector<uint8_t>(64, 3)}});
  ASSERT_TRUE(puts.ok());
  EXPECT_TRUE(puts->statuses[0].ok()) << puts->statuses[0].ToString();
  EXPECT_TRUE(puts->statuses[1].IsUnavailable())
      << puts->statuses[1].ToString();
  EXPECT_TRUE(puts->statuses[2].IsUnavailable())
      << puts->statuses[2].ToString();

  // Restart: the crash wiped the unflushed inserts; redo must rebuild them
  // from the WAL tail (§4.3: the log reconstructs partitions).
  const StatusOr<fault::RecoveryReport> report =
      db.RestartNodeAndWait(NodeId(1));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->partitions_recovered, 1);
  EXPECT_GE(report->records_lost_at_crash, 16);
  EXPECT_GE(report->records_replayed, report->records_lost_at_crash);
  EXPECT_GT(report->tail_bytes, 0u);
  EXPECT_GT(report->redo_us, 0);
  EXPECT_GE(report->outage_us, report->redo_us);

  StatusOr<MultiGetResult> after = session.MultiGet(
      *table, std::vector<Key>{600, 601, 602, 615});
  ASSERT_TRUE(after.ok());
  for (const auto& rec : after->records) {
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0xAA));
  }
}

TEST(Fault, CrashedMoveSourceIsUnavailableNotAbsent) {
  // Mid-move a key may still sit at its primary location on a node that
  // just crashed while the secondary does not hold it yet: the §4.3 retry
  // then misses, and the write must surface the primary's Unavailable —
  // NotFound would claim a record that exists on the downed node.
  auto opened = Db::Open(SmallOptions()
                             .WithScheme("logical")
                             .WithLogicalBatchRecords(64)
                             .WithMigrateOnly(workload::TpccTable::kCustomer));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  // Warehouse 2 moves from node 1 to node 2.
  std::vector<Key> keys;
  for (int64_t c = 1; c <= db.tpcc()->customers_per_district(); ++c) {
    keys.push_back(workload::TpccKeys::Customer(2, 1, c));
  }

  bool done = false;
  ASSERT_TRUE(
      db.TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, [&]() { done = true; })
          .ok());
  int round = 0;
  int unavailable = 0;
  const SimTime t0 = db.Now();
  while (!done && db.Now() < t0 + 60 * kUsPerSec) {
    db.RunFor(kUsPerSec / 2);
    if (++round == 3) {
      ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
    }
    for (Key key : keys) {
      TxnHandle txn = session.Begin();
      const Status update = txn.Update(customer, key, std::vector<uint8_t>(64));
      ASSERT_TRUE(update.ok() || update.IsUnavailable())
          << "key " << key << " round " << round << ": " << update.ToString();
      if (update.IsUnavailable()) ++unavailable;
      txn.Abort();
    }
  }
  EXPECT_TRUE(done) << "migration did not finish";
  EXPECT_GT(unavailable, 0) << "the crash never hid a key";
}

TEST(Fault, CrashMigrationTargetAtHalfProgressThenRecover) {
  // The tentpole scenario: crash the migration target at 50% task
  // progress, restart it, redo-replay the log tail — and every key must
  // come out exactly once with its last committed value.
  auto opened = Db::Open(SmallOptions());  // Physiological scheme.
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  const TableId customer = db.table(workload::TpccTable::kCustomer);
  const int64_t per_district = db.tpcc()->customers_per_district();

  std::vector<Key> keys;
  for (int64_t c = 1; c <= per_district; ++c) {
    keys.push_back(workload::TpccKeys::Customer(1, 1, c));
  }

  // Crash node 2 (a migration target) once half the planned moves are done.
  fault::FaultPlan::Crash spec;
  spec.node = NodeId(2);
  spec.at_migration_progress = 0.5;
  db.fault().Schedule(spec);

  bool done = false;
  ASSERT_TRUE(
      db.TriggerRebalance({NodeId(2), NodeId(3)}, 0.5, [&]() { done = true; })
          .ok());

  // Keep writing while the move and the crash play out; a write either
  // commits (and is the new expected value) or fails Unavailable on the
  // dead target and changes nothing.
  std::vector<uint8_t> expected(keys.size(), 0);
  uint8_t round = 0;
  const SimTime t0 = db.Now();
  while (!done && db.Now() < t0 + 600 * kUsPerSec) {
    db.RunFor(kUsPerSec / 2);
    ++round;
    for (size_t i = 0; i < keys.size(); ++i) {
      const Status put =
          session.Put(customer, keys[i], std::vector<uint8_t>(64, round));
      ASSERT_TRUE(put.ok() || put.IsUnavailable()) << put.ToString();
      if (put.ok()) expected[i] = round;
    }
  }
  EXPECT_TRUE(done) << "migration did not finish after the crash";
  EXPECT_EQ(db.fault().crashes_injected(), 1);
  EXPECT_TRUE(db.cluster().node_state(NodeId(2)).crashed);
  const auto& stats = db.scheme().stats();
  EXPECT_TRUE(stats.tasks_failed > 0 ||
              stats.segments_moved == stats.tasks_planned);

  // Restart the target and redo-replay its log tail.
  const StatusOr<fault::RecoveryReport> report =
      db.RestartNodeAndWait(NodeId(2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->partitions_recovered, 1);

  // Exactly once, with the last committed value: every key resolves, slot
  // i answers key i, and the payload is the last acknowledged write.
  StatusOr<MultiGetResult> after = session.MultiGet(customer, keys);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->records.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(after->records[i].ok())
        << "key " << keys[i] << ": " << after->records[i].status().ToString();
    EXPECT_EQ(after->records[i]->key, keys[i]);
    if (expected[i] != 0) {
      EXPECT_EQ(after->records[i]->payload, std::vector<uint8_t>(64, expected[i]))
          << "key " << keys[i] << " lost its last committed write";
    }
  }

  // No key is reachable twice: a full scan sees each customer key once.
  std::set<Key> seen;
  const StatusOr<int64_t> visited = session.Scan(
      customer, KeyRange{keys.front(), keys.back() + 1},
      [&](const storage::Record& r) {
        EXPECT_TRUE(seen.insert(r.key).second)
            << "key " << r.key << " surfaced twice after recovery";
        return true;
      });
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(seen.size(), keys.size());
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());
}

TEST(Fault, FaultPlanInjectsCrashAndAutoRestart) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad()
                             .WithFaultPlan(fault::FaultPlan().CrashAt(
                                 NodeId(1), 2 * kUsPerSec,
                                 /*restart_after=*/3 * kUsPerSec)));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  StatusOr<TableId> table = db.CreateKvTable("t", 64, 1024);
  ASSERT_TRUE(table.ok());
  Session session = db.OpenSession();
  ASSERT_TRUE(session.Put(*table, 700, std::vector<uint8_t>(64, 0x7)).ok());

  db.RunFor(4 * kUsPerSec);  // Past the crash, mid-downtime.
  EXPECT_EQ(db.fault().crashes_injected(), 1);
  EXPECT_TRUE(db.cluster().node_state(NodeId(1)).crashed);
  EXPECT_TRUE(session.Get(*table, 700).status().IsUnavailable());

  db.RunFor(16 * kUsPerSec);  // Past boot + redo.
  EXPECT_EQ(db.fault().restarts_injected(), 1);
  EXPECT_FALSE(db.cluster().node_state(NodeId(1)).crashed);
  ASSERT_EQ(db.recovery().reports().size(), 1u);
  EXPECT_TRUE(session.Get(*table, 700).ok());
}

TEST(Workload, OpenLoopKvHoldsOfferedRate) {
  // Open loop: arrivals are paced by the qps knob alone — the (absurd)
  // think time would throttle a closed loop to a crawl, but must not
  // matter here.
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithSeed(5)
                             .WithoutTpccLoad());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  workload::KvConfig cfg;
  cfg.arrival_qps = 200.0;
  cfg.think_time = 10 * kUsPerSec;
  cfg.batch_size = 4;
  cfg.num_keys = 512;
  cfg.seed = 5;
  auto kv = db.AddKvWorkload(cfg);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();

  (*kv)->Start();
  db.RunFor(10 * kUsPerSec);
  (*kv)->Stop();

  // ~2000 Poisson arrivals in 10 s at 200 qps (sd ~ 45).
  EXPECT_GT((*kv)->issued(), 1700);
  EXPECT_LT((*kv)->issued(), 2300);
  EXPECT_GT((*kv)->committed(), 0);
  EXPECT_LE((*kv)->committed() + (*kv)->aborted(), (*kv)->issued());
}

TEST(Workload, DriversAttachThroughCommonInterface) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;

  workload::ClientPoolConfig pool_cfg;
  pool_cfg.num_clients = 8;
  pool_cfg.think_time = 20 * kUsPerMs;
  db.AddClientPool(pool_cfg);

  workload::KvConfig kv_cfg;
  kv_cfg.num_clients = 4;
  kv_cfg.num_keys = 512;
  kv_cfg.think_time = 10 * kUsPerMs;
  auto kv = db.AddKvWorkload(kv_cfg);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();

  ASSERT_EQ(db.workloads().size(), 2u);
  EXPECT_EQ(db.workloads()[0]->name(), "tpcc");
  EXPECT_EQ(db.workloads()[1]->name(), "kv");

  // Drive both generators through the base interface alone.
  for (const auto& driver : db.workloads()) driver->Start();
  db.RunFor(5 * kUsPerSec);
  for (const auto& driver : db.workloads()) {
    EXPECT_GT(driver->committed(), 0) << driver->name();
    EXPECT_GT(driver->latencies().count(), 0) << driver->name();
    driver->Stop();
  }
}

TEST(Workload, BatchedKvBeatsPerOpThroughput) {
  // The tentpole claim in miniature: same clients, same key space, same
  // think time — owner-grouped batches commit more key ops than the per-op
  // loop because each batch pays one round trip per owner, not per key.
  auto run = [](bool batched) {
    auto opened = Db::Open(DbOptions()
                               .WithNodes(4)
                               .WithActiveNodes(2)
                               .WithBufferPages(2000)
                               .WithSeed(11)
                               .WithoutTpccLoad());
    EXPECT_TRUE(opened.ok());
    Db& db = **opened;
    workload::KvConfig cfg;
    cfg.num_clients = 12;
    cfg.think_time = 5 * kUsPerMs;
    cfg.batch_size = 8;
    cfg.batched = batched;
    cfg.num_keys = 2048;
    cfg.seed = 11;
    auto kv = db.AddKvWorkload(cfg);
    EXPECT_TRUE(kv.ok());
    (*kv)->Start();
    db.RunFor(8 * kUsPerSec);
    (*kv)->Stop();
    return std::pair<int64_t, int64_t>((*kv)->key_ops(),
                                       (*kv)->owner_round_trips());
  };

  const auto [per_op_ops, per_op_rts] = run(false);
  const auto [batched_ops, batched_rts] = run(true);
  EXPECT_GT(per_op_ops, 0);
  EXPECT_GT(batched_ops, per_op_ops);
  // The per-op path never goes through the batch entry point.
  EXPECT_EQ(per_op_rts, 0);
  EXPECT_GT(batched_rts, 0);
}

TEST(Db, CreateKvTableValidatesAndRoutes) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;

  EXPECT_TRUE(db.CreateKvTable("", 100, 1024).status().IsInvalidArgument());
  EXPECT_TRUE(db.CreateKvTable("t", 0, 1024).status().IsInvalidArgument());
  EXPECT_TRUE(db.CreateKvTable("t", 100, 0).status().IsInvalidArgument());

  StatusOr<TableId> table = db.CreateKvTable("t", 100, 1024);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_TRUE(db.CreateKvTable("t", 100, 1024).status().IsAlreadyExists());

  // The key space is split across both active nodes and usable end to end.
  const auto routes = db.Routes(*table);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes.front().owner, NodeId(0));
  EXPECT_EQ(routes.back().owner, NodeId(1));
  Session session = db.OpenSession();
  ASSERT_TRUE(session.Put(*table, 42, std::vector<uint8_t>(100, 7)).ok());
  StatusOr<storage::Record> rec = session.Get(*table, 42);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->payload, std::vector<uint8_t>(100, 7));
}

TEST(Db, RoutesExposeOwnership) {
  auto opened = Db::Open(SmallOptions());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  const auto routes = db.Routes(db.table(workload::TpccTable::kCustomer));
  ASSERT_FALSE(routes.empty());
  for (const TableRoute& r : routes) {
    EXPECT_TRUE(r.partition.valid());
    EXPECT_TRUE(r.owner.valid());
    EXPECT_GT(r.segments, 0u);
  }
}

// --- Self-healing control loop ---------------------------------------------

/// A fast control loop with elasticity disabled, so only the failure
/// detector acts: 200 ms ticks, dead after kDeclareDeadAfter (2) missed
/// windows.
cluster::MasterPolicy HealingPolicy() {
  cluster::MasterPolicy policy;
  policy.check_period = kUsPerSec / 5;
  policy.stats_window = kUsPerSec / 2;
  policy.enable_scale_out = false;
  policy.enable_scale_in = false;
  return policy;
}

bool SawEvent(const Db& db, cluster::ControlEventType type, NodeId node) {
  for (const auto& e : db.control_events()) {
    if (e.type == type && e.node == node) return true;
  }
  return false;
}

int CountEvents(Db& db, cluster::ControlEventType type) {
  return db.master().event_count(type);
}

TEST(DbOptions, ValidatesMasterPolicy) {
  auto with = [](void (*mutate)(cluster::MasterPolicy&)) {
    cluster::MasterPolicy policy;
    mutate(policy);
    return Db::Open(DbOptions()
                        .WithNodes(2)
                        .WithActiveNodes(1)
                        .WithoutTpccLoad()
                        .WithMasterLoop(policy));
  };

  auto bad_period =
      with([](cluster::MasterPolicy& p) { p.check_period = 0; });
  ASSERT_FALSE(bad_period.ok());
  EXPECT_TRUE(bad_period.status().IsInvalidArgument());
  EXPECT_NE(bad_period.status().message().find("check_period"),
            std::string::npos);

  auto bad_window =
      with([](cluster::MasterPolicy& p) { p.stats_window = -1; });
  ASSERT_FALSE(bad_window.ok());
  EXPECT_TRUE(bad_window.status().IsInvalidArgument());

  // A window reaching past the pruned resource history would abort at the
  // first sample; the longest window the history still covers is fine.
  auto long_window = with([](cluster::MasterPolicy& p) {
    p.stats_window = cluster::kResourceHistoryKeep + 1;
  });
  ASSERT_FALSE(long_window.ok());
  EXPECT_TRUE(long_window.status().IsInvalidArgument());
  EXPECT_NE(long_window.status().message().find("stats_window"),
            std::string::npos);
  EXPECT_TRUE(with([](cluster::MasterPolicy& p) {
                p.stats_window = cluster::kResourceHistoryKeep;
              }).ok());

  auto inverted = with([](cluster::MasterPolicy& p) {
    p.cpu_lower = 0.9;
    p.cpu_upper = 0.2;
  });
  ASSERT_FALSE(inverted.ok());
  EXPECT_TRUE(inverted.status().IsInvalidArgument());
  EXPECT_NE(inverted.status().message().find("cpu_lower"), std::string::npos);

  auto out_of_range =
      with([](cluster::MasterPolicy& p) { p.cpu_upper = 1.5; });
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_TRUE(out_of_range.status().IsInvalidArgument());

  auto bad_trigger =
      with([](cluster::MasterPolicy& p) { p.trigger_after = 0; });
  ASSERT_FALSE(bad_trigger.ok());
  EXPECT_TRUE(bad_trigger.status().IsInvalidArgument());

  auto bad_backoff = with(
      [](cluster::MasterPolicy& p) { p.recovery.restart_backoff = -1; });
  ASSERT_FALSE(bad_backoff.ok());
  EXPECT_TRUE(bad_backoff.status().IsInvalidArgument());

  auto bad_exclude = with([](cluster::MasterPolicy& p) {
    p.recovery.exclude_after_crashes = -2;
  });
  ASSERT_FALSE(bad_exclude.ok());
  EXPECT_TRUE(bad_exclude.status().IsInvalidArgument());

  auto good = with([](cluster::MasterPolicy&) {});
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST(SelfHealing, DetectorRestartsCrashedNodeWithoutOperatorCalls) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad()
                             .WithMasterLoop(HealingPolicy()));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("t", 64, 1024);
  ASSERT_TRUE(table.ok());
  // [512, 1024) lives on node 1; these writes die with it and must come
  // back via redo issued by the master, not by any Db::RestartNode call.
  for (Key k = 600; k < 616; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xCD)).ok());
  }
  db.RunFor(kUsPerSec);  // The detector observes node 1 alive.

  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
  EXPECT_TRUE(session.Get(*table, 600).status().IsUnavailable());

  // No operator restart: the heartbeat detector must declare the node dead
  // after 2 missed windows and heal it (5 s boot + redo).
  const SimTime t0 = db.Now();
  while ((db.cluster().node_state(NodeId(1)).crashed ||
          !db.cluster().node(NodeId(1))->IsActive()) &&
         db.Now() < t0 + 30 * kUsPerSec) {
    db.RunFor(kUsPerSec / 5);
  }

  EXPECT_TRUE(db.cluster().node(NodeId(1))->IsActive());
  EXPECT_FALSE(db.cluster().node_state(NodeId(1)).crashed);
  EXPECT_EQ(CountEvents(db, cluster::ControlEventType::kNodeDeclaredDead), 1);
  EXPECT_EQ(CountEvents(db, cluster::ControlEventType::kRestartIssued), 1);
  EXPECT_TRUE(SawEvent(db, cluster::ControlEventType::kNodeDeclaredDead,
                       NodeId(1)));
  EXPECT_TRUE(
      SawEvent(db, cluster::ControlEventType::kRestartIssued, NodeId(1)));
  EXPECT_TRUE(
      SawEvent(db, cluster::ControlEventType::kNodeRecovered, NodeId(1)));
  // Detection was fast: declared within ~2 windows + a tick of the crash.
  for (const auto& e : db.control_events()) {
    if (e.type == cluster::ControlEventType::kNodeDeclaredDead) {
      EXPECT_LE(e.at - t0, kUsPerSec);
    }
  }

  // The redo issued by the master rebuilt the wiped inserts.
  for (Key k : {Key(600), Key(607), Key(615)}) {
    StatusOr<storage::Record> rec = session.Get(*table, k);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0xCD));
  }
}

TEST(SelfHealing, AutoHealOffDetectsButNeverRestarts) {
  cluster::MasterPolicy policy = HealingPolicy();
  policy.recovery.auto_heal = false;
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad()
                             .WithMasterLoop(policy));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  ASSERT_TRUE(db.CreateKvTable("t", 64, 1024).ok());
  db.RunFor(kUsPerSec);
  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
  db.RunFor(10 * kUsPerSec);
  EXPECT_EQ(CountEvents(db, cluster::ControlEventType::kNodeDeclaredDead), 1);
  EXPECT_EQ(CountEvents(db, cluster::ControlEventType::kRestartIssued), 0);
  EXPECT_FALSE(db.cluster().node(NodeId(1))->IsActive());
  EXPECT_TRUE(db.cluster().node_state(NodeId(1)).crashed);
}

TEST(SelfHealing, FlakyNodeIsDrainedAndExcluded) {
  cluster::MasterPolicy policy = HealingPolicy();
  policy.recovery.exclude_after_crashes = 2;
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad()
                             .WithMasterLoop(policy));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("t", 64, 1024);
  ASSERT_TRUE(table.ok());
  for (Key k = 600; k < 632; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0x5A)).ok());
  }
  db.RunFor(kUsPerSec);

  // Crash #1: restart-in-place.
  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
  const SimTime t0 = db.Now();
  while (db.cluster().node_state(NodeId(1)).crashed &&
         db.Now() < t0 + 30 * kUsPerSec) {
    db.RunFor(kUsPerSec / 5);
  }
  ASSERT_FALSE(db.cluster().node_state(NodeId(1)).crashed);
  EXPECT_FALSE(db.cluster().node_state(NodeId(1)).excluded);
  db.RunFor(kUsPerSec);  // Seen alive again.

  // Crash #2: the node is now flaky — restart once more for data access,
  // drain everything onto survivors, power off, exclude.
  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
  const SimTime t1 = db.Now();
  while (!db.cluster().node_state(NodeId(1)).excluded &&
         db.Now() < t1 + 90 * kUsPerSec) {
    db.RunFor(kUsPerSec / 5);
  }

  EXPECT_TRUE(db.cluster().node_state(NodeId(1)).excluded);
  EXPECT_FALSE(db.cluster().node(NodeId(1))->IsActive());
  EXPECT_TRUE(db.cluster().catalog().PartitionsOwnedBy(NodeId(1)).empty());
  EXPECT_TRUE(
      SawEvent(db, cluster::ControlEventType::kDrainStarted, NodeId(1)));
  EXPECT_TRUE(
      SawEvent(db, cluster::ControlEventType::kNodeExcluded, NodeId(1)));
  EXPECT_EQ(db.cluster().node_state(NodeId(1)).declared_dead, 2);
  // The detector's count agrees with the recovery subsystem's ground truth.
  EXPECT_EQ(db.cluster().node_state(NodeId(1)).crashes, 2);

  // Every committed write survived the crashes and the drain: the key
  // range moved to survivors with its data.
  for (Key k = 600; k < 632; ++k) {
    StatusOr<storage::Record> rec = session.Get(*table, k);
    ASSERT_TRUE(rec.ok()) << "key " << k << ": " << rec.status().ToString();
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0x5A));
  }
}

TEST(NodeRoles, NodeInRedoAfterRestartTakesNoRoleButDrainSurvivor) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("t", 64, 1024);
  ASSERT_TRUE(table.ok());
  // Writes on node 1 after its last checkpoint give the restart a redo.
  for (Key k = 600; k < 632; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0x11)).ok());
  }
  const NodeId n(1);
  ASSERT_TRUE(db.CrashNode(n).ok());
  ASSERT_TRUE(db.RestartNode(n).ok());
  while (!db.cluster().node(n)->IsActive()) db.RunFor(kUsPerMs / 10);

  // Booted, but the WAL tail is still being replayed.
  ASSERT_TRUE(db.cluster().node_state(n).crashed);
  const cluster::Cluster& c = db.cluster();
  EXPECT_FALSE(c.EligibleFor(n, cluster::Role::kRecruit));
  EXPECT_FALSE(c.EligibleFor(n, cluster::Role::kHeatTarget));
  EXPECT_FALSE(c.EligibleFor(n, cluster::Role::kReplicaHost));
  EXPECT_FALSE(c.EligibleFor(n, cluster::Role::kScaleInVictim));
  EXPECT_TRUE(c.EligibleFor(n, cluster::Role::kDrainSurvivor));

  db.RunFor(kUsPerSec);  // Redo done.
  EXPECT_FALSE(db.cluster().node_state(n).crashed);
  EXPECT_TRUE(c.EligibleFor(n, cluster::Role::kReplicaHost));
  EXPECT_TRUE(c.EligibleFor(n, cluster::Role::kScaleInVictim));
}

TEST(NodeRoles, PartitionedNodeIsNoHeatTargetUntilHealedAndReporting) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(3)
                             .WithoutTpccLoad()
                             .WithMasterLoop(HealingPolicy()));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  ASSERT_TRUE(db.CreateKvTable("t", 64, 1024).ok());
  const NodeId n(2);
  db.RunFor(kUsPerSec);  // The detector watches node 2.
  EXPECT_TRUE(db.cluster().EligibleFor(n, cluster::Role::kHeatTarget));

  ASSERT_TRUE(db.PartitionNode(n).ok());
  const SimTime t0 = db.Now();
  while (!SawEvent(db, cluster::ControlEventType::kNodeDeclaredDead, n) &&
         db.Now() < t0 + 10 * kUsPerSec) {
    db.RunFor(kUsPerSec / 5);
  }
  ASSERT_TRUE(SawEvent(db, cluster::ControlEventType::kNodeDeclaredDead, n));
  EXPECT_FALSE(db.cluster().EligibleFor(n, cluster::Role::kHeatTarget));

  // Healed, but not yet seen by the detector: still unwatched.
  ASSERT_TRUE(db.HealPartition(n).ok());
  EXPECT_FALSE(db.cluster().node_state(n).watched);
  EXPECT_FALSE(db.cluster().EligibleFor(n, cluster::Role::kHeatTarget));

  db.RunFor(kUsPerSec);  // Reports again.
  EXPECT_TRUE(db.cluster().node_state(n).watched);
  EXPECT_TRUE(db.cluster().EligibleFor(n, cluster::Role::kHeatTarget));
}

TEST(NodeRoles, ExcludedNodeIsRefusedAsRecruitAndHelper) {
  cluster::MasterPolicy policy = HealingPolicy();
  policy.recovery.exclude_after_crashes = 1;
  auto opened = Db::Open(DbOptions()
                             .WithNodes(4)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad()
                             .WithMasterLoop(policy));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("t", 64, 1024);
  ASSERT_TRUE(table.ok());
  for (Key k = 600; k < 632; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0x22)).ok());
  }
  const NodeId n(1);
  db.RunFor(kUsPerSec);
  ASSERT_TRUE(db.CrashNode(n).ok());
  const SimTime t0 = db.Now();
  while (!db.cluster().node_state(n).excluded &&
         db.Now() < t0 + 90 * kUsPerSec) {
    db.RunFor(kUsPerSec / 5);
  }
  ASSERT_TRUE(db.cluster().node_state(n).excluded);

  // A powered-off standby, refused only for being excluded.
  EXPECT_FALSE(db.cluster().node(n)->IsActive());
  EXPECT_FALSE(db.cluster().EligibleFor(n, cluster::Role::kRecruit));
  EXPECT_TRUE(db.cluster().EligibleFor(NodeId(3), cluster::Role::kRecruit));
  const Status helper = db.AttachHelpers({n}, {NodeId(0)}, 128);
  EXPECT_TRUE(helper.IsFailedPrecondition()) << helper.ToString();
  EXPECT_EQ(helper.message(), "helper node 1 is excluded from duty");
}

TEST(SelfHealing, HelperFailoverFallsBackRecruitsAndLosesNoWrites) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(5)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad()
                             .WithMasterLoop(HealingPolicy()));
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  Session session = db.OpenSession();
  StatusOr<TableId> table = db.CreateKvTable("t", 64, 1024);
  ASSERT_TRUE(table.ok());

  // Node 2 becomes the helper shipping node 1's log (Fig. 8 wiring).
  ASSERT_TRUE(
      db.AttachHelpers({NodeId(2)}, {NodeId(1)}, /*remote_buffer_pages=*/256)
          .ok());
  db.RunFor(7 * kUsPerSec);  // Helper boots (5 s), wires, reports alive.
  ASSERT_TRUE(db.cluster().node(NodeId(1))->log().HasHelper());

  // Committed writes mid-log-shipping: their WAL records went to the
  // helper; they must survive everything below.
  for (Key k = 600; k < 632; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xE1)).ok());
  }

  // Crash the helper mid-shipping. The master must detach it, fall node 1
  // back to local logging, and recruit a standby replacement.
  ASSERT_TRUE(db.CrashNode(NodeId(2)).ok());
  const SimTime t0 = db.Now();
  while (db.Now() < t0 + 30 * kUsPerSec &&
         !SawEvent(db, cluster::ControlEventType::kHelperRecruited,
                   NodeId(3))) {
    db.RunFor(kUsPerSec / 5);
  }

  EXPECT_TRUE(
      SawEvent(db, cluster::ControlEventType::kHelperLost, NodeId(2)));
  EXPECT_TRUE(
      SawEvent(db, cluster::ControlEventType::kHelperFallback, NodeId(1)));
  EXPECT_TRUE(
      SawEvent(db, cluster::ControlEventType::kHelperRecruited, NodeId(3)));
  EXPECT_EQ(CountEvents(db, cluster::ControlEventType::kHelperLost), 1);

  // The replacement helper (node 3) boots and is re-wired.
  db.RunFor(7 * kUsPerSec);
  EXPECT_TRUE(db.cluster().node(NodeId(3))->IsActive());
  EXPECT_TRUE(db.cluster().node(NodeId(1))->log().HasHelper());

  // Writes committed while shipping to the replacement.
  for (Key k = 632; k < 640; ++k) {
    ASSERT_TRUE(session.Put(*table, k, std::vector<uint8_t>(64, 0xE2)).ok());
  }

  // Now crash the *assisted* node and let the master heal it: redo must
  // replay every committed write — nothing was lost to the dead helper.
  ASSERT_TRUE(db.CrashNode(NodeId(1)).ok());
  const SimTime t1 = db.Now();
  while ((db.cluster().node_state(NodeId(1)).crashed ||
          !db.cluster().node(NodeId(1))->IsActive()) &&
         db.Now() < t1 + 30 * kUsPerSec) {
    db.RunFor(kUsPerSec / 5);
  }
  ASSERT_FALSE(db.cluster().node_state(NodeId(1)).crashed);

  for (Key k = 600; k < 632; ++k) {
    StatusOr<storage::Record> rec = session.Get(*table, k);
    ASSERT_TRUE(rec.ok()) << "key " << k << ": " << rec.status().ToString();
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0xE1));
  }
  for (Key k = 632; k < 640; ++k) {
    StatusOr<storage::Record> rec = session.Get(*table, k);
    ASSERT_TRUE(rec.ok()) << "key " << k << ": " << rec.status().ToString();
    EXPECT_EQ(rec->payload, std::vector<uint8_t>(64, 0xE2));
  }
}

// --- Heat-driven rebalancing -------------------------------------------------

/// HealingPolicy plus an armed BalancePolicy with fast reaction times.
cluster::MasterPolicy BalancingPolicy() {
  cluster::MasterPolicy policy = HealingPolicy();
  policy.balance.enabled = true;
  policy.balance.trigger_ratio = 1.3;
  policy.balance.ewma_alpha = 0.5;
  policy.balance.trigger_after = 2;
  policy.balance.cooldown = 2 * kUsPerSec;
  policy.balance.max_moves_per_round = 3;
  policy.balance.min_total_heat = 20.0;
  return policy;
}

workload::KvConfig SkewedKv(double qps, int64_t keys) {
  workload::KvConfig cfg;
  cfg.arrival_qps = qps;
  cfg.read_ratio = 0.9;
  cfg.batch_size = 4;
  cfg.num_keys = keys;
  cfg.value_bytes = 100;
  cfg.zipf_theta = 0.99;  // Hot head is contiguous: rank r -> key r.
  cfg.segments_per_partition = 8;
  cfg.seed = 7;
  return cfg;
}

TEST(DbOptions, ValidatesBalancePolicy) {
  auto with = [](void (*mutate)(cluster::BalancePolicy&)) {
    cluster::MasterPolicy policy;
    policy.balance.enabled = true;
    mutate(policy.balance);
    return Db::Open(DbOptions()
                        .WithNodes(2)
                        .WithActiveNodes(2)
                        .WithoutTpccLoad()
                        .WithMasterLoop(policy));
  };

  auto bad_ratio =
      with([](cluster::BalancePolicy& b) { b.trigger_ratio = 1.0; });
  ASSERT_FALSE(bad_ratio.ok());
  EXPECT_TRUE(bad_ratio.status().IsInvalidArgument());
  EXPECT_NE(bad_ratio.status().message().find("trigger_ratio"),
            std::string::npos);

  auto bad_alpha = with([](cluster::BalancePolicy& b) { b.ewma_alpha = 0.0; });
  ASSERT_FALSE(bad_alpha.ok());
  EXPECT_TRUE(bad_alpha.status().IsInvalidArgument());
  EXPECT_NE(bad_alpha.status().message().find("ewma_alpha"),
            std::string::npos);
  EXPECT_FALSE(
      with([](cluster::BalancePolicy& b) { b.ewma_alpha = 1.5; }).ok());

  auto bad_after = with([](cluster::BalancePolicy& b) { b.trigger_after = 0; });
  ASSERT_FALSE(bad_after.ok());
  EXPECT_TRUE(bad_after.status().IsInvalidArgument());

  auto bad_cooldown =
      with([](cluster::BalancePolicy& b) { b.cooldown = -1; });
  ASSERT_FALSE(bad_cooldown.ok());
  EXPECT_TRUE(bad_cooldown.status().IsInvalidArgument());

  auto bad_budget =
      with([](cluster::BalancePolicy& b) { b.max_moves_per_round = 0; });
  ASSERT_FALSE(bad_budget.ok());
  EXPECT_TRUE(bad_budget.status().IsInvalidArgument());

  auto bad_floor =
      with([](cluster::BalancePolicy& b) { b.min_total_heat = -5.0; });
  ASSERT_FALSE(bad_floor.ok());
  EXPECT_TRUE(bad_floor.status().IsInvalidArgument());

  // A misconfigured-but-disabled policy is rejected too: the typo must
  // surface now, not when the knob is eventually enabled.
  cluster::MasterPolicy disabled;
  disabled.balance.enabled = false;
  disabled.balance.trigger_ratio = 0.5;
  auto still_bad = Db::Open(DbOptions()
                                .WithNodes(2)
                                .WithActiveNodes(2)
                                .WithoutTpccLoad()
                                .WithMasterLoop(disabled));
  ASSERT_FALSE(still_bad.ok());
  EXPECT_TRUE(still_bad.status().IsInvalidArgument());

  auto good = with([](cluster::BalancePolicy&) {});
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST(HeatBalance, SkewTriggersMovesEventsAndKeepsDataReadable) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(3)
                             .WithActiveNodes(3)
                             .WithBufferPages(4000)
                             .WithSeed(7)
                             .WithoutTpccLoad()
                             .WithMasterLoop(BalancingPolicy()));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  auto kv = db.AddKvWorkload(SkewedKv(/*qps=*/300, /*keys=*/4096));
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  workload::KvWorkload& driver = **kv;
  const TableId table = driver.table();

  // The head of the Zipf distribution lives in [0, 1365) — all on node 0.
  const auto before = db.Routes(table);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before.front().owner, NodeId(0));

  driver.Start();
  const SimTime t0 = db.Now();
  while (db.master().heat_moves_completed() < 1 &&
         db.Now() < t0 + 30 * kUsPerSec) {
    db.RunFor(kUsPerSec / 2);
  }
  driver.Stop();
  db.RunFor(kUsPerSec);  // Let in-flight moves settle.

  EXPECT_GE(db.master().heat_rebalances(), 1);
  EXPECT_GE(db.master().heat_moves_completed(), 1);
  // Every decision is on the public timeline: trigger on the hot node,
  // per-segment plans, and the round completion.
  EXPECT_TRUE(SawEvent(db, cluster::ControlEventType::kHeatImbalance,
                       NodeId(0)));
  int planned = 0, rebalanced = 0;
  for (const auto& e : db.control_events()) {
    if (e.type == cluster::ControlEventType::kHeatMovePlanned) ++planned;
    if (e.type == cluster::ControlEventType::kHeatRebalanced) ++rebalanced;
  }
  EXPECT_GE(planned, 1);
  EXPECT_GE(rebalanced, 1);
  // The hot head's ownership changed hands; the catalog stayed sound.
  bool head_moved = false;
  for (const auto& r : db.Routes(table)) {
    if (r.range.lo == 0 && r.owner != NodeId(0)) head_moved = true;
  }
  EXPECT_TRUE(head_moved) << "hottest range still on the hot node";
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());

  // Data is intact across the online moves.
  Session session = db.OpenSession();
  for (Key k = 0; k < 64; ++k) {
    StatusOr<storage::Record> rec = session.Get(table, k);
    ASSERT_TRUE(rec.ok()) << "key " << k << ": " << rec.status().ToString();
  }
}

TEST(HeatBalance, CrashMidMoveIsAbandonedAndReplanned) {
  cluster::MasterPolicy policy = BalancingPolicy();
  // Big cost scale: each segment copy takes long enough that the
  // at-progress-0 crash (polled every 20 ms) always lands mid-stream.
  DbOptions options = DbOptions()
                          .WithNodes(2)
                          .WithActiveNodes(2)
                          .WithBufferPages(4000)
                          .WithSeed(7)
                          .WithoutTpccLoad()
                          .WithMasterLoop(policy)
                          .WithCostScale(400.0)
                          .WithFaultPlan(fault::FaultPlan()
                                             .CrashAtMigrationProgress(
                                                 NodeId(1), 0.0));
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  auto kv = db.AddKvWorkload(SkewedKv(/*qps=*/300, /*keys=*/4096));
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  workload::KvWorkload& driver = **kv;
  const TableId table = driver.table();

  driver.Start();
  // Phase 1: the balancer plans moves onto node 1, which crashes the
  // moment the migration starts — every move of the round is abandoned.
  const SimTime t0 = db.Now();
  while (CountEvents(db, cluster::ControlEventType::kHeatMoveAbandoned) < 1 &&
         db.Now() < t0 + 30 * kUsPerSec) {
    db.RunFor(kUsPerSec / 2);
  }
  ASSERT_GE(CountEvents(db, cluster::ControlEventType::kHeatMoveAbandoned), 1)
      << "crash mid-move must abandon the round's moves";
  EXPECT_TRUE(SawEvent(db, cluster::ControlEventType::kHeatMoveAbandoned,
                       NodeId(0)));
  EXPECT_EQ(db.master().heat_moves_completed(), 0);
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants())
      << "abandoned moves must roll cleanly off the books";

  // Phase 2: the self-healing loop restarts node 1 (no operator call); once
  // it serves again the still-standing imbalance re-triggers and the same
  // hot segments are re-planned — this time the moves install.
  const SimTime t1 = db.Now();
  while (db.master().heat_moves_completed() < 1 &&
         db.Now() < t1 + 60 * kUsPerSec) {
    db.RunFor(kUsPerSec / 2);
  }
  driver.Stop();
  db.RunFor(kUsPerSec);

  EXPECT_GE(CountEvents(db, cluster::ControlEventType::kRestartIssued), 1);
  EXPECT_GE(db.master().heat_moves_completed(), 1)
      << "abandoned moves were never re-planned";
  EXPECT_GE(db.master().heat_rebalances(), 2);
  // Part of node 0's original half of the key space now lives on node 1.
  // (The dominant head segment itself stays: with one other node, moving
  // it would merely relocate the hotspot, which the planner refuses.)
  bool spread = false;
  for (const auto& r : db.Routes(table)) {
    if (r.range.hi <= 2048 && r.owner == NodeId(1)) spread = true;
  }
  EXPECT_TRUE(spread) << "no hot range ever moved onto the recovered node";
  EXPECT_TRUE(db.cluster().catalog().CheckInvariants());

  // No committed write was lost across the crash + abandoned + replayed
  // moves (reads go through the §4.3 two-pointer protocol).
  Session session = db.OpenSession();
  for (Key k = 0; k < 64; ++k) {
    StatusOr<storage::Record> rec = session.Get(table, k);
    ASSERT_TRUE(rec.ok()) << "key " << k << ": " << rec.status().ToString();
  }
}

TEST(Db, AddKvWorkloadValidatesZipfAndPresplitsSegments) {
  auto opened = Db::Open(DbOptions()
                             .WithNodes(2)
                             .WithActiveNodes(2)
                             .WithoutTpccLoad());
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;

  workload::KvConfig bad = SkewedKv(100, 1024);
  bad.zipf_theta = 1.0;  // The Gray et al. generator needs theta < 1.
  EXPECT_TRUE(db.AddKvWorkload(bad).status().IsInvalidArgument());

  workload::KvConfig shifted = SkewedKv(100, 1024);
  shifted.zipf_offset = 1024;  // Rotation must stay inside the key space.
  EXPECT_TRUE(db.AddKvWorkload(shifted).status().IsInvalidArgument());
  shifted.zipf_offset = -1;
  EXPECT_TRUE(db.AddKvWorkload(shifted).status().IsInvalidArgument());

  workload::KvConfig cfg = SkewedKv(100, 1024);
  cfg.segments_per_partition = 4;
  auto kv = db.AddKvWorkload(cfg);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  // Two partitions (one per active node), each pre-split into 4 segments.
  for (const auto& r : db.Routes((*kv)->table())) {
    EXPECT_EQ(r.segments, 4u) << "range [" << r.range.lo << ", "
                              << r.range.hi << ")";
  }
}

}  // namespace
}  // namespace wattdb
