// Replay pins for the client loop shared by every workload driver: the
// TPC-C client pool (closed loop, and under an admission cap where a shed
// transaction counts as aborted), the Fig. 3 micro read/update mix, and the
// YCSB-style KV driver in its closed-loop batched, per-key-with-history and
// open-loop modes. Each arm runs a few simulated seconds and asserts the
// exact counters, latency count and latency sum the driver produced: the
// loop is deterministic, so any change to its RNG draw order, stagger,
// think/backoff reschedule or bookkeeping shows up here as a moved number.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>

#include "api/db.h"
#include "chaos/history.h"
#include "common/stats.h"

namespace wattdb {
namespace {

/// Sum of the recorded latencies (us). Latencies are whole microseconds, so
/// the sum is an exact integer well below 2^53 and mean * count recovers it.
int64_t LatencySum(const Histogram& h) {
  return std::llround(h.mean() * static_cast<double>(h.count()));
}

/// FNV-1a over every recorded op, in record order.
uint64_t HistoryDigest(const chaos::HistoryRecorder& recorder) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const chaos::HistoryOp& op : recorder.ops()) {
    mix(op.id);
    mix(static_cast<uint64_t>(op.client));
    mix(static_cast<uint64_t>(op.kind));
    mix(static_cast<uint64_t>(op.key));
    mix(op.seq);
    mix(static_cast<uint64_t>(op.outcome));
    mix(static_cast<uint64_t>(op.invoked_at));
    mix(static_cast<uint64_t>(op.responded_at));
    mix(op.from_replica ? 1 : 0);
  }
  return h;
}

DbOptions TpccOptions() {
  return DbOptions()
      .WithNodes(4)
      .WithActiveNodes(2)
      .WithBufferPages(2000)
      .WithWarehouses(2)
      .WithFill(0.05)
      .WithHomeNodes({NodeId(0), NodeId(1)})
      .WithSeed(3);
}

DbOptions KvOptions() {
  return DbOptions()
      .WithNodes(4)
      .WithActiveNodes(2)
      .WithBufferPages(2000)
      .WithSeed(5)
      .WithoutTpccLoad();
}

TEST(WorkloadLoop, TpccPoolClosedLoop) {
  auto opened = Db::Open(TpccOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  workload::ClientPoolConfig cfg;
  cfg.num_clients = 8;
  cfg.think_time = 20 * kUsPerMs;
  cfg.seed = 41;
  workload::ClientPool& pool = db.AddClientPool(cfg);
  chaos::HistoryRecorder recorder;
  pool.set_history(&recorder);

  pool.Start();
  db.RunFor(3 * kUsPerSec);
  pool.Stop();

  EXPECT_EQ(pool.committed(), 624);
  EXPECT_EQ(pool.aborted(), 3);
  EXPECT_EQ(pool.shed(), 0);
  EXPECT_EQ(pool.retried(), 0);
  EXPECT_EQ(pool.dropped(), 0);
  EXPECT_EQ(pool.latencies().count(), 624);
  EXPECT_EQ(LatencySum(pool.latencies()), 11256141);
  // One kTxn marker per finished transaction, committed or not.
  EXPECT_EQ(recorder.size(), 627u);
  EXPECT_EQ(HistoryDigest(recorder), 9603725952098715352ULL);
}

TEST(WorkloadLoop, TpccPoolShedCountsAsAborted) {
  admission::AdmissionPolicy ap;
  ap.enabled = true;
  ap.max_queue_ops = 16;
  auto opened = Db::Open(TpccOptions().WithAdmissionPolicy(ap));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  workload::ClientPoolConfig cfg;
  cfg.num_clients = 16;
  cfg.think_time = 5 * kUsPerMs;
  cfg.seed = 43;
  workload::ClientPool& pool = db.AddClientPool(cfg);

  pool.Start();
  db.RunFor(2 * kUsPerSec);
  pool.Stop();

  EXPECT_EQ(pool.committed(), 1059);
  // The pool never retries: every shed transaction is dropped and counted
  // aborted, next to the ordinary aborts.
  EXPECT_EQ(pool.aborted(), 3487);
  EXPECT_EQ(pool.shed(), 3109);
  EXPECT_EQ(pool.retried(), 0);
  EXPECT_EQ(pool.dropped(), 3109);
  EXPECT_EQ(pool.latencies().count(), 1059);
  EXPECT_EQ(LatencySum(pool.latencies()), 1994817);
}

TEST(WorkloadLoop, MicroMix) {
  auto opened = Db::Open(TpccOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  workload::MicroConfig cfg;
  cfg.num_clients = 8;
  cfg.think_time = 10 * kUsPerMs;
  cfg.update_ratio = 0.5;
  cfg.seed = 47;
  workload::MicroWorkload& micro = db.AddMicroWorkload(cfg);

  micro.Start();
  db.RunFor(3 * kUsPerSec);
  micro.Stop();

  EXPECT_EQ(micro.committed(), 1882);
  EXPECT_EQ(micro.aborted(), 0);
  EXPECT_EQ(micro.latencies().count(), 1882);
  EXPECT_EQ(LatencySum(micro.latencies()), 5718539);
}

/// Every counter the KV driver exposes, in one comparable value.
struct KvBooks {
  int64_t committed, aborted, issued, key_ops, owner_round_trips,
      straggler_retries, shed, retried, dropped, slo_met, retry_abandoned,
      latency_count, latency_sum;
  bool operator==(const KvBooks& o) const {
    return committed == o.committed && aborted == o.aborted &&
           issued == o.issued && key_ops == o.key_ops &&
           owner_round_trips == o.owner_round_trips &&
           straggler_retries == o.straggler_retries && shed == o.shed &&
           retried == o.retried && dropped == o.dropped &&
           slo_met == o.slo_met && retry_abandoned == o.retry_abandoned &&
           latency_count == o.latency_count && latency_sum == o.latency_sum;
  }
};

std::ostream& operator<<(std::ostream& os, const KvBooks& b) {
  return os << "{committed=" << b.committed << " aborted=" << b.aborted
            << " issued=" << b.issued << " key_ops=" << b.key_ops
            << " owner_round_trips=" << b.owner_round_trips
            << " straggler_retries=" << b.straggler_retries
            << " shed=" << b.shed << " retried=" << b.retried
            << " dropped=" << b.dropped << " slo_met=" << b.slo_met
            << " retry_abandoned=" << b.retry_abandoned
            << " latency_count=" << b.latency_count
            << " latency_sum=" << b.latency_sum << "}";
}

KvBooks BooksOf(const workload::KvWorkload& kv) {
  return KvBooks{kv.committed(),
                 kv.aborted(),
                 kv.issued(),
                 kv.key_ops(),
                 kv.owner_round_trips(),
                 kv.straggler_retries(),
                 kv.shed(),
                 kv.retried(),
                 kv.dropped(),
                 kv.slo_met(),
                 kv.retry_abandoned(),
                 kv.latencies().count(),
                 LatencySum(kv.latencies())};
}

TEST(WorkloadLoop, KvClosedLoopBatched) {
  auto opened = Db::Open(KvOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  workload::KvConfig cfg;
  cfg.num_clients = 8;
  cfg.think_time = 5 * kUsPerMs;
  cfg.read_ratio = 0.8;
  cfg.batch_size = 6;
  cfg.num_keys = 1024;
  cfg.zipf_theta = 0.9;
  cfg.zipf_offset = 300;
  cfg.seed = 53;
  auto kv = db.AddKvWorkload(cfg);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  workload::KvWorkload& driver = **kv;

  driver.Start();
  db.RunFor(1 * kUsPerSec);
  EXPECT_EQ(BooksOf(driver),
            (KvBooks{1315, 0, 1315, 7890, 1008, 0, 0, 0, 0, 0, 0, 1315,
                     1353624}));
  // The books restart; the clients keep running.
  driver.ResetStats();
  db.RunFor(2 * kUsPerSec);
  driver.Stop();
  EXPECT_EQ(BooksOf(driver),
            (KvBooks{2744, 0, 2744, 16464, 2123, 0, 0, 0, 0, 0, 0, 2744,
                     2473269}));
}

TEST(WorkloadLoop, KvPerKeyWithHistory) {
  auto opened = Db::Open(KvOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  workload::KvConfig cfg;
  cfg.num_clients = 6;
  cfg.think_time = 10 * kUsPerMs;
  cfg.read_ratio = 0.6;
  cfg.batch_size = 2;
  cfg.batched = false;
  cfg.num_keys = 64;
  cfg.value_bytes = 16;
  cfg.history_payloads = true;
  cfg.seed = 59;
  auto kv = db.AddKvWorkload(cfg);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  workload::KvWorkload& driver = **kv;
  chaos::HistoryRecorder recorder;
  driver.set_history(&recorder);

  driver.Start();
  db.RunFor(3 * kUsPerSec);
  driver.Stop();

  EXPECT_EQ(BooksOf(driver),
            (KvBooks{1656, 0, 1656, 3312, 0, 0, 0, 0, 0, 0, 0, 1656,
                     1688255}));
  // One op per key of every committed transaction, and Load()'s seqs.
  EXPECT_EQ(recorder.size(), 3312u);
  EXPECT_EQ(recorder.initial().size(), 64u);
  EXPECT_EQ(HistoryDigest(recorder), 2025231144934753429ULL);
}

TEST(WorkloadLoop, KvOpenLoopShedRetriesAndSlo) {
  admission::AdmissionPolicy ap;
  ap.enabled = true;
  ap.max_queue_ops = 8;
  DbOptions options = KvOptions().WithAdmissionPolicy(ap);
  // Expensive ops so the offered load overruns the small cap.
  options.cluster.costs.cpu_record_read_us = 300;
  options.cluster.costs.cpu_record_write_us = 600;
  auto opened = Db::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Db& db = **opened;
  workload::KvConfig cfg;
  cfg.arrival_qps = 1200;
  cfg.count_at_completion = true;
  cfg.batch_priority = true;
  cfg.read_ratio = 0.5;
  cfg.batch_size = 4;
  cfg.num_keys = 1024;
  cfg.value_bytes = 64;
  cfg.shed_retries = 2;
  cfg.retry_backoff = 5 * kUsPerMs;
  cfg.slo_us = 40 * kUsPerMs;
  cfg.seed = 61;
  auto kv = db.AddKvWorkload(cfg);
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  workload::KvWorkload& driver = **kv;

  driver.Start();
  db.RunFor(2 * kUsPerSec);
  EXPECT_EQ(BooksOf(driver),
            (KvBooks{707, 1738, 2468, 2828, 1655, 0, 5885, 4149, 1738, 705, 0,
                     707, 2366061}));
  driver.Stop();
  // Drain: completion-time bookings and pending backoff retries fire.
  db.RunFor(2 * kUsPerSec);
  EXPECT_EQ(BooksOf(driver),
            (KvBooks{708, 1739, 2468, 2832, 1655, 0, 5888, 4149, 1739, 706,
                     21, 708, 2369719}));
  // Every arrival resolved exactly once.
  EXPECT_EQ(driver.issued(), driver.committed() + driver.aborted() +
                                 driver.retry_abandoned());
}

}  // namespace
}  // namespace wattdb
