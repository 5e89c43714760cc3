#ifndef WATTDB_WORKLOAD_KV_H_
#define WATTDB_WORKLOAD_KV_H_

#include <map>
#include <string>
#include <vector>

#include "api/session.h"
#include "workload/driver.h"

namespace wattdb::workload {

/// YCSB-style key/value workload: closed-loop clients reading and upserting
/// uniform or Zipf-distributed keys of one generic table — the first
/// scenario that runs purely on the facade's Session API with no TPC-C
/// schema knowledge. Each client submits `batch_size` keys per transaction,
/// either as one owner-grouped MultiGet/MultiPut (one master<->owner round
/// trip per owner node per batch) or, with `batched = false`, as the
/// equivalent per-key Get/Put loop — the baseline the batch pipeline is
/// benchmarked against.
struct KvConfig {
  int num_clients = 16;
  /// Mean think time between a completion and the next submission.
  SimTime think_time = 5 * kUsPerMs;
  /// Fraction of transactions that are read batches (YCSB-B ~ 0.95).
  double read_ratio = 0.95;
  /// Keys per transaction.
  int batch_size = 8;
  /// false: issue the batch as per-key Get/Put ops (the pre-batching data
  /// plane); true: one MultiGet/MultiPut per transaction.
  bool batched = true;
  /// Key space [0, num_keys), fully loaded before the clients start.
  int64_t num_keys = 4096;
  size_t value_bytes = 100;
  /// 0 = uniform key choice; otherwise Zipf skew over the key space. Rank r
  /// maps to key r, so the hot head is a *contiguous* range (the worst case
  /// for range partitioning — one node soaks up nearly all traffic). Works
  /// in both closed- and open-loop mode.
  double zipf_theta = 0.0;
  /// Rotate the rank -> key mapping by this many keys (mod num_keys): the
  /// contiguous Zipf head then starts at this key instead of key 0, which
  /// lets a scenario park the hotspot on a chosen owner (e.g. not the
  /// master's partition).
  int64_t zipf_offset = 0;
  /// Pre-split each node's partition into this many segments at table
  /// creation (Db::AddKvWorkload passes it to CreateKvTable); 0 = lazy
  /// single segment. Skewed runs use it so per-segment heat is graded and
  /// the balancer has units it can actually move.
  int segments_per_partition = 0;
  /// > 0: open-loop mode — transactions arrive as a Poisson process at this
  /// rate regardless of completions (fixed *offered* load; the crash benches
  /// use it to measure the committed-throughput dip during an outage).
  /// 0 = closed loop: `num_clients` clients separated by `think_time`.
  double arrival_qps = 0.0;
  /// Book committed/aborted/latency stats at the transaction's simulated
  /// *completion* time instead of at submission. Under saturation the two
  /// differ wildly: arrivals keep their offered rate while completions are
  /// capped by the bottleneck node — which is exactly what a throughput
  /// bench must see. Off by default (the historical accounting).
  bool count_at_completion = false;
  /// Run every transaction batch-priority: under an enabled admission
  /// policy its ops are shed before latency-sensitive traffic.
  bool batch_priority = false;
  /// Times a transaction shed by admission control (ResourceExhausted) is
  /// retried with jittered exponential backoff before counting as aborted.
  /// 0 = shed work is dropped outright.
  int shed_retries = 0;
  /// Base backoff before the first retry; doubles per attempt, with a
  /// uniform 0.5-1.5x jitter so retries do not thunder back in lock-step.
  SimTime retry_backoff = 20 * kUsPerMs;
  /// > 0: also count commits whose latency is within this bound (slo_met()
  /// — the numerator of SLO-goodput). 0 = goodput accounting off.
  SimTime slo_us = 0;
  /// Write self-describing values — 8-byte LE key then an 8-byte LE
  /// sequence number from a driver-wide monotone counter — instead of
  /// random bytes, so a later reader can tell *which* write it observed.
  /// Required when the driver feeds a chaos HistoryRecorder (set_history):
  /// the linearizability checker matches read observations to writes by
  /// that sequence number.
  bool history_payloads = false;
  uint64_t seed = 2024;
};

class KvWorkload : public WorkloadDriver {
 public:
  /// `events` must be the event queue of the cluster behind `session`.
  /// Call Load() once before Start() to materialize the key space.
  KvWorkload(Session session, TableId table, KvConfig config,
             sim::EventQueue* events);

  /// Upsert all `num_keys` keys in large MultiPut batches (client-side, no
  /// simulated time passes on the global clock).
  Status Load();

  std::string name() const override { return "kv"; }

  /// Attach the chaos history recorder; requires history_payloads (the
  /// checker cannot match observations without self-describing values).
  /// Seeds the recorder with the initial per-key sequence numbers written
  /// by Load(), which already ran by the time Db::AddKvWorkload returns.
  void set_history(chaos::HistoryRecorder* history) override;

  /// Per-key operations inside committed transactions (committed() counts
  /// transactions; a batch of 8 keys counts 8 key ops).
  int64_t key_ops() const { return books_.key_ops; }
  /// Master<->owner round trips charged by batched ops so far.
  int64_t owner_round_trips() const { return books_.owner_round_trips; }
  /// §4.3 second-location retries batches had to take mid-move.
  int64_t straggler_retries() const { return books_.straggler_retries; }
  /// Commits within KvConfig.slo_us (0 while the SLO knob is off).
  int64_t slo_met() const { return books_.slo_met; }
  TableId table() const { return table_; }
  const KvConfig& config() const { return config_; }

 private:
  /// One transaction (read or update batch per `config_`). `client` labels
  /// recorded history ops (the rng's owner index).
  Attempt RunAttempt(int client, Rng* rng) override;
  Key NextKey(Rng* rng) const;
  std::vector<uint8_t> MakeValue(Rng* rng) const;

  Session session_;
  TableId table_;
  KvConfig config_;
  bool loaded_ = false;

  /// Chaos history recording (null = off). `next_seq_` tags every written
  /// value; `initial_seqs_` remembers what Load() wrote so set_history can
  /// seed the recorder after the fact.
  chaos::HistoryRecorder* history_ = nullptr;
  uint64_t next_seq_ = 0;
  std::map<Key, uint64_t> initial_seqs_;
};

}  // namespace wattdb::workload

#endif  // WATTDB_WORKLOAD_KV_H_
