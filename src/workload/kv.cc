#include "workload/kv.h"

#include <algorithm>
#include <utility>

#include "chaos/chaos.h"
#include "chaos/history.h"
#include "common/logging.h"

namespace wattdb::workload {

KvWorkload::KvWorkload(Session session, TableId table, KvConfig config,
                       sim::EventQueue* events)
    : WorkloadDriver(events, config.num_clients, config.seed * 6271,
                     config.think_time, config.shed_retries,
                     config.retry_backoff, config.arrival_qps),
      session_(std::move(session)),
      table_(table),
      config_(config) {}

Key KvWorkload::NextKey(Rng* rng) const {
  if (config_.zipf_theta > 0.0) {
    const uint64_t rank =
        rng->Zipf(static_cast<uint64_t>(config_.num_keys), config_.zipf_theta);
    // A rotation is a bijection, so the rank distribution is untouched;
    // only where in the key space the contiguous hot head sits changes.
    const uint64_t offset = static_cast<uint64_t>(config_.zipf_offset);
    return static_cast<Key>((rank + offset) %
                            static_cast<uint64_t>(config_.num_keys));
  }
  return static_cast<Key>(rng->UniformInt(0, config_.num_keys - 1));
}

std::vector<uint8_t> KvWorkload::MakeValue(Rng* rng) const {
  std::vector<uint8_t> value(config_.value_bytes);
  // One random word is enough entropy for a synthetic value; full-width
  // random fill would dominate the wall-clock cost of large loads.
  if (!value.empty()) value[0] = static_cast<uint8_t>(rng->Next());
  return value;
}

void KvWorkload::set_history(chaos::HistoryRecorder* history) {
  WATTDB_CHECK_MSG(config_.history_payloads,
                   "set_history needs KvConfig.history_payloads: the checker "
                   "matches observations to writes by the encoded seq");
  WATTDB_CHECK_MSG(!config_.batched,
                   "history recording covers the per-key op path only");
  history_ = history;
  if (history_ == nullptr) return;
  // Load() already ran (Db::AddKvWorkload loads before returning the
  // driver); hand its per-key initial seqs to the recorder now.
  for (const auto& [key, seq] : initial_seqs_) {
    history_->RecordInitial(key, seq);
  }
}

Status KvWorkload::Load() {
  if (loaded_) return Status::OK();
  Rng* rng = client_rng(0);
  constexpr int64_t kLoadBatch = 256;
  for (int64_t lo = 0; lo < config_.num_keys; lo += kLoadBatch) {
    const int64_t hi = std::min(config_.num_keys, lo + kLoadBatch);
    std::vector<KeyValue> kvs;
    kvs.reserve(static_cast<size_t>(hi - lo));
    for (int64_t k = lo; k < hi; ++k) {
      if (config_.history_payloads) {
        const uint64_t seq = ++next_seq_;
        initial_seqs_[static_cast<Key>(k)] = seq;
        kvs.push_back(KeyValue{static_cast<Key>(k),
                               chaos::EncodePayload(static_cast<Key>(k), seq)});
      } else {
        kvs.push_back(KeyValue{static_cast<Key>(k), MakeValue(rng)});
      }
    }
    // System transaction: bulk loading must not be refused (or even
    // counted) by admission control, like the TPC-C loader.
    TxnHandle txn = session_.Begin();
    txn.txn()->system = true;
    StatusOr<MultiPutResult> r = txn.MultiPut(table_, kvs);
    WATTDB_RETURN_IF_ERROR(r.status());
    for (const Status& s : r->statuses) WATTDB_RETURN_IF_ERROR(s);
    WATTDB_RETURN_IF_ERROR(txn.Commit());
  }
  loaded_ = true;
  return Status::OK();
}

WorkloadDriver::Attempt KvWorkload::RunAttempt(int client, Rng* rng) {
  WATTDB_CHECK_MSG(loaded_, "KvWorkload started before Load()");
  const bool updater = rng->UniformDouble() >= config_.read_ratio;

  std::vector<Key> keys(static_cast<size_t>(config_.batch_size));
  for (Key& k : keys) k = NextKey(rng);

  TxnHandle txn =
      session_.Begin(/*read_only=*/!updater, config_.batch_priority);
  // Commit()/Abort() close the handle and release the engine transaction;
  // capture the invocation time now, while txn() is still live.
  const SimTime invoked_at = txn.txn() != nullptr ? txn.txn()->start_time : 0;
  Status status;
  int64_t ops = 0;
  // Per-op bookkeeping for the history recorder: writes this attempt put
  // (applied = the Put itself was accepted) and reads with the seq each
  // observed (0 = absent) plus whether a warm replica served it.
  struct PendingWrite {
    Key key;
    uint64_t seq;
    bool applied;
  };
  struct PendingRead {
    Key key;
    uint64_t seq;
    bool from_replica;
  };
  std::vector<PendingWrite> pending_writes;
  std::vector<PendingRead> pending_reads;
  if (updater) {
    std::vector<KeyValue> kvs;
    std::vector<uint64_t> seqs;
    kvs.reserve(keys.size());
    for (Key k : keys) {
      if (config_.history_payloads) {
        seqs.push_back(++next_seq_);
        kvs.push_back(KeyValue{k, chaos::EncodePayload(k, seqs.back())});
      } else {
        kvs.push_back(KeyValue{k, MakeValue(rng)});
      }
    }
    if (config_.batched) {
      StatusOr<MultiPutResult> r = txn.MultiPut(table_, kvs);
      status = r.status();
      if (r.ok()) {
        ops = r->oks();
        books_.owner_round_trips += r->stats.owner_round_trips;
        books_.straggler_retries += r->stats.straggler_retries;
        // An owner down mid-batch fails its keys with Unavailable; treat
        // the transaction as aborted so the dip shows in committed().
        for (const Status& s : r->statuses) {
          if (!s.ok() && !s.IsNotFound()) {
            status = s;
            break;
          }
        }
      }
    } else {
      for (size_t i = 0; i < kvs.size(); ++i) {
        status = txn.Put(table_, kvs[i].key, kvs[i].payload);
        if (history_ != nullptr) {
          pending_writes.push_back(
              PendingWrite{kvs[i].key, seqs[i], status.ok()});
        }
        if (!status.ok()) break;
        ++ops;
      }
    }
  } else {
    if (config_.batched) {
      StatusOr<MultiGetResult> r = txn.MultiGet(table_, keys);
      status = r.status();
      if (r.ok()) {
        ops = r->hits();
        books_.owner_round_trips += r->stats.owner_round_trips;
        books_.straggler_retries += r->stats.straggler_retries;
        for (const auto& rec : r->records) {
          if (!rec.ok() && !rec.status().IsNotFound()) {
            status = rec.status();
            break;
          }
        }
      }
    } else {
      for (Key k : keys) {
        const uint64_t replica_before =
            history_ != nullptr ? txn.txn()->replica_reads : 0;
        StatusOr<storage::Record> r = txn.Get(table_, k);
        // A fully-loaded key space only misses for records in flight
        // mid-migration; the per-op loop keeps going like the batch does.
        if (history_ != nullptr && (r.ok() || r.status().IsNotFound())) {
          uint64_t seq = 0;
          Key decoded_key = 0;
          if (r.ok() &&
              !chaos::DecodePayload(r->payload, &decoded_key, &seq)) {
            seq = 0;
          }
          pending_reads.push_back(PendingRead{
              k, seq, txn.txn()->replica_reads > replica_before});
        }
        if (!r.ok() && !r.status().IsNotFound()) {
          status = r.status();
          break;
        }
        if (r.ok()) ++ops;
      }
    }
  }

  const bool ops_ok = status.ok();
  if (status.ok()) status = txn.Commit();
  if (!status.ok()) txn.Abort();
  const bool committed = status.ok();
  if (history_ != nullptr) {
    // All ops of the transaction share its [begin, completed] window —
    // wider than each op's true extent, which only *adds* linearization
    // freedom, so it can never produce a false violation.
    const SimTime inv = invoked_at;
    const SimTime resp = txn.completed_at();
    for (const PendingWrite& w : pending_writes) {
      chaos::HistoryOp op;
      op.client = client;
      op.kind = chaos::OpKind::kWrite;
      op.key = w.key;
      op.seq = w.seq;
      op.invoked_at = inv;
      op.responded_at = resp;
      if (committed) {
        op.outcome = chaos::OpOutcome::kOk;
      } else if (!w.applied) {
        // The Put itself was refused (shed, unavailable route). The engine
        // does not assert refused ops never surface — mirror that and
        // treat the write as indeterminate rather than definitely absent.
        op.outcome = chaos::OpOutcome::kIndeterminate;
      } else if (ops_ok) {
        // Applied, then Commit() failed: the fault may have landed after
        // the commit point — genuinely indeterminate.
        op.outcome = chaos::OpOutcome::kIndeterminate;
      } else {
        // Applied, then deliberately rolled back by Abort() before any
        // commit attempt: a definite no.
        op.outcome = chaos::OpOutcome::kFailed;
      }
      history_->Record(op);
    }
    if (committed) {
      // Observations from uncommitted transactions are dropped: a shed or
      // aborted read never promised its snapshot was committed state.
      for (const PendingRead& r : pending_reads) {
        chaos::HistoryOp op;
        op.client = client;
        op.kind = chaos::OpKind::kRead;
        op.key = r.key;
        op.seq = r.seq;
        op.outcome = chaos::OpOutcome::kOk;
        op.invoked_at = inv;
        op.responded_at = resp;
        op.from_replica = r.from_replica;
        history_->Record(op);
      }
    }
  }
  Attempt a;
  a.completed_at = txn.completed_at();
  a.latency = txn.latency_us();
  a.committed = committed;
  a.shed = status.IsResourceExhausted();
  a.key_ops = ops;
  a.within_slo = config_.slo_us > 0 && a.latency <= config_.slo_us;
  a.book_at_completion = config_.count_at_completion;
  return a;
}

}  // namespace wattdb::workload
