#include "api/session.h"

#include <utility>

#include "cluster/node.h"
#include "cluster/routed_ops.h"

namespace wattdb {

TxnHandle::TxnHandle(TxnHandle&& other) noexcept
    : cluster_(other.cluster_),
      txn_(other.txn_),
      completed_at_(other.completed_at_),
      latency_us_(other.latency_us_) {
  other.cluster_ = nullptr;
  other.txn_ = nullptr;
}

TxnHandle& TxnHandle::operator=(TxnHandle&& other) noexcept {
  if (this != &other) {
    Abort();
    cluster_ = other.cluster_;
    txn_ = other.txn_;
    completed_at_ = other.completed_at_;
    latency_us_ = other.latency_us_;
    other.cluster_ = nullptr;
    other.txn_ = nullptr;
  }
  return *this;
}

TxnHandle::~TxnHandle() { Abort(); }

Status TxnHandle::CheckUsable() const {
  if (cluster_ == nullptr) {
    return Status::FailedPrecondition("handle was moved from");
  }
  if (txn_ == nullptr) {
    return Status::InvalidArgument("transaction not active");
  }
  return Status::OK();
}

StatusOr<storage::Record> TxnHandle::Get(TableId table, Key key) {
  WATTDB_RETURN_IF_ERROR(CheckUsable());
  storage::Record rec;
  WATTDB_RETURN_IF_ERROR(cluster::RoutedRead(cluster_, txn_, table, key, &rec));
  return rec;
}

Status TxnHandle::Put(TableId table, Key key,
                      const std::vector<uint8_t>& payload) {
  WATTDB_RETURN_IF_ERROR(CheckUsable());
  // Single admission unit: an upsert folds the update probe and the
  // fresh-key insert into one queued op (the old Update-then-Insert pair
  // took two admission decisions for one logical Put).
  return cluster::RoutedWrite(cluster_, txn_, table, key,
                              cluster::WriteOp::kUpsert, payload);
}

Status TxnHandle::Insert(TableId table, Key key,
                         const std::vector<uint8_t>& payload) {
  WATTDB_RETURN_IF_ERROR(CheckUsable());
  return cluster::RoutedInsert(cluster_, txn_, table, key, payload);
}

Status TxnHandle::Update(TableId table, Key key,
                         const std::vector<uint8_t>& payload) {
  WATTDB_RETURN_IF_ERROR(CheckUsable());
  return cluster::RoutedWrite(cluster_, txn_, table, key,
                              cluster::WriteOp::kUpdate, payload);
}

Status TxnHandle::Delete(TableId table, Key key) {
  WATTDB_RETURN_IF_ERROR(CheckUsable());
  return cluster::RoutedWrite(cluster_, txn_, table, key,
                              cluster::WriteOp::kDelete);
}

StatusOr<int64_t> TxnHandle::Scan(
    TableId table, const KeyRange& range,
    const std::function<bool(const storage::Record&)>& fn) {
  WATTDB_RETURN_IF_ERROR(CheckUsable());
  int64_t visited = 0;
  WATTDB_RETURN_IF_ERROR(cluster::RoutedScan(
      cluster_, txn_, table, range, [&](const storage::Record& r) {
        ++visited;
        return fn(r);
      }));
  return visited;
}

StatusOr<MultiGetResult> TxnHandle::MultiGet(TableId table,
                                             const std::vector<Key>& keys) {
  WATTDB_RETURN_IF_ERROR(CheckUsable());
  MultiGetResult result;
  WATTDB_RETURN_IF_ERROR(cluster::RoutedMultiRead(
      cluster_, txn_, table, keys, &result.records, &result.stats));
  result.completed_at = txn_->now;
  return result;
}

StatusOr<MultiPutResult> TxnHandle::MultiPut(TableId table,
                                             const std::vector<KeyValue>& kvs) {
  WATTDB_RETURN_IF_ERROR(CheckUsable());
  MultiPutResult result;
  WATTDB_RETURN_IF_ERROR(cluster::RoutedMultiWrite(
      cluster_, txn_, table, kvs, &result.statuses, &result.stats));
  result.completed_at = txn_->now;
  return result;
}

Future<StatusOr<storage::Record>> TxnHandle::GetAsync(TableId table, Key key) {
  const Status usable = CheckUsable();
  if (!usable.ok()) {
    return Future<StatusOr<storage::Record>>::MakeReady(usable);
  }
  StatusOr<storage::Record> result = Get(table, key);
  sim::Promise<StatusOr<storage::Record>> promise(&cluster_->events());
  promise.ResolveAt(txn_->now, std::move(result));
  return promise.future();
}

Future<Status> TxnHandle::PutAsync(TableId table, Key key,
                                   const std::vector<uint8_t>& payload) {
  const Status usable = CheckUsable();
  if (!usable.ok()) return Future<Status>::MakeReady(usable);
  Status result = Put(table, key, payload);
  sim::Promise<Status> promise(&cluster_->events());
  promise.ResolveAt(txn_->now, std::move(result));
  return promise.future();
}

Status TxnHandle::Commit() {
  WATTDB_RETURN_IF_ERROR(CheckUsable());
  if (txn_->read_only) {
    // Nothing to make durable: no WAL commit record for pure readers.
    cluster_->tm().Commit(txn_);
  } else {
    cluster_->CommitTxn(cluster_->master(), txn_);
  }
  completed_at_ = txn_->now;
  latency_us_ = txn_->Elapsed();
  cluster_->tm().Release(txn_->id);
  txn_ = nullptr;
  return Status::OK();
}

void TxnHandle::Abort() {
  if (cluster_ == nullptr || txn_ == nullptr) return;
  cluster_->AbortTxn(txn_);
  completed_at_ = txn_->now;
  latency_us_ = txn_->Elapsed();
  cluster_->tm().Release(txn_->id);
  txn_ = nullptr;
}

TxnHandle Session::Begin(bool read_only, bool batch_priority) {
  if (cluster_ == nullptr) return TxnHandle(nullptr, nullptr);
  tx::Txn* txn = cluster_->BeginTxn(read_only);
  txn->batch_priority = batch_priority;
  return TxnHandle(cluster_, txn);
}

StatusOr<storage::Record> Session::Get(TableId table, Key key) {
  TxnHandle txn = Begin(/*read_only=*/true);
  StatusOr<storage::Record> rec = txn.Get(table, key);
  if (!rec.ok()) return rec;  // ~TxnHandle aborts.
  WATTDB_RETURN_IF_ERROR(txn.Commit());
  return rec;
}

Status Session::Put(TableId table, Key key,
                    const std::vector<uint8_t>& payload) {
  TxnHandle txn = Begin();
  WATTDB_RETURN_IF_ERROR(txn.Put(table, key, payload));
  return txn.Commit();
}

StatusOr<int64_t> Session::Scan(
    TableId table, const KeyRange& range,
    const std::function<bool(const storage::Record&)>& fn) {
  TxnHandle txn = Begin(/*read_only=*/true);
  StatusOr<int64_t> n = txn.Scan(table, range, fn);
  if (!n.ok()) return n;
  WATTDB_RETURN_IF_ERROR(txn.Commit());
  return n;
}

StatusOr<MultiGetResult> Session::MultiGet(TableId table,
                                           const std::vector<Key>& keys) {
  TxnHandle txn = Begin(/*read_only=*/true);
  StatusOr<MultiGetResult> result = txn.MultiGet(table, keys);
  if (!result.ok()) return result;
  WATTDB_RETURN_IF_ERROR(txn.Commit());
  result->completed_at = txn.completed_at();
  result->latency_us = txn.latency_us();
  return result;
}

StatusOr<MultiPutResult> Session::MultiPut(TableId table,
                                           const std::vector<KeyValue>& kvs) {
  TxnHandle txn = Begin();
  StatusOr<MultiPutResult> result = txn.MultiPut(table, kvs);
  if (!result.ok()) return result;
  WATTDB_RETURN_IF_ERROR(txn.Commit());
  result->completed_at = txn.completed_at();
  result->latency_us = txn.latency_us();
  return result;
}

Future<StatusOr<storage::Record>> Session::GetAsync(TableId table, Key key) {
  if (cluster_ == nullptr) {
    return Future<StatusOr<storage::Record>>::MakeReady(
        Status::FailedPrecondition("session was moved from"));
  }
  TxnHandle txn = Begin(/*read_only=*/true);
  StatusOr<storage::Record> rec = txn.Get(table, key);
  if (rec.ok()) {
    (void)txn.Commit();
  } else {
    txn.Abort();
  }
  sim::Promise<StatusOr<storage::Record>> promise(&cluster_->events());
  promise.ResolveAt(txn.completed_at(), std::move(rec));
  return promise.future();
}

Future<Status> Session::PutAsync(TableId table, Key key,
                                 const std::vector<uint8_t>& payload) {
  if (cluster_ == nullptr) {
    return Future<Status>::MakeReady(
        Status::FailedPrecondition("session was moved from"));
  }
  TxnHandle txn = Begin();
  Status s = txn.Put(table, key, payload);
  if (s.ok()) {
    s = txn.Commit();
  } else {
    txn.Abort();
  }
  sim::Promise<Status> promise(&cluster_->events());
  promise.ResolveAt(txn.completed_at(), std::move(s));
  return promise.future();
}

}  // namespace wattdb
