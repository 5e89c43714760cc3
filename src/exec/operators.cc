#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "common/logging.h"

namespace wattdb::exec {

namespace {
size_t BatchBytes(const Batch& b) {
  size_t n = 0;
  for (const auto& r : b) n += r.StoredSize();
  return n;
}
}  // namespace

// ---------------------------------------------------------------- TableScan

TableScanOp::TableScanOp(catalog::Partition* partition, KeyRange range,
                         size_t vector_size, OperatorCosts costs)
    : partition_(partition),
      range_(range),
      vector_size_(std::max<size_t>(1, vector_size)),
      costs_(costs),
      node_(partition->owner()) {}

void TableScanOp::Open(ExecContext* ctx) {
  rows_.clear();
  cursor_ = 0;
  last_page_ = UINT16_MAX;
  last_page_seg_ = SegmentId::Invalid();
  // Gather the cursor's row list from the indexes (charged as one probe).
  ctx->cluster->node(node_)->ChargeCpu(ctx->txn,
                                       costs_.next_call_overhead_us);
  for (const auto& entry : partition_->SegmentsInRange(range_)) {
    storage::Segment* seg = ctx->cluster->segments().Get(entry.segment);
    WATTDB_CHECK(seg != nullptr);
    const Key lo = std::max(range_.lo, entry.range.lo);
    const Key hi = std::min(range_.hi, entry.range.hi);
    seg->ScanRange(
        lo, hi, [&](const storage::Record& rec, storage::RecordPos pos) {
          rows_.push_back({rec.key, storage::Rid{entry.segment, pos}});
          return true;
        });
  }
}

bool TableScanOp::Next(ExecContext* ctx, Batch* out) {
  out->clear();
  if (cursor_ >= rows_.size()) return false;
  cluster::Node* node = ctx->cluster->node(node_);
  node->ChargeCpu(ctx->txn, costs_.next_call_overhead_us);
  while (cursor_ < rows_.size() && out->size() < vector_size_) {
    const auto& [key, rid] = rows_[cursor_++];
    storage::Segment* seg = ctx->cluster->segments().Get(rid.segment);
    if (seg == nullptr) continue;
    // One buffer access per distinct page touched.
    if (rid.segment != last_page_seg_ || rid.pos.page != last_page_) {
      last_page_seg_ = rid.segment;
      last_page_ = rid.pos.page;
      node->FetchPage(ctx->txn, rid.segment, rid.pos.page,
                       /*for_write=*/false);
    }
    auto rec = seg->ReadAt(rid.pos);
    if (!rec.ok()) continue;  // Deleted since Open; skip.
    node->ChargeCpu(ctx->txn, costs_.scan_us_per_record);
    out->push_back(std::move(rec).value());
  }
  return !out->empty() || cursor_ < rows_.size();
}

void TableScanOp::Close(ExecContext* ctx) {
  (void)ctx;
  rows_.clear();
}

// ------------------------------------------------------------------ Project

ProjectOp::ProjectOp(std::unique_ptr<Operator> child, NodeId node,
                     OperatorCosts costs)
    : child_(std::move(child)), node_(node), costs_(costs) {}

void ProjectOp::Open(ExecContext* ctx) { child_->Open(ctx); }

bool ProjectOp::Next(ExecContext* ctx, Batch* out) {
  cluster::Node* node = ctx->cluster->node(node_);
  node->ChargeCpu(ctx->txn, costs_.next_call_overhead_us);
  if (!child_->Next(ctx, out)) return false;
  node->ChargeCpu(ctx->txn, static_cast<SimTime>(out->size()) *
                                costs_.project_us_per_record);
  return true;
}

void ProjectOp::Close(ExecContext* ctx) { child_->Close(ctx); }

// --------------------------------------------------------------------- Sort

SortOp::SortOp(std::unique_ptr<Operator> child, NodeId node,
               size_t vector_size, OperatorCosts costs)
    : child_(std::move(child)),
      node_(node),
      vector_size_(std::max<size_t>(1, vector_size)),
      costs_(costs) {}

void SortOp::Open(ExecContext* ctx) {
  child_->Open(ctx);
  materialized_.clear();
  cursor_ = 0;
  sorted_ = false;
}

bool SortOp::Next(ExecContext* ctx, Batch* out) {
  if (!sorted_) {
    Batch b;
    while (child_->Next(ctx, &b)) {
      materialized_.insert(materialized_.end(),
                           std::make_move_iterator(b.begin()),
                           std::make_move_iterator(b.end()));
    }
    const double n = static_cast<double>(std::max<size_t>(2, materialized_.size()));
    ctx->cluster->node(node_)->ChargeCpu(
        ctx->txn,
        static_cast<SimTime>(n * std::log2(n)) * costs_.sort_us_per_compare);
    std::sort(materialized_.begin(), materialized_.end(),
              [](const storage::Record& a, const storage::Record& b) {
                return a.key < b.key;
              });
    sorted_ = true;
  }
  out->clear();
  ctx->cluster->node(node_)->ChargeCpu(ctx->txn,
                                       costs_.next_call_overhead_us);
  while (cursor_ < materialized_.size() && out->size() < vector_size_) {
    out->push_back(materialized_[cursor_++]);
  }
  return !out->empty();
}

void SortOp::Close(ExecContext* ctx) {
  child_->Close(ctx);
  materialized_.clear();
}

// ---------------------------------------------------------- GroupAggregate

GroupAggregateOp::GroupAggregateOp(
    std::unique_ptr<Operator> child, NodeId node,
    std::function<uint64_t(const storage::Record&)> group_of,
    OperatorCosts costs)
    : child_(std::move(child)),
      node_(node),
      group_of_(std::move(group_of)),
      costs_(costs) {}

void GroupAggregateOp::Open(ExecContext* ctx) {
  child_->Open(ctx);
  groups_.clear();
  cursor_ = 0;
  done_ = false;
}

bool GroupAggregateOp::Next(ExecContext* ctx, Batch* out) {
  if (!done_) {
    std::unordered_map<uint64_t, int64_t> counts;
    Batch b;
    while (child_->Next(ctx, &b)) {
      ctx->cluster->node(node_)->ChargeCpu(
          ctx->txn,
          static_cast<SimTime>(b.size()) * costs_.aggregate_us_per_record);
      for (const auto& r : b) counts[group_of_(r)]++;
    }
    for (const auto& [group, count] : counts) {
      storage::Record r;
      r.key = group;
      r.payload.resize(8);
      std::memcpy(r.payload.data(), &count, 8);
      groups_.push_back(std::move(r));
    }
    std::sort(groups_.begin(), groups_.end(),
              [](const storage::Record& a, const storage::Record& b) {
                return a.key < b.key;
              });
    done_ = true;
  }
  out->clear();
  ctx->cluster->node(node_)->ChargeCpu(ctx->txn,
                                       costs_.next_call_overhead_us);
  while (cursor_ < groups_.size() && out->size() < 1024) {
    out->push_back(groups_[cursor_++]);
  }
  return !out->empty();
}

void GroupAggregateOp::Close(ExecContext* ctx) {
  child_->Close(ctx);
  groups_.clear();
}

// ----------------------------------------------------------------- Exchange

ExchangeOp::ExchangeOp(std::unique_ptr<Operator> child, NodeId consumer_node,
                       OperatorCosts costs)
    : child_(std::move(child)), consumer_node_(consumer_node), costs_(costs) {}

void ExchangeOp::Open(ExecContext* ctx) { child_->Open(ctx); }

bool ExchangeOp::Next(ExecContext* ctx, Batch* out) {
  const NodeId producer = child_->node();
  if (producer == consumer_node_) {
    return child_->Next(ctx, out);
  }
  // Synchronous request: consumer -> producer.
  const SimTime t0 = ctx->txn->now;
  const SimTime req_arrived =
      ctx->cluster->network().Transfer(t0, consumer_node_, producer, 64);
  ctx->txn->AdvanceTo(req_arrived);
  if (!child_->Next(ctx, out)) {
    ctx->txn->net_us += req_arrived - t0;
    return false;
  }
  // Producer marshals the batch before it ships.
  ctx->cluster->node(producer)->ChargeCpu(
      ctx->txn, static_cast<SimTime>(out->size()) * costs_.ship_us_per_record);
  // Response: the batch ships back.
  const SimTime t1 = ctx->txn->now;
  const SimTime delivered = ctx->cluster->network().Transfer(
      t1, producer, consumer_node_, 64 + BatchBytes(*out));
  ctx->txn->net_us += (req_arrived - t0) + (delivered - t1);
  ctx->txn->AdvanceTo(delivered);
  return true;
}

void ExchangeOp::Close(ExecContext* ctx) { child_->Close(ctx); }

// ------------------------------------------------------------------- Buffer

BufferOp::BufferOp(std::unique_ptr<Operator> child, NodeId consumer_node,
                   size_t prefetch_depth, OperatorCosts costs)
    : child_(std::move(child)),
      consumer_node_(consumer_node),
      prefetch_depth_(std::max<size_t>(1, prefetch_depth)),
      costs_(costs) {}

void BufferOp::Open(ExecContext* ctx) {
  child_->Open(ctx);
  inflight_.clear();
  exhausted_ = false;
  producer_time_ = ctx->txn->now;
  for (size_t i = 0; i < prefetch_depth_ && !exhausted_; ++i) {
    IssuePrefetch(ctx);
  }
}

void BufferOp::IssuePrefetch(ExecContext* ctx) {
  // The producer side runs ahead on its own timeline: fetch the child's
  // next batch starting at producer_time_, then ship it asynchronously.
  tx::Txn probe = *ctx->txn;  // Clone the accounting context.
  probe.now = std::max(producer_time_, ctx->txn->now);
  ExecContext producer_ctx{ctx->cluster, &probe};
  Batch b;
  if (!child_->Next(&producer_ctx, &b)) {
    exhausted_ = true;
    producer_time_ = probe.now;
    return;
  }
  const NodeId producer = child_->node();
  SimTime delivered = probe.now;
  if (producer != consumer_node_) {
    // Producer marshals the batch on its own timeline before shipping.
    auto& cpu = ctx->cluster->node(producer)->hardware().cpu();
    probe.now = cpu.Acquire(
        probe.now, static_cast<SimTime>(b.size()) * costs_.ship_us_per_record);
    delivered = ctx->cluster->network().Transfer(probe.now, producer,
                                                 consumer_node_,
                                                 64 + BatchBytes(b));
  }
  producer_time_ = probe.now;
  inflight_.push_back({std::move(b), delivered});
}

bool BufferOp::Next(ExecContext* ctx, Batch* out) {
  out->clear();
  if (inflight_.empty()) return false;
  auto [batch, ready_at] = std::move(inflight_.front());
  inflight_.pop_front();
  // The consumer waits only if the prefetch has not landed yet.
  if (ready_at > ctx->txn->now) {
    ctx->txn->net_us += ready_at - ctx->txn->now;
    ctx->txn->AdvanceTo(ready_at);
  }
  *out = std::move(batch);
  if (!exhausted_) IssuePrefetch(ctx);
  return true;
}

void BufferOp::Close(ExecContext* ctx) { child_->Close(ctx); }

// -------------------------------------------------------------------- Drain

size_t DrainPlan(ExecContext* ctx, Operator* root) {
  root->Open(ctx);
  size_t n = 0;
  Batch b;
  while (root->Next(ctx, &b)) {
    n += b.size();
  }
  root->Close(ctx);
  return n;
}

}  // namespace wattdb::exec
