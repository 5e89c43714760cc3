#include "sim/resource.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::sim {

Resource::Pos Resource::Locate(SimTime t) const {
  if (blocks_.empty()) return {0, 0};
  // Most times fall in the last block. Failing that, gallop back 1, 2, 4,
  // ... blocks until block `lo` starts at or before `t`; every block from
  // `hi` on starts after it.
  size_t hi = blocks_.size();
  size_t lo = hi - 1;
  for (size_t step = 1; blocks_[lo].first > t; step *= 2) {
    hi = lo;
    if (lo == 0) break;
    lo = lo > step ? lo - step : 0;
  }
  auto blk = std::upper_bound(
      blocks_.begin() + lo, blocks_.begin() + hi, t,
      [](SimTime v, const Block& b) { return v < b.first; });
  const size_t b = blk == blocks_.begin()
                       ? 0
                       : static_cast<size_t>(blk - blocks_.begin()) - 1;
  const std::vector<Span>& s = blocks_[b].spans;
  auto it = std::upper_bound(
      s.begin(), s.end(), t,
      [](SimTime v, const Span& sp) { return v < sp.start; });
  return {b, static_cast<size_t>(it - s.begin())};
}

Resource::Pos Resource::Before(size_t b) const {
  return b == 0 ? Pos{0, 0} : Pos{b - 1, blocks_[b - 1].spans.size()};
}

void Resource::RecomputeMaxGap(Block* block) {
  block->max_gap = 0;
  const std::vector<Span>& s = block->spans;
  for (size_t k = 1; k < s.size(); ++k) {
    block->max_gap = std::max(block->max_gap, s[k].start - s[k - 1].end);
  }
}

Resource::Slot Resource::FindSlot(SimTime arrival, SimTime service,
                                  SimTime limit) const {
  const Pos pos = Locate(arrival);
  if (service <= 0) return {arrival, pos};
  SimTime candidate = arrival;
  // The span preceding `arrival` may cover it.
  if (pos.i > 0) {
    candidate = std::max(candidate, blocks_[pos.b].spans[pos.i - 1].end);
  }
  // Every span from `pos` on starts at or after `candidate`, so a failed
  // fit moves `candidate` to that span's end. Past block `b`, `candidate`
  // lies between that block's last end and the next block's first start.
  for (size_t b = pos.b, i = pos.i; b < blocks_.size(); ++b, i = 0) {
    const Block& blk = blocks_[b];
    if (i == 0 && blk.max_gap < service) {
      // Only the boundary gap before this block can fit.
      if (blk.first >= candidate + service) return {candidate, Before(b)};
      candidate = blk.spans.back().end;
    } else {
      for (; i < blk.spans.size(); ++i) {
        if (blk.spans[i].start >= candidate + service) {
          return {candidate, i > 0 ? Pos{b, i} : Before(b)};
        }
        candidate = blk.spans[i].end;
      }
    }
    if (candidate >= limit) return {candidate, Before(b + 1)};
  }
  return {candidate, Before(blocks_.size())};
}

void Resource::Reserve(const Slot& slot, SimTime service) {
  const SimTime start = slot.start;
  const SimTime end = start + service;
  total_busy_ += service;
  if (blocks_.empty()) {
    blocks_.push_back(Block{{Span{start, end}}, start, 0});
    return;
  }
  const Pos pos = slot.pos;
  Block& blk = blocks_[pos.b];
  std::vector<Span>& s = blk.spans;
  // Neighbours: `prev` is in `blk`; `next` is in `blk` or the next block.
  Span* prev = pos.i > 0 ? &s[pos.i - 1] : nullptr;
  const bool next_here = pos.i < s.size();
  const size_t nb = next_here ? pos.b : pos.b + 1;
  Span* next = nb < blocks_.size()
                   ? &blocks_[nb].spans[next_here ? pos.i : 0]
                   : nullptr;
  const bool join_prev = prev != nullptr && prev->end == start;
  const bool join_next = next != nullptr && next->start == end;
  // The internal gap of `blk` that [start, end) lands in, if there is one.
  // Filling it only shrinks gaps, so the cached max changes only when this
  // gap was the max.
  const SimTime filled = prev != nullptr && next_here ? next->start - prev->end
                                                      : -1;

  if (join_prev && join_next) {
    prev->end = next->end;
    Block& nblk = blocks_[nb];
    nblk.spans.erase(nblk.spans.begin() + (next_here ? pos.i : 0));
    if (next_here) {
      if (filled >= blk.max_gap) RecomputeMaxGap(&blk);
    } else if (nblk.spans.empty()) {
      blocks_.erase(blocks_.begin() + nb);
    } else {
      nblk.first = nblk.spans.front().start;
      // The gap after the absorbed front span left `nblk`.
      if (nblk.first - prev->end >= nblk.max_gap) RecomputeMaxGap(&nblk);
    }
    return;
  }
  if (join_prev || join_next) {
    if (join_prev) prev->end = end;
    if (join_next) {
      next->start = start;
      blocks_[nb].first = blocks_[nb].spans.front().start;
    }
    if (filled >= blk.max_gap) RecomputeMaxGap(&blk);
    return;
  }
  // A new span. At either end of `blk` it opens a new internal gap.
  if (filled < 0) {
    blk.max_gap = std::max(blk.max_gap, prev != nullptr ? start - prev->end
                                                        : next->start - end);
  }
  s.insert(s.begin() + pos.i, Span{start, end});
  blk.first = s.front().start;
  if (s.size() > kBlockSpans) {
    Block tail;
    tail.spans.assign(s.begin() + kBlockSpans / 2, s.end());
    s.resize(kBlockSpans / 2);
    RecomputeMaxGap(&blk);
    tail.first = tail.spans.front().start;
    RecomputeMaxGap(&tail);
    blocks_.insert(blocks_.begin() + pos.b + 1, std::move(tail));
  } else if (filled >= blk.max_gap) {
    RecomputeMaxGap(&blk);
  }
}

SimTime Resource::Acquire(SimTime arrival, SimTime service) {
  WATTDB_CHECK(service >= 0);
  if (service == 0) return arrival;
  const Slot slot = FindSlot(arrival, service);
  Reserve(slot, service);
  return slot.start + service;
}

SimTime Resource::Peek(SimTime arrival, SimTime service) const {
  return FindSlot(arrival, service).start + service;
}

SimTime Resource::Backlog(SimTime now) const {
  // Scheduled busy time after `now`.
  SimTime busy = 0;
  const Pos pos = Locate(now);
  if (pos.i > 0) {
    const Span& prev = blocks_[pos.b].spans[pos.i - 1];
    if (prev.end > now) busy += prev.end - now;
  }
  for (size_t b = pos.b, i = pos.i; b < blocks_.size(); ++b, i = 0) {
    for (const std::vector<Span>& s = blocks_[b].spans; i < s.size(); ++i) {
      busy += s[i].end - s[i].start;
    }
  }
  return busy;
}

void Resource::CheckWindow(SimTime from) const {
  WATTDB_CHECK_MSG(from >= prune_horizon_,
                   name_ << ": window from " << from
                         << " precedes the prune horizon " << prune_horizon_);
}

SimTime Resource::BusyIn(SimTime from, SimTime to) const {
  CheckWindow(from);
  SimTime busy = 0;
  const Pos pos = Locate(from);
  if (pos.i > 0) {
    const Span& prev = blocks_[pos.b].spans[pos.i - 1];
    if (prev.end > from) busy += std::min(prev.end, to) - from;
  }
  for (size_t b = pos.b, i = pos.i; b < blocks_.size(); ++b, i = 0) {
    for (const std::vector<Span>& s = blocks_[b].spans; i < s.size(); ++i) {
      if (s[i].start >= to) return busy;
      busy += std::min(s[i].end, to) - s[i].start;
    }
  }
  return busy;
}

double Resource::UtilizationIn(SimTime from, SimTime to) const {
  CheckWindow(from);
  if (to <= from) return 0.0;
  return static_cast<double>(BusyIn(from, to)) / static_cast<double>(to - from);
}

void Resource::Prune(SimTime before) {
  prune_horizon_ = std::max(prune_horizon_, before);
  // Ends increase along the timeline, so the dropped spans are a prefix.
  size_t drop = 0;
  while (drop < blocks_.size() && blocks_[drop].spans.back().end <= before) {
    ++drop;
  }
  blocks_.erase(blocks_.begin(), blocks_.begin() + drop);
  if (blocks_.empty()) return;
  std::vector<Span>& s = blocks_.front().spans;
  auto keep = std::find_if(s.begin(), s.end(), [before](const Span& sp) {
    return sp.end > before;
  });
  if (keep == s.begin()) return;
  s.erase(s.begin(), keep);
  blocks_.front().first = s.front().start;
  RecomputeMaxGap(&blocks_.front());
}

ResourcePool::ResourcePool(std::string name, int count) : name_(std::move(name)) {
  WATTDB_CHECK(count > 0);
  members_.reserve(count);
  for (int i = 0; i < count; ++i) {
    members_.emplace_back(name_ + "#" + std::to_string(i));
  }
}

Resource::Slot ResourcePool::EarliestStart(SimTime arrival, SimTime service,
                                           size_t* member) const {
  // Equal service everywhere, so the earliest start is the earliest
  // completion. A later member must beat the best start strictly; none can
  // once the best start is `arrival` itself.
  *member = 0;
  Resource::Slot best = members_[0].FindSlot(arrival, service);
  for (size_t i = 1; i < members_.size() && best.start > arrival; ++i) {
    const Resource::Slot slot =
        members_[i].FindSlot(arrival, service, best.start);
    if (slot.start < best.start) {
      *member = i;
      best = slot;
    }
  }
  return best;
}

SimTime ResourcePool::Acquire(SimTime arrival, SimTime service) {
  WATTDB_CHECK(service >= 0);
  if (service == 0) return arrival;
  size_t member = 0;
  const Resource::Slot slot = EarliestStart(arrival, service, &member);
  members_[member].Reserve(slot, service);
  return slot.start + service;
}

SimTime ResourcePool::Peek(SimTime arrival, SimTime service) const {
  size_t member = 0;
  return EarliestStart(arrival, service, &member).start + service;
}

SimTime ResourcePool::BusyIn(SimTime from, SimTime to) const {
  SimTime busy = 0;
  for (const auto& m : members_) busy += m.BusyIn(from, to);
  return busy;
}

double ResourcePool::UtilizationIn(SimTime from, SimTime to) const {
  if (to <= from || members_.empty()) return 0.0;
  return static_cast<double>(BusyIn(from, to)) /
         (static_cast<double>(to - from) * members_.size());
}

void ResourcePool::Prune(SimTime before) {
  for (auto& m : members_) m.Prune(before);
}

SimTime ResourcePool::Backlog(SimTime now) const {
  SimTime best = members_[0].Backlog(now);
  for (size_t i = 1; i < members_.size(); ++i) {
    best = std::min(best, members_[i].Backlog(now));
  }
  return best;
}

}  // namespace wattdb::sim
