// Unit tests for the simulation substrate: virtual clock, deterministic
// event queue, and gap-filling resource timelines.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/resource.h"

namespace wattdb::sim {
namespace {

TEST(Clock, StartsAtZeroAndAdvances) {
  Clock c;
  EXPECT_EQ(c.Now(), 0);
  c.AdvanceTo(100);
  EXPECT_EQ(c.Now(), 100);
}

TEST(EventQueue, RunsInTimeOrder) {
  Clock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  q.ScheduleAt(30, [&]() { order.push_back(3); });
  q.ScheduleAt(10, [&]() { order.push_back(1); });
  q.ScheduleAt(20, [&]() { order.push_back(2); });
  q.RunUntil(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.Now(), 100);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  Clock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(50, [&order, i]() { order.push_back(i); });
  }
  q.RunUntil(50);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PastEventsClampToNow) {
  Clock clock;
  EventQueue q(&clock);
  clock.AdvanceTo(100);
  bool ran = false;
  q.ScheduleAt(10, [&]() { ran = true; });
  EXPECT_EQ(q.NextEventTime(), 100);
  q.RunUntil(100);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  Clock clock;
  EventQueue q(&clock);
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) q.ScheduleAfter(10, recurse);
  };
  q.ScheduleAt(0, recurse);
  q.RunUntil(1000);
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, RunUntilStopsBeforeLaterEvents) {
  Clock clock;
  EventQueue q(&clock);
  bool late = false;
  q.ScheduleAt(200, [&]() { late = true; });
  q.RunUntil(100);
  EXPECT_FALSE(late);
  EXPECT_EQ(clock.Now(), 100);
  q.RunUntil(300);
  EXPECT_TRUE(late);
}

TEST(Resource, SimpleFcfs) {
  Resource r;
  EXPECT_EQ(r.Acquire(0, 10), 10);
  EXPECT_EQ(r.Acquire(0, 10), 20);   // Queues behind the first.
  EXPECT_EQ(r.Acquire(50, 10), 60);  // Idle gap before it.
}

TEST(Resource, GapFilling) {
  Resource r;
  // Occupy [100, 200).
  EXPECT_EQ(r.Acquire(100, 100), 200);
  // A later-issued request for an EARLIER time fits in the gap [0, 100).
  EXPECT_EQ(r.Acquire(0, 50), 50);
  // And one that does not fit before 100 goes after 200.
  EXPECT_EQ(r.Acquire(60, 80), 280);
}

TEST(Resource, GapExactFit) {
  Resource r;
  r.Acquire(0, 10);    // [0,10)
  r.Acquire(20, 10);   // [20,30)
  EXPECT_EQ(r.Acquire(10, 10), 20);  // Exactly fills [10,20).
  // Now fully busy [0,30): next goes at 30.
  EXPECT_EQ(r.Acquire(0, 5), 35);
}

TEST(Resource, ZeroServiceIsFree) {
  Resource r;
  r.Acquire(0, 100);
  EXPECT_EQ(r.Acquire(50, 0), 50);
}

TEST(Resource, BusyInWindows) {
  Resource r;
  r.Acquire(10, 20);  // [10, 30)
  r.Acquire(50, 10);  // [50, 60)
  EXPECT_EQ(r.BusyIn(0, 100), 30);
  EXPECT_EQ(r.BusyIn(0, 20), 10);
  EXPECT_EQ(r.BusyIn(25, 55), 10);
  EXPECT_DOUBLE_EQ(r.UtilizationIn(0, 100), 0.3);
}

TEST(Resource, TotalBusyAccumulates) {
  Resource r;
  r.Acquire(0, 5);
  r.Acquire(0, 7);
  EXPECT_EQ(r.TotalBusy(), 12);
}

TEST(Resource, PruneDropsOldIntervalsOnly) {
  Resource r;
  r.Acquire(0, 10);
  r.Acquire(100, 10);
  r.Prune(50);
  EXPECT_EQ(r.BusyIn(50, 200), 10); // Retained.
  EXPECT_EQ(r.Backlog(0), 10);      // [0, 10) is forgotten.
}

TEST(Resource, WindowInsidePruneHorizonReadsExactly) {
  Resource r("disk");
  r.Acquire(0, 10);    // [0, 10): dropped.
  r.Acquire(40, 20);   // [40, 60): straddles the horizon, kept whole.
  r.Acquire(100, 10);  // [100, 110)
  r.Prune(50);
  r.Prune(30);  // An older `before` does not lower the horizon.
  EXPECT_EQ(r.BusyIn(50, 200), 20);
  EXPECT_EQ(r.BusyIn(50, 55), 5);
  EXPECT_EQ(r.BusyIn(55, 105), 10);
  EXPECT_DOUBLE_EQ(r.UtilizationIn(50, 150), 0.2);
}

TEST(ResourceDeathTest, WindowOlderThanPruneHorizonIsChecked) {
  Resource r("disk");
  r.Acquire(0, 10);
  r.Acquire(100, 10);
  r.Prune(50);
  EXPECT_DEATH(r.BusyIn(0, 50), "prune horizon");
  EXPECT_DEATH(r.UtilizationIn(49, 200), "prune horizon");
  ResourcePool pool("cpu", 2);
  pool.Acquire(0, 10);
  pool.Prune(50);
  EXPECT_DEATH(pool.BusyIn(0, 100), "prune horizon");
}

TEST(Resource, BacklogMeasuresFutureWork) {
  Resource r;
  r.Acquire(0, 100);
  EXPECT_EQ(r.Backlog(40), 60);
  EXPECT_EQ(r.Backlog(100), 0);
}

TEST(Resource, PeekDoesNotReserve) {
  Resource r;
  EXPECT_EQ(r.Peek(0, 10), 10);
  EXPECT_EQ(r.Peek(0, 10), 10);  // Still free.
  EXPECT_EQ(r.Acquire(0, 10), 10);
  EXPECT_EQ(r.Peek(0, 10), 20);
}

TEST(Resource, CoalescesAdjacentIntervals) {
  Resource r;
  for (int i = 0; i < 1000; ++i) r.Acquire(0, 1);
  // All contiguous: still a single busy block [0, 1000).
  EXPECT_EQ(r.BusyIn(0, 1000), 1000);
  EXPECT_EQ(r.Acquire(0, 1), 1001);
}

TEST(ResourcePool, ParallelismAcrossMembers) {
  ResourcePool pool("cpu", 2);
  EXPECT_EQ(pool.Acquire(0, 10), 10);  // Core 0.
  EXPECT_EQ(pool.Acquire(0, 10), 10);  // Core 1, in parallel.
  EXPECT_EQ(pool.Acquire(0, 10), 20);  // Queues on the earliest-free core.
}

TEST(ResourcePool, UtilizationAveragesMembers) {
  ResourcePool pool("cpu", 2);
  pool.Acquire(0, 100);  // One core busy [0, 100).
  EXPECT_DOUBLE_EQ(pool.UtilizationIn(0, 100), 0.5);
}

TEST(ResourcePool, PicksEarliestCompletion) {
  ResourcePool pool("cpu", 2);
  pool.Acquire(0, 100);           // Core 0 busy till 100.
  EXPECT_EQ(pool.Acquire(0, 5), 5);  // Lands on core 1.
}

// Property-style sweep: whatever the (deterministic pseudo-random) request
// pattern, intervals never overlap within one resource and total busy time
// is conserved.
class ResourcePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResourcePropertyTest, NoOverlapAndConservation) {
  Resource r;
  uint64_t x = GetParam();
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  SimTime total = 0;
  for (int i = 0; i < 500; ++i) {
    const SimTime arrival = static_cast<SimTime>(next() % 10000);
    const SimTime service = static_cast<SimTime>(next() % 50 + 1);
    const SimTime done = r.Acquire(arrival, service);
    EXPECT_GE(done, arrival + service);
    total += service;
  }
  EXPECT_EQ(r.TotalBusy(), total);
  // Busy time within the full horizon equals the scheduled work.
  EXPECT_EQ(r.BusyIn(0, 1'000'000), total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourcePropertyTest,
                         ::testing::Values(1, 7, 42, 12345, 999983));

// Reference model for the differential tests: the plain first-fit timeline
// over an ordered map of coalesced busy intervals that `Resource` must match
// placement for placement.
class RefTimeline {
 public:
  SimTime FindSlot(SimTime arrival, SimTime service) const {
    if (service <= 0) return arrival;
    SimTime candidate = arrival;
    auto it = intervals_.upper_bound(arrival);
    if (it != intervals_.begin()) {
      candidate = std::max(candidate, std::prev(it)->second);
    }
    for (; it != intervals_.end(); ++it) {
      if (it->first >= candidate + service) break;
      candidate = std::max(candidate, it->second);
    }
    return candidate;
  }

  SimTime Acquire(SimTime arrival, SimTime service) {
    if (service == 0) return arrival;
    const SimTime start = FindSlot(arrival, service);
    const SimTime end = start + service;
    total_busy_ += service;
    SimTime lo = start, hi = end;
    auto it = intervals_.upper_bound(start);
    if (it != intervals_.begin() && std::prev(it)->second == start) {
      lo = std::prev(it)->first;
      intervals_.erase(std::prev(it));
    }
    it = intervals_.find(end);
    if (it != intervals_.end()) {
      hi = it->second;
      intervals_.erase(it);
    }
    intervals_[lo] = hi;
    return end;
  }

  SimTime Peek(SimTime arrival, SimTime service) const {
    return FindSlot(arrival, service) + service;
  }

  SimTime Backlog(SimTime now) const {
    SimTime busy = 0;
    auto it = intervals_.upper_bound(now);
    if (it != intervals_.begin() && std::prev(it)->second > now) {
      busy += std::prev(it)->second - now;
    }
    for (; it != intervals_.end(); ++it) busy += it->second - it->first;
    return busy;
  }

  SimTime BusyIn(SimTime from, SimTime to) const {
    SimTime busy = 0;
    auto it = intervals_.upper_bound(from);
    if (it != intervals_.begin() && std::prev(it)->second > from) {
      busy += std::min(std::prev(it)->second, to) - from;
    }
    for (; it != intervals_.end() && it->first < to; ++it) {
      busy += std::min(it->second, to) - it->first;
    }
    return busy;
  }

  void Prune(SimTime before) {
    auto it = intervals_.begin();
    while (it != intervals_.end() && it->second <= before) {
      it = intervals_.erase(it);
    }
  }

  SimTime TotalBusy() const { return total_busy_; }
  const std::map<SimTime, SimTime>& intervals() const { return intervals_; }

 private:
  SimTime total_busy_ = 0;
  std::map<SimTime, SimTime> intervals_;  // start -> end, coalesced.
};

// Seeded op mix for the differential tests. Time drifts forward the way
// simulated clocks do, arrivals land behind, inside and past the booked
// timeline, and services are small against the spread so the timeline
// holds thousands of intervals (many gap-index blocks).
class OpMix {
 public:
  explicit OpMix(uint64_t seed) : x_(seed * 0x9E3779B97F4A7C15ull + 1) {}

  uint64_t Next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  SimTime Below(SimTime n) { return static_cast<SimTime>(Next() % n); }

  SimTime now() const { return now_; }
  void Advance() { now_ += Below(40); }

  // Before the horizon, inside the booked span, or beyond its end.
  SimTime Arrival(const RefTimeline& ref) {
    const SimTime last =
        ref.intervals().empty() ? now_ : ref.intervals().rbegin()->second;
    switch (Below(8)) {
      case 0:
        return now_ - 20'000 - Below(5'000);  // Behind everything kept.
      case 1:
        return last + Below(500);  // At or past the last interval.
      default:
        return now_ + Below(std::max<SimTime>(last - now_, 1) + 200);
    }
  }

  // Mostly short services; sometimes zero, long, or an exact gap.
  SimTime Service(const RefTimeline& ref) {
    switch (Below(16)) {
      case 0:
        return 0;
      case 1:
        return 200 + Below(2'000);
      case 2:
        return ExactGap(ref);
      default:
        return 1 + Below(12);
    }
  }

 private:
  // The length of some existing gap, so first fit lands flush both sides.
  SimTime ExactGap(const RefTimeline& ref) {
    const auto& iv = ref.intervals();
    if (iv.size() < 2) return 1 + Below(12);
    auto it = iv.lower_bound(now_ + Below(std::max<SimTime>(
                                        iv.rbegin()->first - now_, 1)));
    if (it == iv.end() || it == iv.begin()) return 1 + Below(12);
    return it->first - std::prev(it)->second;
  }

  uint64_t x_;
  SimTime now_ = 0;
};

class ResourceDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ResourceDifferentialTest, MatchesMapFirstFitOnEveryReturn) {
  Resource r("dut");
  RefTimeline ref;
  OpMix mix(GetParam());
  SimTime horizon = std::numeric_limits<SimTime>::min();
  size_t max_intervals = 0;
  int coalescing_runs = 0;
  for (int op = 0; op < 25'000; ++op) {
    mix.Advance();
    const SimTime arrival = mix.Arrival(ref);
    switch (mix.Below(20)) {
      case 0: {  // A back-to-back run that coalesces into one interval.
        const SimTime service = 1 + mix.Below(6);
        const int n = 2 + static_cast<int>(mix.Below(60));
        for (int k = 0; k < n; ++k) {
          ASSERT_EQ(r.Acquire(arrival, service), ref.Acquire(arrival, service))
              << "op " << op << " run step " << k;
        }
        ++coalescing_runs;
        break;
      }
      case 1:
      case 2:
        if (mix.Below(4) == 0) {
          // Occasionally an older `before`: the horizon must not drop.
          const SimTime before = mix.now() - 40'000 - mix.Below(20'000);
          r.Prune(before);
          ref.Prune(before);
          horizon = std::max(horizon, before);
        } else {
          // Half the time cut through the middle of a kept interval, then
          // look back across the cut: both sides must have kept it whole.
          SimTime before = mix.now() - 30'000;
          auto it = ref.intervals().lower_bound(before);
          if (mix.Below(2) == 0 && it != ref.intervals().end()) {
            before = it->first + (it->second - it->first) / 2;
          }
          r.Prune(before);
          ref.Prune(before);
          horizon = std::max(horizon, before);
          const SimTime back = before - mix.Below(2'000);
          ASSERT_EQ(r.Backlog(back), ref.Backlog(back)) << "op " << op;
          const SimTime service = 1 + mix.Below(8);
          ASSERT_EQ(r.Peek(back, service), ref.Peek(back, service))
              << "op " << op;
        }
        break;
      case 3: {
        const SimTime from = std::max(horizon, arrival);
        const SimTime to = from + mix.Below(50'000);
        ASSERT_EQ(r.BusyIn(from, to), ref.BusyIn(from, to)) << "op " << op;
        if (to > from) {
          ASSERT_DOUBLE_EQ(r.UtilizationIn(from, to),
                           static_cast<double>(ref.BusyIn(from, to)) /
                               static_cast<double>(to - from));
        }
        break;
      }
      case 4:
        ASSERT_EQ(r.Backlog(arrival), ref.Backlog(arrival)) << "op " << op;
        break;
      case 5:
      case 6:
      case 7: {
        const SimTime service = mix.Service(ref);
        ASSERT_EQ(r.Peek(arrival, service), ref.Peek(arrival, service))
            << "op " << op;
        break;
      }
      default: {
        const SimTime service = mix.Service(ref);
        ASSERT_EQ(r.Acquire(arrival, service), ref.Acquire(arrival, service))
            << "op " << op << " arrival " << arrival << " service " << service;
        break;
      }
    }
    ASSERT_EQ(r.TotalBusy(), ref.TotalBusy()) << "op " << op;
    max_intervals = std::max(max_intervals, ref.intervals().size());
  }
  // The timeline grew well past one block, so splits were exercised.
  EXPECT_GT(max_intervals, 1'000u);
  EXPECT_GT(coalescing_runs, 100);
  // Whatever is left reads the same from the horizon on.
  const SimTime from = std::max<SimTime>(horizon, 0);
  EXPECT_EQ(r.BusyIn(from, mix.now() + 10'000'000),
            ref.BusyIn(from, mix.now() + 10'000'000));
}

TEST(ResourceDifferential, EdgesOfTheTimeline) {
  Resource r;
  RefTimeline ref;
  // Many isolated intervals force block splits; then fill every other gap
  // with an exact fit, then arrive before the first and after the last.
  for (SimTime t = 0; t < 2'000; ++t) {
    ASSERT_EQ(r.Acquire(t * 10, 3), ref.Acquire(t * 10, 3));
  }
  for (SimTime t = 0; t < 2'000; t += 2) {
    ASSERT_EQ(r.Acquire(t * 10, 7), ref.Acquire(t * 10, 7));
  }
  for (SimTime s : {0, 1, 6, 7, 8, 17, 40}) {
    ASSERT_EQ(r.Peek(-100, s), ref.Peek(-100, s)) << s;
    ASSERT_EQ(r.Peek(5, s), ref.Peek(5, s)) << s;
    ASSERT_EQ(r.Peek(19'990, s), ref.Peek(19'990, s)) << s;
    ASSERT_EQ(r.Peek(50'000, s), ref.Peek(50'000, s)) << s;
  }
  ASSERT_EQ(r.Acquire(-100, 50), ref.Acquire(-100, 50));
  ASSERT_EQ(r.Acquire(-50, 50), ref.Acquire(-50, 50));  // Touches [0, ..).
  ASSERT_EQ(r.Acquire(0, 8), ref.Acquire(0, 8));        // No gap fits 8.
  ASSERT_EQ(r.Backlog(-1'000), ref.Backlog(-1'000));
  ASSERT_EQ(r.BusyIn(-1'000, 30'000), ref.BusyIn(-1'000, 30'000));
  // Fill every remaining gap: the whole span coalesces into one interval.
  for (SimTime t = 1; t < 2'000; t += 2) {
    ASSERT_EQ(r.Acquire(t * 10, 7), ref.Acquire(t * 10, 7));
  }
  ASSERT_EQ(ref.intervals().size(), 1u);
  ASSERT_EQ(r.Peek(0, 1), ref.Peek(0, 1));
  r.Prune(10'000);
  ref.Prune(10'000);
  ASSERT_EQ(r.BusyIn(10'000, 30'000), ref.BusyIn(10'000, 30'000));
  ASSERT_EQ(r.Acquire(10'000, 1), ref.Acquire(10'000, 1));
  r.Prune(1'000'000);
  ref.Prune(1'000'000);
  ASSERT_EQ(r.Backlog(0), 0);
  ASSERT_EQ(r.Acquire(5, 5), ref.Acquire(5, 5));
  ASSERT_EQ(r.TotalBusy(), ref.TotalBusy());
}

class ResourcePoolDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ResourcePoolDifferentialTest, MatchesPeekEveryMemberThenAcquire) {
  const auto [members, seed] = GetParam();
  ResourcePool pool("cpu", members);
  std::vector<RefTimeline> ref(static_cast<size_t>(members));
  // The reference pool: peek every member, take the strictly earliest
  // completion at the lowest index, then acquire there.
  auto ref_pick = [&ref](SimTime arrival, SimTime service) {
    size_t best = 0;
    SimTime best_done = ref[0].Peek(arrival, service);
    for (size_t i = 1; i < ref.size(); ++i) {
      const SimTime done = ref[i].Peek(arrival, service);
      if (done < best_done) {
        best = i;
        best_done = done;
      }
    }
    return std::make_pair(best, best_done);
  };
  OpMix mix(seed);
  SimTime horizon = std::numeric_limits<SimTime>::min();
  for (int op = 0; op < 20'000; ++op) {
    mix.Advance();
    const SimTime arrival = mix.Arrival(ref[op % ref.size()]);
    const SimTime service = mix.Service(ref[op % ref.size()]);
    switch (mix.Below(12)) {
      case 0: {
        const SimTime before = mix.now() - 30'000;
        pool.Prune(before);
        for (auto& m : ref) m.Prune(before);
        horizon = std::max(horizon, before);
        break;
      }
      case 1: {
        const SimTime from = std::max(horizon, arrival);
        const SimTime to = from + mix.Below(50'000);
        SimTime busy = 0;
        for (const auto& m : ref) busy += m.BusyIn(from, to);
        ASSERT_EQ(pool.BusyIn(from, to), busy) << "op " << op;
        SimTime backlog = ref[0].Backlog(arrival);
        for (const auto& m : ref) {
          backlog = std::min(backlog, m.Backlog(arrival));
        }
        ASSERT_EQ(pool.Backlog(arrival), backlog) << "op " << op;
        break;
      }
      case 2:
      case 3:
        ASSERT_EQ(pool.Peek(arrival, service),
                  ref_pick(arrival, service).second)
            << "op " << op;
        break;
      default: {
        const size_t best = ref_pick(arrival, service).first;
        ASSERT_EQ(pool.Acquire(arrival, service),
                  ref[best].Acquire(arrival, service))
            << "op " << op;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourceDifferentialTest,
                         ::testing::Values(1, 2, 3, 42, 12345, 999983));

INSTANTIATE_TEST_SUITE_P(
    MembersBySeed, ResourcePoolDifferentialTest,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(1, 7, 42, 12345, 999983)));

}  // namespace
}  // namespace wattdb::sim
