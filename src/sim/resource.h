#ifndef WATTDB_SIM_RESOURCE_H_
#define WATTDB_SIM_RESOURCE_H_

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace wattdb::sim {

/// A serially-used hardware resource (disk arm, NIC link, CPU core) modeled
/// as a timeline of busy intervals. A request arriving at `arrival` with
/// service time `service` is placed into the earliest gap of length
/// `service` that starts at or after `arrival` (exact first fit).
///
/// Gap-filling matters because requests do NOT arrive in chronological
/// order: each simulated transaction carries its own clock and may reserve
/// resource time "in the future", while a transaction whose event fires
/// later may need the resource at an earlier instant. First-fit gap
/// allocation keeps the model deterministic and close to FCFS without the
/// false serialization a single `free_at` cursor would impose.
///
/// The timeline is a gap index: a sorted vector of blocks, each holding at
/// most `kBlockSpans` sorted `[start, end)` intervals and caching its first
/// start and the largest gap between its own consecutive intervals.
/// Intervals are coalesced wherever they touch, also across block
/// boundaries, so the interval set is the same one a plain ordered map of
/// coalesced intervals would hold and every placement, window and backlog
/// reads the same. Bookings land near the frontier, so a search checks the
/// last block first and otherwise gallops back 1, 2, 4, ... blocks before
/// it binary-searches the stretch that holds the time. A first-fit search
/// then scans the rest of the arrival's block, checks each boundary gap
/// and skips every block whose largest gap is shorter than the service. It
/// hands the position it found over to the booking, so `Acquire` searches
/// the timeline once.
///
/// Busy intervals are retained until `Prune` drops them, so callers can
/// sample windowed utilization, which feeds the power model. The owner
/// prunes to the longest window its readers declared (the cluster keeps
/// the master's monitoring window, at least one sample period), so a
/// window may reach back that far and no further. Windows must start at or
/// after the prune horizon (the largest `before` ever pruned); reading an
/// older window is a checked error rather than an undercount.
class Resource {
 public:
  explicit Resource(std::string name = "") : name_(std::move(name)) {}

  /// Reserve `service` us starting no earlier than `arrival`. Returns the
  /// completion time.
  SimTime Acquire(SimTime arrival, SimTime service);

  /// Completion time a request would see, without reserving.
  SimTime Peek(SimTime arrival, SimTime service) const;

  /// Outstanding scheduled work beyond `now` (load heuristic).
  SimTime Backlog(SimTime now) const;

  /// Busy microseconds inside the window [from, to). `from` must be at or
  /// after the prune horizon.
  SimTime BusyIn(SimTime from, SimTime to) const;

  /// Fraction of [from, to) the resource was busy. `from` must be at or
  /// after the prune horizon.
  double UtilizationIn(SimTime from, SimTime to) const;

  /// Drop interval bookkeeping that ends at or before `before`.
  void Prune(SimTime before);

  /// Total busy time ever scheduled.
  SimTime TotalBusy() const { return total_busy_; }

  const std::string& name() const { return name_; }

 private:
  friend class ResourcePool;

  static constexpr size_t kBlockSpans = 128;
  static constexpr SimTime kNoLimit = std::numeric_limits<SimTime>::max();

  struct Span {
    SimTime start;
    SimTime end;
  };
  struct Block {
    std::vector<Span> spans;  // Sorted, non-empty, coalesced.
    SimTime first = 0;        // spans.front().start, kept for Locate.
    SimTime max_gap = 0;      // Largest spans[k + 1].start - spans[k].end.
  };
  /// Position of the first span that starts after `t`: block `b`, index
  /// `i` (which may equal that block's size). `b` is the last block whose
  /// first span starts at or before `t`, or 0 when there is none.
  struct Pos {
    size_t b;
    size_t i;
  };
  /// A free slot: its start and `Locate(start)`.
  struct Slot {
    SimTime start;
    Pos pos;
  };

  /// The first gap of >= `service` at/after `arrival`. The walk gives up
  /// once the start reaches `limit` and then returns a start >= `limit`,
  /// so callers comparing against `limit` lose nothing.
  Slot FindSlot(SimTime arrival, SimTime service,
                SimTime limit = kNoLimit) const;
  /// Book [slot.start, slot.start + service), which must lie in a free gap.
  void Reserve(const Slot& slot, SimTime service);
  Pos Locate(SimTime t) const;
  /// The position of a time between block `b - 1`'s last end and block
  /// `b`'s first start.
  Pos Before(size_t b) const;
  void CheckWindow(SimTime from) const;
  static void RecomputeMaxGap(Block* block);

  std::string name_;
  SimTime total_busy_ = 0;
  SimTime prune_horizon_ = std::numeric_limits<SimTime>::min();
  std::vector<Block> blocks_;  // Sorted, each block non-empty.
};

/// A pool of `k` identical resources (e.g. CPU cores). Requests are routed
/// to the member that can complete them first, the lowest index on a tie.
class ResourcePool {
 public:
  ResourcePool(std::string name, int count);

  SimTime Acquire(SimTime arrival, SimTime service);
  SimTime Peek(SimTime arrival, SimTime service) const;

  SimTime BusyIn(SimTime from, SimTime to) const;
  double UtilizationIn(SimTime from, SimTime to) const;
  void Prune(SimTime before);

  /// Outstanding work beyond `now` on the least-loaded member.
  SimTime Backlog(SimTime now) const;

  int size() const { return static_cast<int>(members_.size()); }
  const std::string& name() const { return name_; }

 private:
  /// Earliest slot over all members in one bounded pass; sets `*member`.
  Resource::Slot EarliestStart(SimTime arrival, SimTime service,
                               size_t* member) const;

  std::string name_;
  std::vector<Resource> members_;
};

}  // namespace wattdb::sim

#endif  // WATTDB_SIM_RESOURCE_H_
