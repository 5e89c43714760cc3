#include "workload/driver.h"

#include <algorithm>

namespace wattdb::workload {

WorkloadDriver::WorkloadDriver(sim::EventQueue* events, int num_clients,
                               uint64_t stream_seed, SimTime think_time,
                               int shed_retries, SimTime retry_backoff,
                               double arrival_qps)
    : events_(events),
      think_time_(think_time),
      shed_retries_(shed_retries),
      retry_backoff_(retry_backoff),
      arrival_qps_(arrival_qps) {
  for (int i = 0; i < num_clients; ++i) {
    rngs_.push_back(std::make_unique<Rng>(stream_seed + i));
  }
}

void WorkloadDriver::Start() {
  if (running_) return;
  running_ = true;
  if (arrival_qps_ > 0.0) {
    Arrive();
    return;
  }
  for (int i = 0; i < static_cast<int>(rngs_.size()); ++i) {
    // Stagger initial arrivals across one think interval so the pool does
    // not thunder in lock-step.
    const SimTime offset = static_cast<SimTime>(
        rngs_[i]->UniformDouble() * static_cast<double>(think_time_));
    events_->ScheduleAfter(offset, [this, i]() { Step(i, 0); });
  }
}

void WorkloadDriver::Arrive() {
  if (!running_) return;
  // Schedule the next arrival *before* running this one: the offered rate
  // must not depend on how long the transaction takes.
  const SimTime gap = std::max<SimTime>(
      1, static_cast<SimTime>(rngs_[0]->Exponential(
             static_cast<double>(kUsPerSec) / arrival_qps_)));
  events_->ScheduleAfter(gap, [this]() { Arrive(); });
  Step(0, 0);
}

void WorkloadDriver::Step(int client, int attempt) {
  if (!running_) {
    // The stop raced a scheduled backoff retry: its transaction was issued
    // but never resolved — account for it so issued == committed + aborted
    // + retry_abandoned holds after the queue drains.
    if (attempt > 0) ++books_.retry_abandoned;
    return;
  }
  Rng* rng = rngs_[client].get();
  // A retry re-runs an already-issued transaction; only fresh arrivals
  // count toward the offered load.
  if (attempt == 0) ++books_.issued;
  const Attempt a = RunAttempt(client, rng);
  const bool retry = a.shed && attempt < shed_retries_;
  if (a.book_at_completion) {
    events_->ScheduleAt(a.completed_at,
                        [this, a, retry]() { Book(a, retry); });
  } else {
    Book(a, retry);
  }
  if (retry) {
    // The client sits out the backoff instead of thinking — a shed
    // transaction is unfinished business, not a completed one. The backoff
    // is exponential in the attempt number and jittered so a wave of sheds
    // does not retry in lock-step and shed again together.
    ++books_.retried;
    const double base =
        static_cast<double>(retry_backoff_) *
        static_cast<double>(int64_t{1} << std::min(attempt, 16));
    const SimTime backoff = std::max<SimTime>(
        1, static_cast<SimTime>(base * (0.5 + rng->UniformDouble())));
    events_->ScheduleAt(a.completed_at + backoff, [this, client, attempt]() {
      Step(client, attempt + 1);
    });
    return;
  }
  // Open loop: the arrival process issues the next transaction.
  if (arrival_qps_ > 0.0) return;
  // Closed loop: next submission after the answer plus think time.
  const SimTime think = static_cast<SimTime>(
      rng->Exponential(static_cast<double>(think_time_)));
  events_->ScheduleAt(a.completed_at + think,
                      [this, client]() { Step(client, 0); });
}

void WorkloadDriver::Book(const Attempt& a, bool retry) {
  if (a.shed) ++books_.shed;
  if (a.committed) {
    ++books_.committed;
    books_.key_ops += a.key_ops;
    latencies_.Add(static_cast<double>(a.latency));
    if (a.within_slo) ++books_.slo_met;
  } else if (!retry) {
    // A shed attempt with retries left is neither committed nor aborted
    // yet — its retry (or retry_abandoned) closes the books.
    ++books_.aborted;
    if (a.shed) ++books_.dropped;
  }
}

}  // namespace wattdb::workload
