#include "fault/fault_injector.h"

#include "common/logging.h"
#include "partition/migration.h"
#include "replica/replica_manager.h"

namespace wattdb::fault {

namespace {
/// How often a migration-progress trigger samples RebalanceStats. Fine
/// enough to land within one move task of the requested fraction, coarse
/// enough to stay invisible next to segment copy times.
constexpr SimTime kProgressPollUs = 20 * kUsPerMs;
}  // namespace

FaultInjector::FaultInjector(cluster::Cluster* cluster,
                             RecoveryManager* recovery,
                             partition::MigrationManagerBase* scheme,
                             replica::ReplicaManager* replicas)
    : cluster_(cluster),
      recovery_(recovery),
      scheme_(scheme),
      replicas_(replicas) {
  WATTDB_CHECK(cluster_ != nullptr);
  WATTDB_CHECK(recovery_ != nullptr);
  WATTDB_CHECK(scheme_ != nullptr);
  WATTDB_CHECK(replicas_ != nullptr);
}

void FaultInjector::Arm(const FaultPlan& plan) {
  for (const FaultPlan::Crash& spec : plan.crashes) Schedule(spec);
  for (const FaultPlan::NetSplit& spec : plan.splits) Schedule(spec);
}

void FaultInjector::Schedule(const FaultPlan::NetSplit& spec) {
  const uint64_t gen = generation_;
  cluster_->events().ScheduleAt(spec.at, [this, spec, gen]() {
    if (gen != generation_) return;
    const Status cut = cluster_->PartitionNode(spec.node);
    if (!cut.ok()) {
      // Down, already partitioned, or otherwise uncuttable right now —
      // dropped like a skipped crash injection.
      WATTDB_INFO("fault: injected partition of node "
                  << spec.node.value() << " skipped: " << cut.ToString());
      return;
    }
    ++partitions_injected_;
    if (spec.heal_after > 0) {
      // Heals survive Disarm, like auto-restarts: a churn plan must not
      // leave a node permanently unreachable from the master.
      cluster_->events().ScheduleAfter(spec.heal_after, [this, spec]() {
        (void)cluster_->HealPartition(spec.node);
      });
    }
  });
}

void FaultInjector::Schedule(const FaultPlan::Crash& spec) {
  const uint64_t gen = generation_;
  if (spec.at_migration_progress >= 0.0 || spec.at_replica_progress >= 0.0) {
    cluster_->events().ScheduleAfter(
        kProgressPollUs, [this, spec, gen]() { PollProgress(spec, gen); });
    return;
  }
  cluster_->events().ScheduleAt(spec.at,
                                [this, spec, gen]() { Fire(spec, gen); });
}

void FaultInjector::PollProgress(FaultPlan::Crash spec, uint64_t generation) {
  if (generation != generation_) return;
  // A started rebalance is enough — a fast one may reach the fraction and
  // finish inside one poll interval, and the trigger must still fire
  // (tasks_planned > 0 survives completion; it only resets on the next
  // StartRebalance).
  if (spec.at_migration_progress >= 0.0 &&
      scheme_->stats().tasks_planned > 0 &&
      scheme_->stats().progress() >= spec.at_migration_progress) {
    WATTDB_INFO("fault: migration progress "
                << scheme_->stats().progress() << " >= "
                << spec.at_migration_progress << ", crashing node "
                << spec.node.value());
    Fire(spec, generation);
    return;
  }
  // Replica-progress trigger: arms only once replicas exist (progress() is
  // 0.0 on an empty replica set, so a plan built before the first standby
  // is created still waits for it).
  if (spec.at_replica_progress >= 0.0 && !replicas_->replicas().empty() &&
      replicas_->progress() >= spec.at_replica_progress) {
    WATTDB_INFO("fault: replica progress "
                << replicas_->progress() << " >= " << spec.at_replica_progress
                << ", crashing node " << spec.node.value());
    Fire(spec, generation);
    return;
  }
  cluster_->events().ScheduleAfter(
      kProgressPollUs,
      [this, spec, generation]() { PollProgress(spec, generation); });
}

void FaultInjector::Fire(FaultPlan::Crash spec, uint64_t generation) {
  if (generation != generation_) return;
  const Status crashed = recovery_->Crash(spec.node);
  if (crashed.ok()) {
    ++crashes_injected_;
  } else {
    // Already down, booting, or otherwise uncrashable right now — the
    // injection is dropped, not retried (a periodic spec tries again next
    // period).
    WATTDB_INFO("fault: injected crash of node " << spec.node.value()
                                                 << " skipped: "
                                                 << crashed.ToString());
  }
  if (crashed.ok() && spec.restart_after > 0) {
    cluster_->events().ScheduleAfter(spec.restart_after, [this, spec]() {
      // Auto-restarts survive Disarm so churn plans cannot leave a node
      // permanently dark.
      const Status restarted = recovery_->Restart(spec.node);
      if (restarted.ok()) ++restarts_injected_;
    });
  }
  if (spec.period > 0) {
    cluster_->events().ScheduleAfter(spec.period, [this, spec, generation]() {
      Fire(spec, generation);
    });
  }
}

}  // namespace wattdb::fault
