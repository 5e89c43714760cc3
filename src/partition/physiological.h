#ifndef WATTDB_PARTITION_PHYSIOLOGICAL_H_
#define WATTDB_PARTITION_PHYSIOLOGICAL_H_

#include "partition/migration.h"

namespace wattdb::partition {

/// The paper's contribution (§4.3): segments move at raw-copy speed *and*
/// ownership transfers. Protocol per segment:
///   1. master registers the move (two-pointer routing entry);
///   2. a system transaction takes a read (S) lock on the source partition,
///      draining in-flight writers and blocking new ones (readers continue
///      on old versions via MVCC);
///   3. the segment's bytes stream to the target node; the segment-local
///      primary-key index travels with them and stays valid;
///   4. the segment is detached from the source top index, attached to the
///      target partition's top index, and the master flips routing;
///   5. the lock settles, checkpoint records are logged on both nodes, and
///      the source stays in kForwarding for a grace window.
class PhysiologicalPartitioning : public MigrationManagerBase {
 public:
  PhysiologicalPartitioning(cluster::Cluster* cluster,
                            MigrationConfig config = MigrationConfig())
      : MigrationManagerBase(cluster, config) {}

  std::string name() const override { return "physiological"; }
  bool SupportsDrain() const override { return true; }

 protected:
  void ExecuteTask(const cluster::SegmentMove& task,
                   std::function<void()> next) override;

 private:
  /// Idle-resource estimate of how long copying `bytes` (unscaled) takes;
  /// used as the per-segment lock-hold window.
  SimTime EstimateCopyUs(size_t bytes) const;
};

}  // namespace wattdb::partition

#endif  // WATTDB_PARTITION_PHYSIOLOGICAL_H_
