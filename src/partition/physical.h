#ifndef WATTDB_PARTITION_PHYSICAL_H_
#define WATTDB_PARTITION_PHYSICAL_H_

#include "partition/migration.h"

namespace wattdb::partition {

/// Physical partitioning (§4.1): whole segments move between disks/nodes at
/// raw copy speed, but logical ownership stays with the original node. No
/// transactions are needed — a lightweight latch suffices while a segment
/// is in flight. The price: after the move, every page access by the owner
/// pays a network round trip to the node now holding the bytes, and the
/// query layer gains no processing power ("the logical control of the data
/// is stuck at the original node", §5.2).
class PhysicalPartitioning : public MigrationManagerBase {
 public:
  PhysicalPartitioning(cluster::Cluster* cluster,
                       MigrationConfig config = MigrationConfig())
      : MigrationManagerBase(cluster, config) {}

  std::string name() const override { return "physical"; }
  bool SupportsDrain() const override { return false; }

 protected:
  void ExecuteTask(const cluster::SegmentMove& task,
                   std::function<void()> next) override;
};

}  // namespace wattdb::partition

#endif  // WATTDB_PARTITION_PHYSICAL_H_
