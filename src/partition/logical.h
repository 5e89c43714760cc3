#ifndef WATTDB_PARTITION_LOGICAL_H_
#define WATTDB_PARTITION_LOGICAL_H_

#include "partition/migration.h"

namespace wattdb::partition {

/// Logical partitioning (§4.2): records in a key range are *transactionally*
/// deleted from the source partition and re-inserted into a partition on
/// the target node, batch by batch under system transactions. Ownership
/// moves with the records and the optimizer learns the new ranges, but the
/// move is far more expensive than segment shipping: every record pays page
/// reads, page writes, index maintenance, WAL appends, and record locks —
/// and under MGL-RX concurrent readers of moving records block.
class LogicalPartitioning : public MigrationManagerBase {
 public:
  LogicalPartitioning(cluster::Cluster* cluster,
                      MigrationConfig config = MigrationConfig())
      : MigrationManagerBase(cluster, config) {}

  std::string name() const override { return "logical"; }
  bool SupportsDrain() const override { return true; }

 protected:
  void ExecuteTask(const cluster::SegmentMove& task,
                   std::function<void()> next) override;

 private:
  void MoveBatch(const cluster::SegmentMove& task, PartitionId dst_id,
                 Key cursor, std::function<void()> next);
  void FinalizeRange(const cluster::SegmentMove& task, PartitionId dst_id);
};

}  // namespace wattdb::partition

#endif  // WATTDB_PARTITION_LOGICAL_H_
