#ifndef WATTDB_HW_NODE_HARDWARE_H_
#define WATTDB_HW_NODE_HARDWARE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "hw/disk.h"
#include "hw/power.h"
#include "sim/resource.h"

namespace wattdb::hw {

/// Hardware configuration of one wimpy node. Defaults match the paper's
/// testbed (§3.1): Intel Atom D510 (2 cores), 1 HDD + 2 SSDs. The 2 GB of
/// DRAM is modeled by the buffer pool's page budget, not here.
struct NodeHardwareSpec {
  int cpu_cores = 2;
  int num_hdd = 1;
  int num_ssd = 2;
  /// Time for a standby node to boot and rejoin the cluster. The paper
  /// reports processing nodes can attach "in the range of a few seconds".
  SimTime boot_time_us = 5 * kUsPerSec;
};

/// The simulated hardware of a single node: CPU core pool plus its locally
/// attached disks. Power state transitions (standby <-> active) gate whether
/// the node may do any work.
class NodeHardware {
 public:
  NodeHardware(NodeId id, const NodeHardwareSpec& spec, DiskId first_disk_id);

  NodeHardware(const NodeHardware&) = delete;
  NodeHardware& operator=(const NodeHardware&) = delete;

  NodeId id() const { return id_; }
  const NodeHardwareSpec& spec() const { return spec_; }

  sim::ResourcePool& cpu() { return cpu_; }
  const sim::ResourcePool& cpu() const { return cpu_; }

  std::vector<std::unique_ptr<Disk>>& disks() { return disks_; }
  const std::vector<std::unique_ptr<Disk>>& disks() const { return disks_; }

  Disk* disk(size_t i) { return disks_[i].get(); }
  size_t num_disks() const { return disks_.size(); }

  /// Round-robin pick of the least-backlogged disk for new allocations.
  Disk* LeastLoadedDisk(SimTime now);

  PowerState power_state() const { return power_state_; }
  void set_power_state(PowerState s) { power_state_ = s; }

  /// CPU utilization over a window, used for threshold checks and power.
  double CpuUtilizationIn(SimTime from, SimTime to) const {
    return cpu_.UtilizationIn(from, to);
  }

  /// Node draw over a window per the power model.
  double PowerIn(const PowerModel& model, SimTime from, SimTime to) const;

  void Prune(SimTime before);

 private:
  NodeId id_;
  NodeHardwareSpec spec_;
  sim::ResourcePool cpu_;
  std::vector<std::unique_ptr<Disk>> disks_;
  PowerState power_state_ = PowerState::kActive;
};

}  // namespace wattdb::hw

#endif  // WATTDB_HW_NODE_HARDWARE_H_
