#include "hw/disk.h"

#include <algorithm>

namespace wattdb::hw {

DiskSpec DiskSpec::Hdd() {
  DiskSpec s;
  s.kind = DiskKind::kHdd;
  s.random_access_us = 8000;      // ~8 ms seek + rotation, 7200 rpm class.
  s.seq_bandwidth_bps = 100e6;    // 100 MB/s.
  return s;
}

DiskSpec DiskSpec::Ssd() {
  DiskSpec s;
  s.kind = DiskKind::kSsd;
  s.random_access_us = 120;       // ~120 us random read, SATA-era SSD.
  s.seq_bandwidth_bps = 250e6;    // 250 MB/s.
  return s;
}

Disk::Disk(DiskId id, NodeId node, DiskSpec spec, std::string name)
    : id_(id), node_(node), spec_(spec), resource_(std::move(name)) {}

SimTime Disk::RandomServiceTime(size_t bytes) const {
  const SimTime transfer = static_cast<SimTime>(
      static_cast<double>(bytes) / spec_.seq_bandwidth_bps * kUsPerSec);
  return spec_.random_access_us + transfer;
}

SimTime Disk::SequentialServiceTime(size_t bytes) const {
  return static_cast<SimTime>(static_cast<double>(bytes) /
                              spec_.seq_bandwidth_bps * kUsPerSec);
}

SimTime Disk::AccessRandom(SimTime arrival, size_t bytes) {
  ++random_ops_;
  bytes_transferred_ += static_cast<int64_t>(bytes);
  return resource_.Acquire(arrival, RandomServiceTime(bytes));
}

SimTime Disk::AccessSequential(SimTime arrival, size_t bytes) {
  bytes_transferred_ += static_cast<int64_t>(bytes);
  // One positioning charge per sequential burst.
  return resource_.Acquire(arrival,
                           spec_.random_access_us + SequentialServiceTime(bytes));
}

SimTime Disk::AccessAppend(SimTime arrival, size_t bytes) {
  bytes_transferred_ += static_cast<int64_t>(bytes);
  constexpr SimTime kAppendOverheadUs = 60;
  return resource_.Acquire(arrival,
                           kAppendOverheadUs + SequentialServiceTime(bytes));
}

}  // namespace wattdb::hw
