#ifndef WATTDB_HW_DISK_H_
#define WATTDB_HW_DISK_H_

#include <cstdint>
#include <string>

#include "common/constants.h"
#include "common/types.h"
#include "sim/resource.h"

namespace wattdb::hw {

enum class DiskKind { kHdd, kSsd };

/// Physical characteristics of one storage device. Defaults approximate the
/// paper's commodity hardware: one 7200 rpm HDD plus two SATA SSDs per node.
struct DiskSpec {
  DiskKind kind = DiskKind::kHdd;
  /// Average positioning time for a random access (seek + rotational delay).
  SimTime random_access_us = 8000;   // HDD default.
  /// Sustained sequential bandwidth in bytes/second.
  double seq_bandwidth_bps = 100e6;  // 100 MB/s HDD default.

  static DiskSpec Hdd();
  static DiskSpec Ssd();
};

/// A single simulated storage device: an FCFS service timeline plus counters.
/// Random page accesses pay the positioning cost; sequential accesses (the
/// caller asserts sequentiality, e.g. segment-granular migration I/O) pay
/// only transfer time.
class Disk {
 public:
  Disk(DiskId id, NodeId node, DiskSpec spec, std::string name);

  /// Schedule a random page read/write of `bytes`. Returns completion time.
  SimTime AccessRandom(SimTime arrival, size_t bytes);

  /// Schedule a sequential transfer of `bytes` (no positioning cost beyond
  /// one initial seek charged per call).
  SimTime AccessSequential(SimTime arrival, size_t bytes);

  /// Schedule an append at the current head position (WAL writes): pure
  /// transfer plus a small controller overhead, no seek. Models a
  /// write-cached log device.
  SimTime AccessAppend(SimTime arrival, size_t bytes);

  /// Service time of a random access without queueing.
  SimTime RandomServiceTime(size_t bytes) const;
  SimTime SequentialServiceTime(size_t bytes) const;

  DiskId id() const { return id_; }
  NodeId node() const { return node_; }
  const DiskSpec& spec() const { return spec_; }
  sim::Resource& resource() { return resource_; }
  const sim::Resource& resource() const { return resource_; }

  int64_t random_ops() const { return random_ops_; }
  int64_t bytes_transferred() const { return bytes_transferred_; }

 private:
  DiskId id_;
  NodeId node_;
  DiskSpec spec_;
  sim::Resource resource_;
  int64_t random_ops_ = 0;
  int64_t bytes_transferred_ = 0;
};

}  // namespace wattdb::hw

#endif  // WATTDB_HW_DISK_H_
