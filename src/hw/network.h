#ifndef WATTDB_HW_NETWORK_H_
#define WATTDB_HW_NETWORK_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sim/resource.h"

namespace wattdb::hw {

/// Parameters of the interconnect. Defaults model the paper's Gigabit
/// Ethernet star topology through one store-and-forward switch.
struct NetworkSpec {
  /// Link bandwidth per direction, bytes/second (1 Gbit/s ~ 125 MB/s).
  double link_bandwidth_bps = 125e6;
  /// One-way per-message latency (propagation + switch + software stack).
  /// Calibrated so that a synchronous record-at-a-time next() round trip
  /// costs ~1 ms, matching the <1000 records/s observed in Fig. 1.
  SimTime message_latency_us = 450;
};

/// Simulated cluster interconnect: per-node full-duplex NIC queues joined by
/// a switch. A transfer occupies the sender's egress link and the receiver's
/// ingress link; messages additionally pay a fixed per-message latency.
class Network {
 public:
  explicit Network(NetworkSpec spec = NetworkSpec()) : spec_(spec) {}

  /// Register a node's NIC. Must be called once per node before use.
  void AddNode(NodeId node);

  /// Ship `bytes` from `src` to `dst` starting at `arrival`. Returns the
  /// delivery completion time. Local "transfers" (src == dst) are free.
  SimTime Transfer(SimTime arrival, NodeId src, NodeId dst, size_t bytes);

  /// A synchronous request/response pair: request message of `req_bytes`
  /// from src to dst, then a response of `resp_bytes` back. Returns the time
  /// the response fully arrives. Models volcano-style remote next() calls.
  SimTime RoundTrip(SimTime arrival, NodeId src, NodeId dst, size_t req_bytes,
                    size_t resp_bytes);

  /// Pure service time for `bytes` on one link, without queueing or latency.
  SimTime TransmitTime(size_t bytes) const;

  /// Utilization of a node's egress link in [from, to).
  double EgressUtilization(NodeId node, SimTime from, SimTime to) const;
  double IngressUtilization(NodeId node, SimTime from, SimTime to) const;
  void Prune(SimTime before);

  int64_t messages_sent() const { return messages_sent_; }
  int64_t bytes_sent() const { return bytes_sent_; }

  const NetworkSpec& spec() const { return spec_; }

 private:
  struct Nic {
    sim::Resource egress{"egress"};
    sim::Resource ingress{"ingress"};
  };

  NetworkSpec spec_;
  std::unordered_map<NodeId, Nic> nics_;
  int64_t messages_sent_ = 0;
  int64_t bytes_sent_ = 0;
};

}  // namespace wattdb::hw

#endif  // WATTDB_HW_NETWORK_H_
