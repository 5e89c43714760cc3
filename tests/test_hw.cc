// Unit tests for the hardware models: disks, network, power (§3.1).

#include <gtest/gtest.h>

#include "common/constants.h"
#include "hw/disk.h"
#include "hw/network.h"
#include "hw/node_hardware.h"
#include "hw/power.h"

namespace wattdb::hw {
namespace {

TEST(Disk, RandomAccessPaysPositioning) {
  Disk d(DiskId(0), NodeId(0), DiskSpec::Hdd(), "hdd");
  const SimTime done = d.AccessRandom(0, kPageSize);
  // ~8ms seek + 8KB/100MBps ~ 82us transfer.
  EXPECT_GT(done, 8000);
  EXPECT_LT(done, 8200);
  EXPECT_EQ(d.random_ops(), 1);
}

TEST(Disk, SsdMuchFasterThanHdd) {
  Disk ssd(DiskId(0), NodeId(0), DiskSpec::Ssd(), "ssd");
  Disk hdd(DiskId(1), NodeId(0), DiskSpec::Hdd(), "hdd");
  EXPECT_LT(ssd.AccessRandom(0, kPageSize) * 10,
            hdd.AccessRandom(0, kPageSize));
}

TEST(Disk, SequentialApproachesBandwidth) {
  Disk d(DiskId(0), NodeId(0), DiskSpec::Hdd(), "hdd");
  // 100 MB at 100 MB/s ~ 1 s (+ one positioning charge).
  const SimTime done = d.AccessSequential(0, 100'000'000);
  EXPECT_NEAR(static_cast<double>(done), 1e6, 2e4);
}

TEST(Disk, AppendHasNoSeek) {
  Disk d(DiskId(0), NodeId(0), DiskSpec::Hdd(), "hdd");
  const SimTime done = d.AccessAppend(0, 100);
  EXPECT_LT(done, 200);  // Controller overhead only, no 8ms seek.
}

TEST(Disk, QueueingAccumulates) {
  Disk d(DiskId(0), NodeId(0), DiskSpec::Ssd(), "ssd");
  const SimTime first = d.AccessRandom(0, kPageSize);
  const SimTime second = d.AccessRandom(0, kPageSize);
  EXPECT_GT(second, first);
}

TEST(Network, LocalTransferIsFree) {
  Network net;
  net.AddNode(NodeId(0));
  EXPECT_EQ(net.Transfer(100, NodeId(0), NodeId(0), 1 << 20), 100);
}

TEST(Network, TransferPaysLatencyAndBandwidth) {
  Network net;
  net.AddNode(NodeId(0));
  net.AddNode(NodeId(1));
  const SimTime done = net.Transfer(0, NodeId(0), NodeId(1), 125'000'000 / 8);
  // 1 Gbit/s: 15.6 MB ~ 125 ms on each hop + latency.
  EXPECT_GT(done, 2 * 125'000 / 2);
  EXPECT_GT(done, net.spec().message_latency_us);
}

TEST(Network, RoundTripCostsTwoMessages) {
  Network net;
  net.AddNode(NodeId(0));
  net.AddNode(NodeId(1));
  const SimTime rtt = net.RoundTrip(0, NodeId(0), NodeId(1), 64, 64);
  EXPECT_GE(rtt, 2 * net.spec().message_latency_us);
  EXPECT_EQ(net.messages_sent(), 2);
}

TEST(Network, ConcurrentSendersShareLink) {
  Network net;
  for (int i = 0; i < 3; ++i) net.AddNode(NodeId(i));
  const size_t big = 12'500'000;  // 100 ms of link time.
  const SimTime a = net.Transfer(0, NodeId(0), NodeId(1), big);
  const SimTime b = net.Transfer(0, NodeId(0), NodeId(2), big);
  // Same egress: the second transfer serializes behind the first.
  EXPECT_GE(b, a);
  // Different egress nodes run in parallel.
  Network net2;
  for (int i = 0; i < 3; ++i) net2.AddNode(NodeId(i));
  const SimTime c = net2.Transfer(0, NodeId(0), NodeId(2), big);
  const SimTime d = net2.Transfer(0, NodeId(1), NodeId(2), big);
  (void)c;
  // Receiver ingress still serializes them.
  EXPECT_GT(d, net2.TransmitTime(big));
}

TEST(Network, UtilizationTracksLoad) {
  Network net;
  net.AddNode(NodeId(0));
  net.AddNode(NodeId(1));
  net.Transfer(0, NodeId(0), NodeId(1), 12'500'000);  // 100ms of egress.
  EXPECT_NEAR(net.EgressUtilization(NodeId(0), 0, kUsPerSec), 0.1, 0.01);
  EXPECT_NEAR(net.IngressUtilization(NodeId(1), 0, 2 * kUsPerSec), 0.05, 0.01);
}

TEST(Power, PaperEnvelope) {
  PowerModel m;
  EXPECT_DOUBLE_EQ(m.NodeWatts(PowerState::kStandby, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(m.NodeWatts(PowerState::kActive, 0.0), 22.0);
  EXPECT_DOUBLE_EQ(m.NodeWatts(PowerState::kActive, 1.0), 26.0);
  EXPECT_DOUBLE_EQ(m.NodeWatts(PowerState::kActive, 0.5), 24.0);
  EXPECT_DOUBLE_EQ(m.SwitchWatts(), 20.0);
}

TEST(Power, MinimalClusterConfigMatchesPaper) {
  // §3.1: one active node + switch + 9 standby nodes ~ 65 W.
  PowerModel m;
  const double watts = m.NodeWatts(PowerState::kActive, 0.1) +
                       9 * m.NodeWatts(PowerState::kStandby, 0) +
                       m.SwitchWatts();
  EXPECT_NEAR(watts, 65.0, 3.0);
}

TEST(Power, FullClusterMatchesPaper) {
  // §3.1: all 10 nodes at full utilization ~ 260-280 W.
  PowerModel m;
  const double watts =
      10 * m.NodeWatts(PowerState::kActive, 1.0) + m.SwitchWatts();
  EXPECT_GE(watts, 260.0);
  EXPECT_LE(watts, 280.0);
}

TEST(Power, UtilizationClamped) {
  PowerModel m;
  EXPECT_DOUBLE_EQ(m.NodeWatts(PowerState::kActive, 2.0), 26.0);
  EXPECT_DOUBLE_EQ(m.NodeWatts(PowerState::kActive, -1.0), 22.0);
}

TEST(EnergyMeter, IntegratesWattSeconds) {
  EnergyMeter meter;
  meter.Accumulate(100.0, 0, kUsPerSec);      // 100 J.
  meter.Accumulate(50.0, kUsPerSec, 3 * kUsPerSec);  // +100 J.
  EXPECT_DOUBLE_EQ(meter.joules(), 200.0);
  meter.Reset();
  EXPECT_DOUBLE_EQ(meter.joules(), 0.0);
}

TEST(EnergyMeter, IgnoresEmptyWindows) {
  EnergyMeter meter;
  meter.Accumulate(100.0, 10, 10);
  meter.Accumulate(100.0, 10, 5);
  EXPECT_DOUBLE_EQ(meter.joules(), 0.0);
}

TEST(NodeHardware, PaperNodeConfiguration) {
  NodeHardwareSpec spec;  // Defaults: Atom D510, 1 HDD + 2 SSD.
  NodeHardware hw(NodeId(3), spec, DiskId(9));
  EXPECT_EQ(hw.cpu().size(), 2);
  EXPECT_EQ(hw.num_disks(), 3u);
  EXPECT_EQ(hw.disk(0)->spec().kind, DiskKind::kHdd);
  EXPECT_EQ(hw.disk(1)->spec().kind, DiskKind::kSsd);
  EXPECT_EQ(hw.disk(2)->spec().kind, DiskKind::kSsd);
  EXPECT_EQ(hw.disk(0)->id(), DiskId(9));
  EXPECT_EQ(hw.disk(2)->id(), DiskId(11));
  EXPECT_EQ(hw.disk(1)->node(), NodeId(3));
}

TEST(NodeHardware, LeastLoadedDiskPrefersIdle) {
  NodeHardware hw(NodeId(0), NodeHardwareSpec{}, DiskId(0));
  hw.disk(1)->AccessRandom(0, kPageSize);
  Disk* pick = hw.LeastLoadedDisk(0);
  EXPECT_NE(pick, hw.disk(1));
}

TEST(NodeHardware, PowerFollowsState) {
  NodeHardware hw(NodeId(0), NodeHardwareSpec{}, DiskId(0));
  PowerModel m;
  hw.set_power_state(PowerState::kStandby);
  EXPECT_DOUBLE_EQ(hw.PowerIn(m, 0, 1000), 2.5);
  hw.set_power_state(PowerState::kActive);
  EXPECT_DOUBLE_EQ(hw.PowerIn(m, 0, 1000), 22.0);
}

}  // namespace
}  // namespace wattdb::hw
