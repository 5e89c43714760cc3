#include "cluster/monitor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "cluster/cluster.h"

namespace wattdb::cluster {

std::vector<NodeStats> Monitor::Sample(SimTime window) const {
  std::vector<NodeStats> out;
  const SimTime now = cluster_->Now();
  const SimTime from = now > window ? now - window : 0;
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    Node* n = cluster_->node(NodeId(i));
    NodeStats s;
    s.node = n->id();
    // A partitioned node is alive but its heartbeats never reach the
    // master — the failure detector (and everyone planning off this
    // sample) must see it as gone, even though its data path still runs.
    s.active = n->IsActive() && !cluster_->node_state(n->id()).partitioned;
    if (s.active) {
      s.cpu = n->hardware().CpuUtilizationIn(from, now);
      for (const auto& d : n->hardware().disks()) {
        s.max_disk = std::max(s.max_disk, d->resource().UtilizationIn(from, now));
      }
      s.net_in = cluster_->network().IngressUtilization(n->id(), from, now);
      s.net_out = cluster_->network().EgressUtilization(n->id(), from, now);
      s.buffer_hits = n->buffer().hits();
      s.buffer_misses = n->buffer().misses();
    }
    out.push_back(s);
  }
  return out;
}

std::vector<SegmentHeat> Monitor::SampleSegments() {
  std::unordered_map<uint32_t, std::pair<int64_t, int64_t>> prev;
  for (const auto& [seg, counts] : last_counts_) {
    prev[seg.value()] = counts;
  }
  last_counts_.clear();
  std::vector<SegmentHeat> out;
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    for (storage::Segment* seg :
         cluster_->segments().SegmentsOn(NodeId(i))) {
      SegmentHeat h;
      h.segment = seg->id();
      h.storage_node = seg->storage_node();
      auto it = prev.find(seg->id().value());
      const int64_t pr = it == prev.end() ? 0 : it->second.first;
      const int64_t pw = it == prev.end() ? 0 : it->second.second;
      h.reads = seg->reads() - pr;
      h.writes = seg->writes() - pw;
      last_counts_.push_back({seg->id(), {seg->reads(), seg->writes()}});
      out.push_back(h);
    }
  }
  return out;
}

void Monitor::UpdateHeat(SimTime window, double alpha) {
  if (window <= 0) return;
  const double secs = ToSeconds(window);
  std::unordered_set<SegmentId> seen;
  for (const SegmentHeat& h : SampleSegments()) {
    const double rate = static_cast<double>(h.reads + h.writes) / secs;
    auto it = heat_.find(h.segment);
    if (it == heat_.end()) {
      heat_.emplace(h.segment, HeatEntry{h.segment, h.storage_node, rate});
    } else {
      it->second.node = h.storage_node;
      it->second.heat = alpha * rate + (1.0 - alpha) * it->second.heat;
    }
    seen.insert(h.segment);
  }
  // Dropped segments (merged away, or their node's bookkeeping gone): decay
  // as if idle, and forget them once their heat is noise.
  constexpr double kNegligible = 1e-3;
  for (auto it = heat_.begin(); it != heat_.end();) {
    if (seen.count(it->first) == 0) {
      it->second.heat *= 1.0 - alpha;
      if (it->second.heat < kNegligible) {
        it = heat_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

std::vector<HeatEntry> Monitor::SegmentHeats() const {
  std::vector<HeatEntry> out;
  out.reserve(heat_.size());
  for (const auto& [seg, entry] : heat_) out.push_back(entry);
  return out;
}

std::unordered_map<NodeId, double> Monitor::NodeHeats() const {
  std::unordered_map<NodeId, double> out;
  for (const auto& [seg, entry] : heat_) out[entry.node] += entry.heat;
  return out;
}

std::vector<LaneStats> Monitor::LaneStatsFor(NodeId node) const {
  const lanes::LaneManager& lanes = cluster_->lanes();
  if (!lanes.enabled()) return {};
  std::vector<LaneStats> out(lanes.lanes_per_node());
  const SimTime now = cluster_->Now();
  for (int l = 0; l < lanes.lanes_per_node(); ++l) {
    out[l].lane = l;
    out[l].backlog_us = lanes.Backlog(node, l, now);
  }
  for (const auto& [sid, entry] : heat_) {
    if (entry.node != node) continue;
    storage::Segment* seg = cluster_->segments().Get(sid);
    if (seg == nullptr) continue;
    const int l = seg->lane();
    if (l < 0 || l >= lanes.lanes_per_node()) continue;  // Not yet assigned.
    out[l].heat += entry.heat;
  }
  return out;
}

std::vector<QueueDepthGauge> Monitor::QueueDepths() const {
  std::vector<QueueDepthGauge> out;
  const SimTime now = cluster_->Now();
  for (int i = 0; i < cluster_->num_nodes(); ++i) {
    Node* n = cluster_->node(NodeId(i));
    if (!n->IsActive()) continue;
    out.push_back(
        QueueDepthGauge{n->id(), cluster_->admission().QueueDepth(n->id(), now)});
  }
  return out;
}

}  // namespace wattdb::cluster
