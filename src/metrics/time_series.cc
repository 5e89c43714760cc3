#include "metrics/time_series.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

namespace wattdb::metrics {

int64_t TimeSeries::BucketOf(SimTime at) const {
  const SimTime rel = at - origin_;
  // Floor division so negative axis times land in negative buckets.
  int64_t b = rel / bucket_width_;
  if (rel < 0 && rel % bucket_width_ != 0) --b;
  return b;
}

void TimeSeries::RecordCompletion(SimTime at, SimTime latency_us) {
  SeriesBucket& b = buckets_[BucketOf(at)];
  b.completed += 1;
  b.sum_latency_us += static_cast<double>(latency_us);
}

void TimeSeries::RecordPower(SimTime from, SimTime to, double watts) {
  // Attribute energy to each overlapped bucket.
  SimTime t = from;
  while (t < to) {
    const int64_t bucket = BucketOf(t);
    const SimTime bucket_end = origin_ + (bucket + 1) * bucket_width_;
    const SimTime chunk_end = std::min(bucket_end, to);
    SeriesBucket& b = buckets_[bucket];
    const double secs = ToSeconds(chunk_end - t);
    b.joules += watts * secs;
    // Average power: accumulate time-weighted; normalize by bucket width.
    b.watts += watts * secs / ToSeconds(bucket_width_);
    t = chunk_end;
  }
}

std::string TimeSeries::ToTable(const std::string& label) const {
  std::ostringstream os;
  os << "# " << label << "\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%8s %10s %10s %10s %12s", "t_sec", "qps",
                "avg_ms", "watts", "J/query");
  os << buf << "\n";
  const double bs = BucketSeconds();
  for (const auto& [b, bucket] : buckets_) {
    std::snprintf(buf, sizeof(buf), "%8.0f %10.1f %10.2f %10.1f %12.3f",
                  b * bs, bucket.Qps(bs), bucket.AvgLatencyMs(), bucket.watts,
                  bucket.JoulesPerQuery());
    os << buf << "\n";
  }
  return os.str();
}

std::string TimeSeries::ToCsv() const {
  std::ostringstream os;
  os << "t_sec,qps,avg_ms,watts,j_per_query\n";
  const double bs = BucketSeconds();
  for (const auto& [b, bucket] : buckets_) {
    os << b * bs << "," << bucket.Qps(bs) << "," << bucket.AvgLatencyMs()
       << "," << bucket.watts << "," << bucket.JoulesPerQuery() << "\n";
  }
  return os.str();
}

std::string SideBySide(const std::vector<std::string>& labels,
                       const std::vector<const TimeSeries*>& series,
                       const std::string& value, double bucket_seconds) {
  std::ostringstream os;
  char buf[64];
  os << "#    t_sec";
  for (const auto& l : labels) {
    std::snprintf(buf, sizeof(buf), " %14s", l.c_str());
    os << buf;
  }
  os << "\n";
  std::set<int64_t> bucket_ids;
  for (const TimeSeries* s : series) {
    for (const auto& [b, bucket] : s->buckets()) bucket_ids.insert(b);
  }
  for (int64_t b : bucket_ids) {
    std::snprintf(buf, sizeof(buf), "%10.0f", b * bucket_seconds);
    os << buf;
    for (const TimeSeries* s : series) {
      auto it = s->buckets().find(b);
      double v = 0.0;
      if (it != s->buckets().end()) {
        if (value == "qps") {
          v = it->second.Qps(bucket_seconds);
        } else if (value == "ms") {
          v = it->second.AvgLatencyMs();
        } else if (value == "watt") {
          v = it->second.watts;
        } else {
          v = it->second.JoulesPerQuery();
        }
      }
      std::snprintf(buf, sizeof(buf), " %14.2f", v);
      os << buf;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace wattdb::metrics
