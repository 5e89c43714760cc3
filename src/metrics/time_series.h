#ifndef WATTDB_METRICS_TIME_SERIES_H_
#define WATTDB_METRICS_TIME_SERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace wattdb::metrics {

/// One sampling bucket of the Fig. 6 / Fig. 8 series.
struct SeriesBucket {
  int64_t completed = 0;      ///< Queries finished in this bucket.
  double sum_latency_us = 0;  ///< Sum of their response times.
  double watts = 0;           ///< Average cluster power draw.
  double joules = 0;          ///< Energy consumed in this bucket.

  double Qps(double bucket_seconds) const {
    return completed / bucket_seconds;
  }
  double AvgLatencyMs() const {
    return completed == 0 ? 0.0 : sum_latency_us / completed / kUsPerMs;
  }
  double JoulesPerQuery() const {
    return completed == 0 ? 0.0 : joules / completed;
  }
};

/// Time-bucketed recorder for throughput / response time / power / energy
/// series. Buckets are indexed relative to a configurable origin so series
/// can use the paper's -180 s .. +570 s axis (t = 0 is "rebalance
/// initiated").
class TimeSeries {
 public:
  explicit TimeSeries(SimTime bucket_width = 10 * kUsPerSec)
      : bucket_width_(bucket_width) {}

  /// Set the absolute simulated time that maps to axis time 0.
  void SetOrigin(SimTime origin) { origin_ = origin; }
  SimTime origin() const { return origin_; }

  /// Record a query completion at absolute time `at`.
  void RecordCompletion(SimTime at, SimTime latency_us);

  /// Record power for the window [from, to) at `watts`.
  void RecordPower(SimTime from, SimTime to, double watts);

  const std::map<int64_t, SeriesBucket>& buckets() const { return buckets_; }
  double BucketSeconds() const { return ToSeconds(bucket_width_); }

  /// Pretty-print: time, qps, avg-ms, watts, joules/query columns.
  std::string ToTable(const std::string& label) const;

  /// CSV with header "t_sec,qps,avg_ms,watts,j_per_query".
  std::string ToCsv() const;

 private:
  int64_t BucketOf(SimTime at) const;

  SimTime bucket_width_;
  SimTime origin_ = 0;
  std::map<int64_t, SeriesBucket> buckets_;
};

/// Merge several labeled series into one side-by-side table (one row per
/// bucket, one column group per series) — the layout of Fig. 6.
std::string SideBySide(const std::vector<std::string>& labels,
                       const std::vector<const TimeSeries*>& series,
                       const std::string& value,  // qps|ms|watt|jpq
                       double bucket_seconds);

}  // namespace wattdb::metrics

#endif  // WATTDB_METRICS_TIME_SERIES_H_
