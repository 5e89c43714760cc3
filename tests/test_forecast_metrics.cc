// Tests for the metrics module (time series + Fig. 7 breakdown).

#include <gtest/gtest.h>

#include "metrics/breakdown.h"
#include "metrics/time_series.h"

namespace wattdb {
namespace {

TEST(TimeSeries, BucketsRelativeToOrigin) {
  metrics::TimeSeries ts(10 * kUsPerSec);
  ts.SetOrigin(100 * kUsPerSec);
  ts.RecordCompletion(95 * kUsPerSec, 5000);   // Bucket -1.
  ts.RecordCompletion(105 * kUsPerSec, 15000); // Bucket 0.
  ASSERT_EQ(ts.buckets().size(), 2u);
  EXPECT_EQ(ts.buckets().begin()->first, -1);
  EXPECT_EQ(ts.buckets().rbegin()->first, 0);
  EXPECT_DOUBLE_EQ(ts.buckets().rbegin()->second.AvgLatencyMs(), 15.0);
}

TEST(TimeSeries, PowerSplitsAcrossBuckets) {
  metrics::TimeSeries ts(10 * kUsPerSec);
  // 100 W over [5 s, 25 s): 5 s in bucket 0, 10 s in bucket 1, 5 s in 2.
  ts.RecordPower(5 * kUsPerSec, 25 * kUsPerSec, 100.0);
  ASSERT_EQ(ts.buckets().size(), 3u);
  const auto& b0 = ts.buckets().at(0);
  const auto& b1 = ts.buckets().at(1);
  EXPECT_NEAR(b0.joules, 500.0, 1.0);
  EXPECT_NEAR(b1.joules, 1000.0, 1.0);
  EXPECT_NEAR(b1.watts, 100.0, 0.5);  // Fully covered bucket.
}

TEST(TimeSeries, QpsAndJoulesPerQuery) {
  metrics::TimeSeries ts(kUsPerSec);
  for (int i = 0; i < 50; ++i) ts.RecordCompletion(500000, 2000);
  ts.RecordPower(0, kUsPerSec, 80.0);
  const auto& b = ts.buckets().at(0);
  EXPECT_DOUBLE_EQ(b.Qps(1.0), 50.0);
  EXPECT_NEAR(b.JoulesPerQuery(), 80.0 / 50.0, 0.01);
}

TEST(TimeSeries, CsvAndTableEmission) {
  metrics::TimeSeries ts(kUsPerSec);
  ts.RecordCompletion(100, 1000);
  const std::string csv = ts.ToCsv();
  EXPECT_NE(csv.find("t_sec,qps,avg_ms,watts,j_per_query"), std::string::npos);
  const std::string table = ts.ToTable("demo");
  EXPECT_NE(table.find("demo"), std::string::npos);
}

TEST(SideBySide, MergesSeriesColumns) {
  metrics::TimeSeries a(kUsPerSec), b(kUsPerSec);
  a.RecordCompletion(500000, 1000);
  b.RecordCompletion(1500000, 1000);
  const std::string out =
      metrics::SideBySide({"a", "b"}, {&a, &b}, "qps", 1.0);
  // Two bucket rows, both labels in the header.
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("b"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(TimeBreakdown, AccumulatesTxnComponents) {
  metrics::TimeBreakdown bd;
  tx::Txn t;
  t.start_time = 0;
  t.now = 10000;
  t.log_us = 1000;
  t.latch_us = 500;
  t.lock_wait_us = 1500;
  t.net_us = 2000;
  t.disk_us = 3000;
  t.cpu_us = 1000;
  bd.AddTxn(t);
  EXPECT_EQ(bd.queries(), 1);
  EXPECT_DOUBLE_EQ(bd.LoggingMs(), 1.0);
  EXPECT_DOUBLE_EQ(bd.LatchingMs(), 0.5);
  EXPECT_DOUBLE_EQ(bd.LockingMs(), 1.5);
  EXPECT_DOUBLE_EQ(bd.NetworkMs(), 2.0);
  EXPECT_DOUBLE_EQ(bd.DiskMs(), 3.0);
  // Other = cpu (1ms) + unattributed (10 - 9 = 1ms).
  EXPECT_DOUBLE_EQ(bd.OtherMs(), 2.0);
  EXPECT_DOUBLE_EQ(bd.TotalMs(), 10.0);
}

TEST(TimeBreakdown, MergeAndReset) {
  metrics::TimeBreakdown a, b;
  tx::Txn t;
  t.start_time = 0;
  t.now = 4000;
  t.disk_us = 4000;
  a.AddTxn(t);
  b.AddTxn(t);
  a.Add(b);
  EXPECT_EQ(a.queries(), 2);
  EXPECT_DOUBLE_EQ(a.DiskMs(), 4.0);
  a.Reset();
  EXPECT_EQ(a.queries(), 0);
}

TEST(TimeBreakdown, RowFormatting) {
  metrics::TimeBreakdown bd;
  const std::string header = metrics::TimeBreakdown::Header();
  EXPECT_NE(header.find("logging"), std::string::npos);
  EXPECT_NE(bd.ToRow("label").find("label"), std::string::npos);
}

}  // namespace
}  // namespace wattdb
