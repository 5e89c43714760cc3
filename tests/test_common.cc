// Unit tests for src/common: Status/StatusOr, strong ids, key ranges, RNG,
// statistics.

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"

namespace wattdb {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(Status, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::ResourceExhausted().IsResourceExhausted());
  EXPECT_TRUE(Status::Internal().IsInternal());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
}

Status Helper(bool fail) {
  if (fail) return Status::Aborted("nope");
  return Status::OK();
}

Status UseReturnMacro(bool fail) {
  WATTDB_RETURN_IF_ERROR(Helper(fail));
  return Status::OK();
}

TEST(StatusMacros, ReturnIfError) {
  EXPECT_TRUE(UseReturnMacro(false).ok());
  EXPECT_TRUE(UseReturnMacro(true).IsAborted());
}

TEST(Ids, InvalidByDefault) {
  NodeId n;
  EXPECT_FALSE(n.valid());
  EXPECT_EQ(n, NodeId::Invalid());
}

TEST(Ids, DistinctTagTypesDoNotCompare) {
  NodeId n(3);
  SegmentId s(3);
  EXPECT_TRUE(n.valid());
  EXPECT_TRUE(s.valid());
  // Compile-time property: NodeId and SegmentId are distinct types.
  static_assert(!std::is_same_v<NodeId, SegmentId>);
}

TEST(Ids, Ordering) {
  EXPECT_LT(TxnId(1), TxnId(2));
  EXPECT_GT(TxnId(5), TxnId(2));
  EXPECT_LE(TxnId(2), TxnId(2));
}

TEST(Ids, Hashable) {
  std::set<uint32_t> seen;
  std::hash<PartitionId> h;
  EXPECT_NE(h(PartitionId(1)), h(PartitionId(2)));
}

TEST(KeyRange, Contains) {
  KeyRange r{10, 20};
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(19));
  EXPECT_FALSE(r.Contains(20));
  EXPECT_FALSE(r.Contains(9));
}

TEST(KeyRange, Overlaps) {
  KeyRange a{10, 20};
  EXPECT_TRUE(a.Overlaps({15, 25}));
  EXPECT_TRUE(a.Overlaps({0, 11}));
  EXPECT_FALSE(a.Overlaps({20, 30}));
  EXPECT_FALSE(a.Overlaps({0, 10}));
}

TEST(KeyRange, EmptyAndToString) {
  EXPECT_TRUE((KeyRange{5, 5}).Empty());
  EXPECT_FALSE((KeyRange{5, 6}).Empty());
  EXPECT_EQ((KeyRange{1, 9}).ToString(), "[1, 9)");
  EXPECT_EQ((KeyRange{0, kMaxKey}).ToString(), "[0, max)");
}

TEST(TimeConversions, RoundTrip) {
  EXPECT_DOUBLE_EQ(ToSeconds(kUsPerSec), 1.0);
  EXPECT_EQ(FromSeconds(2.5), 2'500'000);
  EXPECT_EQ(FromMillis(1.5), 1500);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntDegenerate) {
  Rng rng(9);
  EXPECT_EQ(rng.UniformInt(7, 7), 7);
  EXPECT_EQ(rng.UniformInt(9, 3), 9);  // hi < lo clamps to lo.
}

TEST(Rng, UniformDoubleRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, NURandInBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NURand(1023, 1, 3000);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3000);
  }
}

TEST(Rng, NURandIsSkewed) {
  // NURand produces a non-uniform distribution: the chi-square statistic
  // against uniform should be large.
  Rng rng(19);
  constexpr int kBuckets = 10;
  int counts[kBuckets] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[(rng.NURand(255, 1, 1000) - 1) / 100]++;
  }
  double chi2 = 0;
  const double expected = n / static_cast<double>(kBuckets);
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_GT(chi2, 100.0);
}

TEST(Rng, ZipfInBounds) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Zipf(100, 0.9), 100u);
  }
}

TEST(Rng, ZipfSkewsTowardZero) {
  Rng rng(29);
  int low = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(1000, 0.99) < 10) ++low;
  }
  // With theta ~1, the first 1% of items should draw far more than 1%.
  EXPECT_GT(low, n / 20);
}

TEST(RunningStat, Basics) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  s.Add(1);
  s.Add(2);
  s.Add(3);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_NEAR(s.stddev(), 0.8165, 1e-3);
}

TEST(RunningStat, Reset) {
  RunningStat s;
  s.Add(5);
  s.Reset();
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, CountMeanPercentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.mean(), 500.5, 0.1);
  EXPECT_NEAR(h.Percentile(50), 500, 150);
  EXPECT_NEAR(h.Percentile(99), 990, 200);
  EXPECT_LE(h.Percentile(100), 1000.0);
}

TEST(Histogram, Merge) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_NEAR(a.mean(), 505.0, 0.1);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Add(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.has_value());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> r = Status::NotFound("no such key");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.has_value());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.status().message(), "no such key");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(StatusOr, OkStatusIsAnInternalError) {
  StatusOr<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::string> r = std::string("payload");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

TEST(StatusOr, MemberAccessThroughArrow) {
  StatusOr<std::pair<int, int>> r = std::make_pair(1, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->second, 2);
}

}  // namespace
}  // namespace wattdb
