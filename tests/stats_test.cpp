// Unit tests for latency statistics and throughput meters.
#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace accelring::util {
namespace {

TEST(LatencyStats, MeanMinMax) {
  LatencyStats s;
  s.add(100);
  s.add(200);
  s.add(300);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.mean(), 200);
  EXPECT_EQ(s.min(), 100);
  EXPECT_EQ(s.max(), 300);
}

TEST(LatencyStats, EmptyIsZeroEverywhere) {
  LatencyStats s;
  EXPECT_EQ(s.mean(), 0);
  EXPECT_EQ(s.min(), 0);
  EXPECT_EQ(s.max(), 0);
  EXPECT_EQ(s.percentile(0.5), 0);
  EXPECT_EQ(s.stddev(), 0);
}

TEST(LatencyStats, PercentilesInterpolate) {
  LatencyStats s;
  for (int i = 1; i <= 100; ++i) s.add(i * 10);
  EXPECT_EQ(s.percentile(0.0), 10);
  EXPECT_EQ(s.percentile(1.0), 1000);
  // Median of 1..100 scaled by 10: between 500 and 510.
  EXPECT_GE(s.percentile(0.5), 500);
  EXPECT_LE(s.percentile(0.5), 510);
  EXPECT_GE(s.percentile(0.99), 980);
}

TEST(LatencyStats, AddAfterPercentileKeepsCorrectness) {
  LatencyStats s;
  s.add(5);
  EXPECT_EQ(s.percentile(0.5), 5);  // forces a sort
  s.add(1);
  s.add(9);
  EXPECT_EQ(s.percentile(0.5), 5);
  EXPECT_EQ(s.min(), 1);
}

TEST(LatencyStats, StddevOfConstantIsZero) {
  LatencyStats s;
  for (int i = 0; i < 10; ++i) s.add(42);
  EXPECT_EQ(s.stddev(), 0);
}

TEST(Meter, MbpsOverWindow) {
  Meter m;
  // 1250 bytes = 10000 bits; over 1 ms -> 10 Mbps.
  m.add(1250);
  EXPECT_DOUBLE_EQ(m.mbps(kMillisecond), 10.0);
  EXPECT_EQ(m.messages(), 1u);
}

TEST(Meter, ZeroWindowIsZero) {
  Meter m;
  m.add(100);
  EXPECT_DOUBLE_EQ(m.mbps(0), 0.0);
}

}  // namespace
}  // namespace accelring::util
