// Statistical tests for the workload generators: Zipf key sampling must
// reproduce the configured power-law slope, and the diurnal thinning chain
// must produce arrival counts matching the closed-form intensity integral.
// Also exercises the full driver end-to-end against a live service.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "check/kv_oracle.hpp"
#include "kv/service.hpp"
#include "kv/workload.hpp"
#include "multiring/ring_set.hpp"
#include "util/rng.hpp"

namespace accelring::kv {
namespace {

using check::KvOracle;
using multiring::RingSet;

/// One ring of three nodes on the 1 GbE fabric with default timeouts.
multiring::MultiRingConfig one_ring(uint64_t seed) {
  return {.rings = 1, .nodes_per_ring = 3, .topology = {},
          .fabric = simnet::FabricParams::one_gig(), .proto = {},
          .seed = seed};
}

TEST(ZipfGen, ProbabilitiesNormalizeAndRankDecreasing) {
  ZipfGen zipf(1000, 0.99);
  double total = 0;
  for (uint64_t r = 0; r < 1000; ++r) total += zipf.probability(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (uint64_t r = 1; r < 1000; ++r) {
    EXPECT_LT(zipf.probability(r), zipf.probability(r - 1));
  }
  // s = 0 degenerates to uniform.
  ZipfGen uniform(100, 0.0);
  EXPECT_NEAR(uniform.probability(0), 0.01, 1e-12);
  EXPECT_NEAR(uniform.probability(99), 0.01, 1e-12);
}

TEST(ZipfGen, SampledFrequenciesFollowThePowerLawSlope) {
  // Sample heavily, then fit log(freq) against log(rank+1) over the head
  // ranks by least squares: the slope must come out near -s. (The head carries
  // almost all samples, so tail noise never enters the fit.)
  const double s = 0.99;
  const uint64_t n = 10'000;
  const int samples = 400'000;
  ZipfGen zipf(n, s);
  util::Rng rng(42);
  std::vector<uint64_t> freq(n, 0);
  for (int i = 0; i < samples; ++i) ++freq[zipf.sample(rng.uniform())];

  // Rank 0 must dominate and the empirical head frequencies must match the
  // analytic pmf within a few percent.
  for (uint64_t r = 0; r < 8; ++r) {
    const double expected = zipf.probability(r) * samples;
    EXPECT_NEAR(freq[r], expected, expected * 0.08 + 30)
        << "rank " << r;
  }

  const int head = 50;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (int r = 0; r < head; ++r) {
    ASSERT_GT(freq[r], 0u);
    const double x = std::log(static_cast<double>(r + 1));
    const double y = std::log(static_cast<double>(freq[r]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double slope = (head * sxy - sx * sy) / (head * sxx - sx * sx);
  EXPECT_NEAR(slope, -s, 0.06)
      << "log-log frequency-rank slope drifted from the Zipf exponent";
}

TEST(Diurnal, FactorTracesTheRaisedCosine) {
  WorkloadConfig cfg;
  cfg.peak_factor = 3.0;
  cfg.period = util::sec(1);
  cfg.start = util::msec(0);
  EXPECT_NEAR(diurnal_factor(0, cfg), 1.0, 1e-9);
  EXPECT_NEAR(diurnal_factor(util::msec(500), cfg), 3.0, 1e-9);
  EXPECT_NEAR(diurnal_factor(util::sec(1), cfg), 1.0, 1e-9);
  EXPECT_NEAR(diurnal_factor(util::msec(250), cfg), 2.0, 1e-9);
  // The factor never leaves [1, peak].
  for (int i = 0; i <= 20; ++i) {
    const double f = diurnal_factor(i * util::msec(50), cfg);
    EXPECT_GE(f, 1.0 - 1e-9);
    EXPECT_LE(f, 3.0 + 1e-9);
  }
}

TEST(Diurnal, IntegralMatchesNumericQuadrature) {
  WorkloadConfig cfg;
  cfg.peak_factor = 2.5;
  cfg.period = util::msec(700);
  cfg.start = util::msec(30);
  const Nanos a = util::msec(30);
  const Nanos b = util::msec(900);  // beyond one period
  const int steps = 20'000;
  double sum = 0;
  const double dt = static_cast<double>(b - a) / steps;
  for (int i = 0; i < steps; ++i) {
    sum += diurnal_factor(a + static_cast<Nanos>((i + 0.5) * dt), cfg) * dt;
  }
  sum /= 1e9;  // seconds
  EXPECT_NEAR(diurnal_integral(a, b, cfg), sum, sum * 1e-4);
}

TEST(Workload, ArrivalCountMatchesTheIntensityIntegral) {
  // Run the real open-loop driver against a live 3-node service and compare
  // total arrivals (issued + skips) with base_rate * integral of the
  // diurnal factor. Poisson noise at N draws is ~sqrt(N); allow 5 sigma.
  RingSet rings(one_ring(11));
  ServiceConfig scfg;
  KvService service(rings, scfg);
  rings.start_static();

  WorkloadConfig wcfg;
  wcfg.sessions = 3000;
  wcfg.keys = 500;
  wcfg.base_rate = 20'000;
  wcfg.peak_factor = 2.0;
  wcfg.period = util::msec(800);
  wcfg.start = util::msec(50);
  wcfg.stop = util::sec(1);
  wcfg.measure_from = util::msec(50);
  wcfg.read_fraction = 0.8;
  wcfg.seed = 7;
  SessionWorkload workload(service, wcfg);
  workload.start();
  rings.run_until(util::msec(1300));

  const auto& st = workload.stats();
  const uint64_t arrivals = st.issued + st.busy_skips + st.down_skips;
  const double expected =
      wcfg.base_rate * diurnal_integral(wcfg.start, wcfg.stop, wcfg);
  EXPECT_GT(expected, 10'000.0);
  EXPECT_NEAR(static_cast<double>(arrivals), expected,
              5 * std::sqrt(expected))
      << "thinned arrival count disagrees with the closed-form integral";

  // The driver really drove the service: ops completed, sessions spread,
  // and the read/write mix is in the neighbourhood of read_fraction.
  EXPECT_GT(st.completed, arrivals / 2);
  EXPECT_GT(st.sessions_touched, 1000u);
  const double reads = static_cast<double>(st.lease_reads + st.ordered_reads);
  const double mix = reads / static_cast<double>(st.completed);
  EXPECT_NEAR(mix, wcfg.read_fraction, 0.05);
  EXPECT_GT(workload.latency().count(), 0u);
}

TEST(Workload, DriverStaysCorrectUnderOracleWithChurn) {
  RingSet rings(one_ring(13));
  ServiceConfig scfg;
  KvService service(rings, scfg);
  KvOracle oracle;
  oracle.attach(service);
  rings.start_static();

  WorkloadConfig wcfg;
  wcfg.sessions = 60;  // small pool so churn actually hits in-flight ops
  wcfg.keys = 200;
  wcfg.base_rate = 6'000;
  wcfg.peak_factor = 1.5;
  wcfg.period = util::msec(600);
  wcfg.start = util::msec(40);
  wcfg.stop = util::msec(800);
  wcfg.churn_per_sec = 800;  // reconnect-and-replay pressure
  wcfg.op_timeout = util::msec(40);
  wcfg.seed = 23;
  SessionWorkload workload(service, wcfg);
  workload.start();
  rings.run_until(util::msec(1200));
  oracle.finalize();

  EXPECT_TRUE(oracle.ok()) << oracle.report();
  EXPECT_GT(workload.stats().completed, 500u);
  // Churn resubmits happened and were absorbed as duplicates, not double
  // effects (the oracle above would flag version jumps).
  EXPECT_GT(workload.stats().reconnects, 0u);
}

}  // namespace
}  // namespace accelring::kv
