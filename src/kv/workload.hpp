// Open-loop session workload driver for the KV service.
//
// Models a large population of client sessions — up to the million-session
// scale — without a million live objects doing work: sessions are compact
// records (a seq counter, a read floor, an in-flight marker), and each node
// runs one open-loop arrival chain that samples which of its sessions acts
// next. Arrivals follow an inhomogeneous Poisson process (thinning against
// the peak rate) whose intensity traces a raised-cosine diurnal ramp; keys
// follow a Zipf distribution (CDF inversion); a configurable fraction of
// ops are reads (GET with occasional SCANs), the rest PUT/CAS/DEL.
//
// Open loop means arrivals never wait for completions: when the service
// falls behind, pending ops pile up and client-observed latency grows —
// the honest way to measure a service near saturation. Each session keeps
// at most one op in flight (the session protocol's ordering unit); an
// arrival drawn for a busy session is counted (`busy_skips`) and dropped.
// Per-op timeout chains resubmit through Frontend::retry (exactly-once
// makes the duplicates harmless) and give up after three retries; reconnect
// churn picks random sessions and resubmits their in-flight op, modelling
// clients that reconnect and replay, at `churn_per_sec`.
#pragma once

#include <cstdint>
#include <vector>

#include "kv/service.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace accelring::kv {

struct WorkloadConfig {
  uint64_t sessions = 1'000'000;
  uint64_t keys = 100'000;
  double zipf_s = 0.99;        ///< skew exponent (0 = uniform)
  double read_fraction = 0.9;
  size_t value_size = 64;
  double base_rate = 50'000;   ///< offered ops/sec across the service, trough
  double peak_factor = 2.0;    ///< peak rate = base_rate * peak_factor
  Nanos period = util::sec(2); ///< diurnal period (compressed for simulation)
  Nanos start = util::msec(50);
  Nanos stop = util::sec(2);
  double churn_per_sec = 0;    ///< reconnect-and-replay events per second
  Nanos op_timeout = util::msec(50);
  uint64_t seed = 1;
  /// Completions before this time are warmup and not measured.
  Nanos measure_from = util::msec(100);
};

/// Zipf(s) over ranks [0, n): rank 0 most popular. Sampling inverts the CDF.
class ZipfGen {
 public:
  ZipfGen(uint64_t n, double s);
  [[nodiscard]] uint64_t sample(double u) const;  ///< u uniform in [0,1)
  [[nodiscard]] double probability(uint64_t rank) const;

 private:
  std::vector<double> cdf_;
};

/// Diurnal intensity multiplier at time `t`: a raised cosine from 1 at
/// `start` up to `peak_factor` half a period later and back.
[[nodiscard]] double diurnal_factor(Nanos t, const WorkloadConfig& cfg);
/// Closed-form integral of diurnal_factor over [a, b], in seconds (so
/// base_rate * diurnal_integral(a, b, cfg) = expected arrivals).
[[nodiscard]] double diurnal_integral(Nanos a, Nanos b,
                                      const WorkloadConfig& cfg);

struct WorkloadStats {
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t lease_reads = 0;
  uint64_t ordered_reads = 0;
  uint64_t mutations = 0;
  uint64_t busy_skips = 0;
  uint64_t down_skips = 0;   ///< arrivals at a crashed node
  uint64_t timeouts = 0;     ///< ops abandoned after three retries
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  uint64_t sessions_touched = 0;  ///< distinct sessions that issued >= 1 op
  /// Completions inside the measure window (ops/sec numerator).
  uint64_t measured = 0;
  uint64_t measured_lease_reads = 0;
  uint64_t measured_ordered_reads = 0;
  uint64_t measured_mutations = 0;
};

class SessionWorkload {
 public:
  SessionWorkload(KvService& service, const WorkloadConfig& cfg);

  /// Arm the per-node arrival chains (and the churn chain); the caller then
  /// advances the shared event queue. Call once.
  void start();

  [[nodiscard]] const WorkloadStats& stats() const { return stats_; }
  [[nodiscard]] const WorkloadConfig& config() const { return cfg_; }
  /// Completed-op latency, measure window only.
  [[nodiscard]] const obs::Histogram& latency() const { return latency_; }
  [[nodiscard]] const obs::Histogram& lease_read_latency() const {
    return lease_read_latency_;
  }
  [[nodiscard]] const obs::Histogram& ordered_read_latency() const {
    return ordered_read_latency_;
  }
  [[nodiscard]] const obs::Histogram& write_latency() const {
    return write_latency_;
  }
  /// Measured throughput in completed ops/sec over the measure window.
  [[nodiscard]] double measured_ops_per_sec() const;

 private:
  /// Compact per-session record — the whole million-session population is
  /// sized by this struct.
  struct Session {
    uint32_t next_seq = 0;
    uint32_t issue_count = 0;    ///< timeout-chain token
    uint8_t retries = 0;
    bool inflight = false;
    bool touched = false;
    int32_t last_write_shard = -1;
    uint64_t last_write_version = 0;  ///< read-your-writes floor
  };

  void arm_arrival(int node);
  void arm_churn();
  void issue_from(int node);
  void issue_op(uint64_t session_index, int node);
  void arm_timeout(uint64_t session_index, int node, uint32_t token);
  [[nodiscard]] KvOp draw_op();

  KvService& service_;
  WorkloadConfig cfg_;
  simnet::EventQueue& eq_;
  ZipfGen zipf_;
  util::Rng rng_;
  std::vector<Session> sessions_;
  double lambda_max_per_node_ = 0;  ///< arrivals/ns ceiling for thinning
  WorkloadStats stats_;
  obs::Histogram latency_;
  obs::Histogram lease_read_latency_;
  obs::Histogram ordered_read_latency_;
  obs::Histogram write_latency_;
};

}  // namespace accelring::kv
