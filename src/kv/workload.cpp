#include "kv/workload.hpp"

#include <algorithm>
#include <cmath>

namespace accelring::kv {

namespace {

constexpr double kPi = 3.14159265358979323846;
/// Timeout-driven resubmits of one op before its session gives up.
constexpr uint32_t kMaxRetries = 3;

}  // namespace

ZipfGen::ZipfGen(uint64_t n, double s) {
  cdf_.resize(n);
  double total = 0;
  for (uint64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
}

uint64_t ZipfGen::sample(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

double ZipfGen::probability(uint64_t rank) const {
  if (rank >= cdf_.size()) return 0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

double diurnal_factor(Nanos t, const WorkloadConfig& cfg) {
  if (t < cfg.start) return 1.0;
  const double phase = 2.0 * kPi * static_cast<double>(t - cfg.start) /
                       static_cast<double>(cfg.period);
  return 1.0 + (cfg.peak_factor - 1.0) * 0.5 * (1.0 - std::cos(phase));
}

double diurnal_integral(Nanos a, Nanos b, const WorkloadConfig& cfg) {
  // Antiderivative of 1 + (p-1)/2 (1 - cos(2π(t-start)/T)); result in
  // seconds so base_rate (ops/sec) times this is an expected op count.
  const double amp = (cfg.peak_factor - 1.0) * 0.5;
  const double w = 2.0 * kPi / static_cast<double>(cfg.period);
  auto anti = [&](Nanos t) {
    const double x = static_cast<double>(t - cfg.start);
    return (1.0 + amp) * x - amp / w * std::sin(w * x);
  };
  return (anti(b) - anti(a)) / 1e9;
}

SessionWorkload::SessionWorkload(KvService& service, const WorkloadConfig& cfg)
    : service_(service),
      cfg_(cfg),
      eq_(service.eq()),
      zipf_(cfg.keys, cfg.zipf_s),
      rng_(cfg.seed),
      sessions_(cfg.sessions) {
  // Thinning ceiling: the service-wide peak rate split evenly across nodes,
  // in arrivals per nanosecond.
  lambda_max_per_node_ =
      cfg_.base_rate * cfg_.peak_factor /
      (static_cast<double>(service_.nodes()) * 1e9);
}

void SessionWorkload::start() {
  for (int node = 0; node < service_.nodes(); ++node) arm_arrival(node);
  if (cfg_.churn_per_sec > 0) arm_churn();
}

void SessionWorkload::arm_arrival(int node) {
  // Exponential gap at the ceiling rate; accepted with probability
  // λ(t)/λ_max at fire time (Lewis-Shedler thinning), which leaves an
  // inhomogeneous Poisson process with the diurnal intensity.
  const double u = std::max(rng_.uniform(), 1e-12);
  const double gap_ns = -std::log(u) / lambda_max_per_node_;
  const Nanos at = std::max(eq_.now(), cfg_.start) +
                   static_cast<Nanos>(gap_ns) + 1;
  if (at >= cfg_.stop) return;
  eq_.schedule(at, [this, node] {
    if (rng_.chance(diurnal_factor(eq_.now(), cfg_) / cfg_.peak_factor)) {
      issue_from(node);
    }
    arm_arrival(node);
  });
}

void SessionWorkload::arm_churn() {
  const double u = std::max(rng_.uniform(), 1e-12);
  const double gap_ns = -std::log(u) / (cfg_.churn_per_sec / 1e9);
  const Nanos at = std::max(eq_.now(), cfg_.start) +
                   static_cast<Nanos>(gap_ns) + 1;
  if (at >= cfg_.stop) return;
  eq_.schedule(at, [this] {
    // A client reconnects and replays its in-flight request (the session
    // protocol absorbs the duplicate).
    const uint64_t index = rng_.below(cfg_.sessions);
    Session& session = sessions_[index];
    if (session.inflight) {
      const int node = static_cast<int>(index % service_.nodes());
      if (service_.node_up(node) &&
          service_.frontend(node).retry(index + 1)) {
        ++stats_.reconnects;
      }
    }
    arm_churn();
  });
}

void SessionWorkload::issue_from(int node) {
  if (!service_.node_up(node)) {
    ++stats_.down_skips;
    return;
  }
  // Sessions are pinned to nodes by index; sample one of this node's.
  const auto nodes = static_cast<uint64_t>(service_.nodes());
  const uint64_t per_node = cfg_.sessions / nodes;
  if (per_node == 0) return;
  const uint64_t index =
      rng_.below(per_node) * nodes + static_cast<uint64_t>(node);
  if (index >= cfg_.sessions) return;
  if (sessions_[index].inflight) {
    ++stats_.busy_skips;
    return;
  }
  issue_op(index, node);
}

KvOp SessionWorkload::draw_op() {
  KvOp op;
  const uint64_t key_id = zipf_.sample(rng_.uniform());
  op.key = make_key(key_id);
  if (rng_.chance(cfg_.read_fraction)) {
    if (rng_.chance(0.02)) {
      op.type = OpType::kScan;
      op.scan_limit = 10;
    } else {
      op.type = OpType::kGet;
    }
    return op;
  }
  const double w = rng_.uniform();
  if (w < 0.80) {
    op.type = OpType::kPut;
    op.value = make_value(rng_.next(), cfg_.value_size);
  } else if (w < 0.95) {
    op.type = OpType::kCas;
    // Guess the preloaded original; a mismatch still exercises the path.
    op.expect = make_value(key_id, cfg_.value_size);
    op.value = make_value(rng_.next(), cfg_.value_size);
  } else {
    op.type = OpType::kDel;
  }
  return op;
}

void SessionWorkload::issue_op(uint64_t session_index, int node) {
  Session& session = sessions_[session_index];
  const uint64_t uuid = session_index + 1;
  const KvOp op = draw_op();
  const bool mutation = is_mutation(op.type);
  const uint32_t seq = ++session.next_seq;

  // Read-your-writes floor: only binds when the read lands on the shard of
  // this session's last acked write.
  uint64_t min_version = 0;
  if (!mutation && session.last_write_shard >= 0 &&
      service_.frontend(node).shard_of(op.key) == session.last_write_shard) {
    min_version = session.last_write_version;
  }

  const uint32_t token = ++session.issue_count;
  const bool ok = service_.frontend(node).issue(
      uuid, seq, op, min_version,
      [this, session_index](const Frontend::Outcome& outcome) {
        Session& s = sessions_[session_index];
        s.inflight = false;
        s.retries = 0;
        ++stats_.completed;
        if (outcome.lease_served) {
          ++stats_.lease_reads;
        } else if (is_mutation(outcome.type)) {
          ++stats_.mutations;
          s.last_write_shard = outcome.shard;
          s.last_write_version = outcome.version;
        } else {
          ++stats_.ordered_reads;
        }
        if (outcome.done_at >= cfg_.measure_from) {
          const Nanos lat = outcome.done_at - outcome.issued_at;
          ++stats_.measured;
          latency_.record(lat);
          if (outcome.lease_served) {
            ++stats_.measured_lease_reads;
            lease_read_latency_.record(lat);
          } else if (is_mutation(outcome.type)) {
            ++stats_.measured_mutations;
            write_latency_.record(lat);
          } else {
            ++stats_.measured_ordered_reads;
            ordered_read_latency_.record(lat);
          }
        }
      });
  if (!ok) {
    ++stats_.busy_skips;
    return;
  }
  ++stats_.issued;
  if (!session.touched) {
    session.touched = true;
    ++stats_.sessions_touched;
  }
  if (service_.frontend(node).in_flight(uuid)) {
    // Resolved asynchronously (ordered path): arm the timeout chain.
    session.inflight = true;
    arm_timeout(session_index, node, token);
  }
}

void SessionWorkload::arm_timeout(uint64_t session_index, int node,
                                  uint32_t token) {
  eq_.schedule_after(cfg_.op_timeout, [this, session_index, node, token] {
    Session& session = sessions_[session_index];
    if (!session.inflight || session.issue_count != token) return;
    const uint64_t uuid = session_index + 1;
    if (session.retries < kMaxRetries && service_.node_up(node)) {
      ++session.retries;
      ++stats_.retries;
      service_.frontend(node).retry(uuid);
      arm_timeout(session_index, node, token);
      return;
    }
    service_.frontend(node).cancel(uuid);
    session.inflight = false;
    session.retries = 0;
    ++stats_.timeouts;
  });
}

double SessionWorkload::measured_ops_per_sec() const {
  const Nanos window = cfg_.stop - cfg_.measure_from;
  if (window <= 0) return 0;
  return static_cast<double>(stats_.measured) /
         (static_cast<double>(window) / 1e9);
}

}  // namespace accelring::kv
