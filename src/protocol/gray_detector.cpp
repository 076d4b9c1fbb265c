#include "protocol/gray_detector.hpp"

#include <algorithm>

namespace accelring::protocol {

namespace {

/// Median of a small scratch vector (destroys order).
double median_of(std::vector<double>& v) {
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  return v[mid];
}

}  // namespace

void GrayFailureDetector::reset() {
  scores_.clear();
  observations_ = 0;
}

double GrayFailureDetector::rtr_share(const MemberScore& m) const {
  const uint32_t window = std::min(kRtrWindow, m.rtr_seen);
  if (window == 0) return 0.0;
  uint32_t hits = 0;
  for (uint32_t i = 0; i < window; ++i) hits += (m.rtr_bits >> i) & 1u;
  return static_cast<double>(hits) / static_cast<double>(window);
}

void GrayFailureDetector::observe(const std::vector<TokenHealth>& health) {
  // A meaningful median needs at least three stamped entries; below that a
  // two-member ring would forever suspect whichever member is busier.
  struct Sample {
    ProcessId pid;
    double unit;
    bool rtr;
  };
  std::vector<Sample> samples;
  samples.reserve(health.size());
  for (const TokenHealth& h : health) {
    if (h.work == 0) continue;  // not stamped yet (first rotation)
    samples.push_back({h.pid,
                       static_cast<double>(h.hold_us) /
                           static_cast<double>(h.work),
                       h.rtr_count > 0});
  }
  if (samples.size() < 3) return;
  ++observations_;

  for (const Sample& s : samples) {
    MemberScore& m = scores_[s.pid];
    if (!m.initialized) {
      m.unit_ewma = s.unit;
      m.initialized = true;
    } else {
      m.unit_ewma += kAlpha * (s.unit - m.unit_ewma);
    }
    m.rtr_bits = (m.rtr_bits << 1) | (s.rtr ? 1u : 0u);
    if (m.rtr_seen < 32) ++m.rtr_seen;
  }

  // Ring medians over the members sampled *this* rotation, from the smoothed
  // per-member state so one noisy rotation shifts nothing.
  std::vector<double> units;
  std::vector<double> shares;
  units.reserve(samples.size());
  shares.reserve(samples.size());
  for (const Sample& s : samples) {
    const MemberScore& m = scores_[s.pid];
    units.push_back(m.unit_ewma);
    shares.push_back(rtr_share(m));
  }
  const double median_unit = std::max(median_of(units), 0.25);
  const double median_share = median_of(shares);

  for (const Sample& s : samples) {
    MemberScore& m = scores_[s.pid];
    const bool slow_cpu =
        m.unit_ewma > kHoldRatio * median_unit &&
        m.unit_ewma >= static_cast<double>(kMinUnitCostUs);
    const bool lossy_rx = m.rtr_seen >= kRtrWindow &&
                          rtr_share(m) >= kRtrShare &&
                          median_share <= kRtrShare * 0.5;
    if (slow_cpu || lossy_rx) {
      ++m.streak;
    } else {
      m.streak = 0;
    }
  }
  // Members absent from this rotation's vector contribute nothing; their
  // streaks freeze rather than decay, which is fine — the vector carries
  // every ring member once the first rotation stamped it.
}

std::optional<ProcessId> GrayFailureDetector::verdict() const {
  std::optional<ProcessId> victim;
  uint32_t best = 0;
  for (const auto& [pid, m] : scores_) {
    if (pid == self_) continue;  // never self-evict; peers judge us
    if (m.streak >= kSuspectRounds && m.streak > best) {
      victim = pid;
      best = m.streak;
    }
  }
  return victim;
}

uint32_t GrayFailureDetector::streak(ProcessId pid) const {
  const auto it = scores_.find(pid);
  return it == scores_.end() ? 0 : it->second.streak;
}

}  // namespace accelring::protocol
