// Adaptive token-loss timeout from observed token rotation time.
//
// A static token-loss timeout is a compromise: set it long and a crashed
// member stalls the ring for the full constant; set it short and a loss
// burst that merely *stretches* rotation gets a live member ejected. This
// estimator adapts it with the Jacobson/Karels RTO filter (SIGCOMM '88)
// applied to the token rotation time the engine actually observes:
//
//   err     = rotation - srtt
//   srtt   += err / 8
//   rttvar += (|err| - rttvar) / 4
//   timeout = srtt + 4 * rttvar + allowance
//
// clamped between a floor (never react faster than a couple of token
// retransmit intervals) and a ceiling (never wait longer than a small
// multiple of the configured static timeout, so a mis-trained estimator
// cannot wedge failure detection). Until `kWarmup` rotations have been
// sampled the estimator reports the static base value unchanged. The
// membership consensus timeout stays the static Timeouts::consensus:
// gather and commit are message exchanges among the candidates, not a
// token rotation.
//
// The estimator alone cannot ride out the *onset* of a burst — the timer was
// armed with the pre-burst estimate, and fires before the first stretched
// rotation completes and gets sampled. The engine closes that gap with
// liveness-evidence deferral: any authenticated data datagram from the
// current ring re-arms the token-loss timer, because surviving traffic
// proves the ring is making progress even when the token itself keeps
// getting dropped.
//
// Deferral needs traffic. A token lost on k consecutive sends of one hop
// stalls the whole ring for k token-retransmit intervals, and no member but
// the two on that hop sees a datagram meanwhile; on a fast ring the warm
// estimate covers only about one such retransmission. So an expiry is
// taken as what it is, a rotation sample at least that long, and the timer
// re-armed once with the widened estimate (Karn's backoff); the next expiry
// without a token triggers membership. Crash detection is preserved: a
// crash costs the first timeout plus the widened one, about 20 + 43 ms on
// a fast ring with the default 10 ms token retransmit, under the 100 ms
// static constant.
#pragma once

#include <algorithm>
#include <cstdint>

#include "protocol/types.hpp"
#include "util/time.hpp"

namespace accelring::protocol {

class TimeoutEstimator {
 public:
  explicit TimeoutEstimator(const ProtocolConfig& cfg) : cfg_(cfg) {}

  /// Feed one observed token rotation (time between consecutive accepted
  /// tokens at this member, operational state only).
  void sample(Nanos rotation) {
    backed_off_ = false;
    if (rotation <= 0) return;
    if (samples_ == 0) {
      srtt_ = rotation;
      rttvar_ = rotation / 2;
    } else {
      const Nanos err = rotation - srtt_;
      srtt_ += err / 8;
      rttvar_ += ((err < 0 ? -err : err) - rttvar_) / 4;
    }
    ++samples_;
  }

  /// Forget everything (membership change installs a new ring whose rotation
  /// time may be nothing like the old one's).
  void reset() {
    srtt_ = 0;
    rttvar_ = 0;
    samples_ = 0;
    backed_off_ = false;
  }

  /// The token-loss timer fired `elapsed` after the last token. Returns
  /// true when the caller should re-arm instead of declaring loss: warm,
  /// and no backoff since the last sample. The expiry then counts as a
  /// sample of `elapsed`.
  bool back_off(Nanos elapsed) {
    if (!warm() || backed_off_) return false;
    sample(elapsed);
    backed_off_ = true;
    return true;
  }

  [[nodiscard]] bool warm() const { return samples_ >= kWarmup; }

  /// Token-loss timeout to arm right now.
  [[nodiscard]] Nanos token_loss() const {
    const Timeouts& t = cfg_.timeouts;
    if (!warm()) return t.token_loss;
    return std::clamp(srtt_ + 4 * rttvar_ + 2 * t.token_retransmit,
                      2 * t.token_retransmit, 4 * t.token_loss);
  }

  [[nodiscard]] uint64_t samples() const { return samples_; }

 private:
  static constexpr uint64_t kWarmup = 3;

  const ProtocolConfig& cfg_;
  Nanos srtt_ = 0;
  Nanos rttvar_ = 0;
  uint64_t samples_ = 0;
  bool backed_off_ = false;  ///< an expiry was sampled since the last token
};

}  // namespace accelring::protocol
