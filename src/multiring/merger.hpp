// Deterministic merge of K independent totally ordered streams.
//
// Each ring delivers its own total order; a subscriber that consumes several
// rings needs one combined total order that every subscriber agrees on. The
// merge rule is Multi-Ring Paxos's deterministic round-robin (Marandi et al.):
// consume up to M slots from ring 0, then ring 1, ... wrapping around. The
// merged order is a pure function of the per-ring streams — arrival timing
// never influences it — so every node that feeds the same per-ring orders in
// gets byte-identical merged output.
//
// A ring with nothing to say would stall the rotation, so idle (or slow)
// rings periodically order a *skip message* covering M slots (the RingSet
// arms these). Skips are ordered within their ring like any message, so all
// subscribers consume them at the same stream positions; the merger credits
// the slots and rotates on without emitting anything.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "protocol/types.hpp"
#include "util/trace.hpp"

namespace accelring::multiring {

using protocol::Nanos;

/// Build the payload of a skip message covering `slots` merge slots.
[[nodiscard]] std::vector<std::byte> make_skip(uint32_t slots);
/// Slot count if `payload` is a skip message, nullopt otherwise.
[[nodiscard]] std::optional<uint32_t> decode_skip(
    std::span<const std::byte> payload);

struct MergerStats {
  uint64_t merged = 0;         ///< application messages emitted
  uint64_t skip_msgs = 0;      ///< skip messages consumed
  uint64_t skipped_slots = 0;  ///< slots those skips covered
  uint64_t rotations = 0;      ///< cursor advances to the next ring
};

/// Add every `stats` field to `registry` as merger.<field>.
void add_counters(obs::MetricsRegistry& registry, const MergerStats& stats);

/// Observation point for the merge (optional; see obs/metrics.hpp for the
/// zero-perturbation contract). merge_stall_ns measures head-of-line
/// blocking: how long messages from other rings sat queued while the cursor
/// ring had nothing ordered — the cost skip messages exist to bound.
struct MergerMetrics {
  obs::Histogram* merge_stall_ns = nullptr;

  [[nodiscard]] static MergerMetrics bind(obs::MetricsRegistry& registry);
};

class DeterministicMerger {
 public:
  /// (ring, delivery) — one merged-stream emission.
  using MergedFn =
      std::function<void(int ring, const protocol::Delivery& delivery)>;

  DeterministicMerger(int num_rings, uint32_t batch)
      : batch_(batch < 1 ? 1 : batch),
        queues_(static_cast<size_t>(num_rings)) {}

  void set_on_merged(MergedFn fn) { on_merged_ = std::move(fn); }

  /// Attach a flight recorder for kMergeDeliver / kSkipMsg events; `clock`
  /// supplies the timestamps (e.g. the simulation clock).
  void set_tracer(util::Tracer* tracer, std::function<Nanos()> clock) {
    tracer_ = tracer;
    clock_ = std::move(clock);
  }

  /// Attach observation points. `clock` supplies stall timestamps; when null
  /// the tracer clock (if any) is reused.
  void set_metrics(const MergerMetrics& metrics,
                   std::function<Nanos()> clock = nullptr) {
    metrics_ = metrics;
    if (clock) clock_ = std::move(clock);
  }

  /// Feed the next in-order delivery of `ring`; emits every merged message
  /// that becomes consumable (possibly none, possibly many).
  void push(int ring, const protocol::Delivery& delivery);

  [[nodiscard]] const MergerStats& stats() const { return stats_; }
  [[nodiscard]] int num_rings() const {
    return static_cast<int>(queues_.size());
  }
  [[nodiscard]] uint32_t batch() const { return batch_; }
  /// Deliveries of `ring` waiting for the cursor.
  [[nodiscard]] size_t queued(int ring) const {
    return queues_[static_cast<size_t>(ring)].size();
  }
  /// Ring the rotation is currently consuming from.
  [[nodiscard]] int cursor() const { return cursor_; }

 private:
  void pump();
  void end_stall();
  /// Account one delivery of the cursor ring and emit it unless it is a
  /// skip; rotates the cursor when the burst is complete.
  void consume(const protocol::Delivery& d);
  void trace(util::TraceEvent event, int64_t a, int64_t b) {
    if (tracer_ != nullptr) tracer_->record(clock_ ? clock_() : 0, event, a, b);
  }

  uint32_t batch_;
  std::vector<std::deque<protocol::Delivery>> queues_;
  int cursor_ = 0;
  uint32_t credit_ = 0;  ///< slots consumed from queues_[cursor_] this burst
  MergedFn on_merged_;
  util::Tracer* tracer_ = nullptr;
  std::function<Nanos()> clock_;
  MergerStats stats_;
  MergerMetrics metrics_;
  Nanos stall_started_ = 0;  ///< 0 = not currently stalled
};

}  // namespace accelring::multiring
