#include "multiring/merger.hpp"

#include "util/bytes.hpp"

namespace accelring::multiring {

namespace {

// First bytes of a skip payload. Chosen to be outside every frame-type byte
// the layers sharing ordered streams use (groups: 1-3, rsm: 1-2), with a
// 32-bit magic on top so an application payload cannot collide by accident.
constexpr uint8_t kSkipTag = 0x5C;
constexpr uint32_t kSkipMagic = 0x4B52524Du;  // "MRRK"

}  // namespace

std::vector<std::byte> make_skip(uint32_t slots) {
  util::Writer w(9);
  w.u8(kSkipTag);
  w.u32(kSkipMagic);
  w.u32(slots);
  return std::move(w).take();
}

std::optional<uint32_t> decode_skip(std::span<const std::byte> payload) {
  if (payload.size() != 9) return std::nullopt;
  util::Reader r(payload);
  if (r.u8() != kSkipTag || r.u32() != kSkipMagic) return std::nullopt;
  const uint32_t slots = r.u32();
  if (!r.done()) return std::nullopt;
  return slots;
}

MergerMetrics MergerMetrics::bind(obs::MetricsRegistry& registry) {
  MergerMetrics m;
  m.merge_stall_ns = &registry.histogram("merger", "merge_stall_ns");
  return m;
}

void add_counters(obs::MetricsRegistry& registry, const MergerStats& stats) {
  registry.counter("merger", "merged").inc(stats.merged);
  registry.counter("merger", "skip_msgs").inc(stats.skip_msgs);
  registry.counter("merger", "skipped_slots").inc(stats.skipped_slots);
  registry.counter("merger", "rotations").inc(stats.rotations);
}

void DeterministicMerger::push(int ring, const protocol::Delivery& delivery) {
  auto& queue = queues_[static_cast<size_t>(ring)];
  if (ring == cursor_ && queue.empty()) {
    // Consumable on arrival (always so with one ring): emit it in place
    // rather than copy it, payload and all, through the queue.
    end_stall();
    consume(delivery);
  } else {
    queue.push_back(delivery);
  }
  pump();
}

void DeterministicMerger::end_stall() {
  if (stall_started_ == 0) return;
  // Head-of-line block resolved: the cursor ring finally ordered something
  // (a message or a skip) while other rings sat queued behind it.
  if (metrics_.merge_stall_ns != nullptr && clock_) {
    metrics_.merge_stall_ns->record(clock_() - stall_started_);
  }
  stall_started_ = 0;
}

void DeterministicMerger::consume(const protocol::Delivery& d) {
  if (const auto slots = decode_skip(d.payload)) {
    trace(util::TraceEvent::kSkipMsg, cursor_, d.seq);
    ++stats_.skip_msgs;
    stats_.skipped_slots += *slots;
    credit_ += *slots;
  } else {
    trace(util::TraceEvent::kMergeDeliver, cursor_, d.seq);
    ++stats_.merged;
    credit_ += 1;
    if (on_merged_) on_merged_(cursor_, d);
  }
  if (credit_ >= batch_) {
    // Burst complete (excess skip credit is discarded — identically at
    // every subscriber, so determinism is preserved).
    credit_ = 0;
    cursor_ = (cursor_ + 1) % num_rings();
    ++stats_.rotations;
  }
}

void DeterministicMerger::pump() {
  if (!queues_[static_cast<size_t>(cursor_)].empty()) end_stall();
  for (;;) {
    auto& queue = queues_[static_cast<size_t>(cursor_)];
    if (queue.empty()) break;
    const protocol::Delivery d = std::move(queue.front());
    queue.pop_front();
    consume(d);
  }
  if (stall_started_ == 0 && metrics_.merge_stall_ns != nullptr && clock_) {
    // The cursor ring is dry; if any other ring has ordered output waiting,
    // a stall starts now and ends at the next consumable push.
    for (const auto& q : queues_) {
      if (!q.empty()) {
        stall_started_ = clock_();
        break;
      }
    }
  }
}

}  // namespace accelring::multiring
