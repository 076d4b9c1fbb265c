// Discrete-event simulation core.
//
// A single EventQueue drives an entire simulated cluster: network elements,
// process CPU models, and protocol timers all schedule callbacks at absolute
// simulated times. Events at equal times fire in scheduling order (a
// monotonically increasing tie-break sequence number), which keeps runs
// deterministic for a given seed.
//
// Storage is a slot pool: callbacks live in reused slots, and the heap holds
// only {when, id}. An id packs the schedule sequence above the slot index, so
// it orders equal times by schedule order, never repeats, and is never 0.
// Cancelling frees the slot at once; the heap entry it leaves behind no
// longer matches its slot's id and is dropped when it reaches the top.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/time.hpp"

namespace accelring::simnet {

using util::Nanos;

/// Handle for cancelling a scheduled event; never 0.
using EventId = uint64_t;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Low id bits that hold the slot index: at most 2^24 (16.7M) events
  /// pending at once, and schedule() throws std::length_error beyond it.
  /// The largest user, the million-session KV driver, keeps at most one
  /// timeout per in-flight session pending.
  static constexpr int kSlotBits = 24;

  /// Schedule `cb` to run at absolute time `when` (clamped to >= now).
  EventId schedule(Nanos when, Callback cb);

  /// Schedule `cb` to run `delay` after the current time.
  EventId schedule_after(Nanos delay, Callback cb) {
    return schedule(now_ + delay, std::move(cb));
  }

  /// Cancel a pending event. Cancelling a fired, cancelled or never-issued
  /// id is a no-op.
  void cancel(EventId id);

  /// Run the next pending event; returns false when the queue is empty.
  bool step();

  /// Run events with time <= `deadline`; time stops at the last event run.
  void run_until(Nanos deadline);

  /// Run until the queue is completely empty.
  void run_all();

  [[nodiscard]] Nanos now() const { return now_; }
  /// True when the heap holds nothing, not even a cancelled entry.
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] uint64_t events_executed() const { return executed_; }

 private:
  struct Entry {
    Nanos when;
    EventId id;

    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  /// A pending event's callback; `id` is 0 while the slot is free.
  struct Slot {
    EventId id = 0;
    Callback cb;
  };

  static uint32_t slot_of(EventId id) {
    return static_cast<uint32_t>(id & ((EventId{1} << kSlotBits) - 1));
  }
  /// Whether `e` is still pending with a callback to run.
  [[nodiscard]] bool live(const Entry& e) const {
    const Slot& s = slots_[slot_of(e.id)];
    return s.id == e.id && s.cb;
  }
  void release(uint32_t slot);

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  Nanos now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
};

}  // namespace accelring::simnet
