#include "simnet/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace accelring::simnet {

namespace {
constexpr size_t kMaxSlots = size_t{1} << EventQueue::kSlotBits;
constexpr uint64_t kMaxSeq =
    (uint64_t{1} << (64 - EventQueue::kSlotBits)) - 1;
}  // namespace

EventId EventQueue::schedule(Nanos when, Callback cb) {
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if (slots_.size() == kMaxSlots) {
      throw std::length_error("EventQueue: more than 2^24 events pending");
    }
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  if (next_seq_ > kMaxSeq) {
    throw std::length_error("EventQueue: schedule sequence exhausted");
  }
  const EventId id = next_seq_++ << kSlotBits | slot;
  slots_[slot] = Slot{id, std::move(cb)};
  heap_.push(Entry{std::max(when, now_), id});
  return id;
}

void EventQueue::release(uint32_t slot) {
  slots_[slot].id = 0;
  slots_[slot].cb = nullptr;
  free_.push_back(slot);
}

void EventQueue::cancel(EventId id) {
  const uint32_t slot = slot_of(id);
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) return;
  release(slot);
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    const Entry e = heap_.top();
    heap_.pop();
    const uint32_t slot = slot_of(e.id);
    if (slots_[slot].id != e.id) continue;  // cancelled
    // Move the callback out and free the slot before invoking: the callback
    // may schedule (reusing the slot or growing the pool) or cancel itself.
    Callback cb = std::move(slots_[slot].cb);
    release(slot);
    if (!cb) continue;  // scheduled empty: skipped like a cancelled event
    now_ = e.when;
    ++executed_;
    cb();
    return true;
  }
  return false;
}

void EventQueue::run_until(Nanos deadline) {
  while (!heap_.empty()) {
    // Skip over cancelled entries without advancing time.
    if (!live(heap_.top())) {
      const uint32_t slot = slot_of(heap_.top().id);
      // Still pending means scheduled empty: it dies here, unrun.
      if (slots_[slot].id == heap_.top().id) release(slot);
      heap_.pop();
      continue;
    }
    if (heap_.top().when > deadline) break;
    step();
  }
}

void EventQueue::run_all() {
  while (step()) {
  }
}

}  // namespace accelring::simnet
