// Unit tests for the discrete-event queue, and a differential test against
// the reference model it replaced (reference_event_queue.hpp).
#include "simnet/event_queue.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "reference_event_queue.hpp"
#include "util/rng.hpp"

namespace accelring::simnet {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule(30, [&] { order.push_back(3); });
  eq.schedule(10, [&] { order.push_back(1); });
  eq.schedule(20, [&] { order.push_back(2); });
  eq.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eq.schedule(100, [&order, i] { order.push_back(i); });
  }
  eq.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue eq;
  eq.schedule(100, [] {});
  eq.run_all();
  Nanos fired_at = -1;
  eq.schedule(50, [&] { fired_at = eq.now(); });  // in the past
  eq.run_all();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue eq;
  bool fired = false;
  const EventId id = eq.schedule(10, [&] { fired = true; });
  eq.cancel(id);
  eq.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue eq;
  int count = 0;
  const EventId id = eq.schedule(10, [&] { ++count; });
  eq.run_all();
  eq.cancel(id);
  eq.run_all();
  EXPECT_EQ(count, 1);
}

TEST(EventQueue, CallbacksCanScheduleMoreEvents) {
  EventQueue eq;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) eq.schedule_after(10, chain);
  };
  eq.schedule(0, chain);
  eq.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(eq.now(), 40);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue eq;
  int fired = 0;
  for (Nanos t = 10; t <= 100; t += 10) {
    eq.schedule(t, [&] { ++fired; });
  }
  eq.run_until(50);
  EXPECT_EQ(fired, 5);
  EXPECT_FALSE(eq.empty());
  eq.run_until(1000);
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, CancelledHeadDoesNotBlockRunUntil) {
  EventQueue eq;
  bool fired = false;
  const EventId id = eq.schedule(10, [] {});
  eq.schedule(20, [&] { fired = true; });
  eq.cancel(id);
  eq.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue eq;
  Nanos fired_at = 0;
  eq.schedule(100, [&] {
    eq.schedule_after(50, [&] { fired_at = eq.now(); });
  });
  eq.run_all();
  EXPECT_EQ(fired_at, 150);
}

TEST(EventQueue, ExecutedCounterCountsOnlyLiveEvents) {
  EventQueue eq;
  const EventId id = eq.schedule(5, [] {});
  eq.schedule(6, [] {});
  eq.cancel(id);
  eq.run_all();
  EXPECT_EQ(eq.events_executed(), 1u);
}

TEST(EventQueue, CancellingItselfDoesNotHitTheEventReusingItsSlot) {
  EventQueue eq;
  bool child_fired = false;
  EventId self = 0;
  EventId child = 0;
  self = eq.schedule(10, [&] {
    // The firing event's slot is free again, so the child may take it.
    child = eq.schedule_after(5, [&] { child_fired = true; });
    eq.cancel(self);
  });
  eq.run_all();
  EXPECT_TRUE(child_fired);
  EXPECT_NE(child, self);
  EXPECT_EQ(eq.events_executed(), 2u);
}

// --- differential test against the reference model -------------------------

/// Drives one queue. Every scheduled event gets a label (its schedule
/// index); a fired event logs (label, now) and then, drawing from the
/// driver's own rng, may cancel itself, cancel another label and schedule
/// children. Two drivers with the same seed over equivalent queues make the
/// same draws in the same order, so their logs match exactly.
template <class Queue>
class Driver {
 public:
  explicit Driver(uint64_t seed) : rng_(seed) {}

  void schedule(Nanos when, int depth, bool empty_callback) {
    const size_t label = ids_.size();
    typename Queue::Callback cb;
    if (!empty_callback) cb = [this, label, depth] { fire(label, depth); };
    ids_.push_back(q_.schedule(when, std::move(cb)));
  }

  /// Cancels `label`'s id, or 0 when `label` is past the last one.
  void cancel_label(size_t label) {
    q_.cancel(label < ids_.size() ? ids_[label] : 0);
  }

  Queue& queue() { return q_; }
  const std::vector<std::pair<size_t, Nanos>>& fired() const {
    return fired_;
  }
  const std::vector<EventId>& ids() const { return ids_; }

 private:
  static constexpr int kMaxDepth = 3;

  void fire(size_t label, int depth) {
    fired_.emplace_back(label, q_.now());
    // Children first: one may take this event's slot before it cancels
    // itself, which must still be a no-op.
    const uint64_t children = depth < kMaxDepth ? rng_.below(3) : 0;
    for (uint64_t c = 0; c < children; ++c) {
      schedule(q_.now() + 10 * rng_.range(-2, 5), depth + 1, false);
    }
    if (rng_.chance(0.2)) q_.cancel(ids_[label]);
    if (rng_.chance(0.3)) cancel_label(rng_.below(ids_.size() + 1));
  }

  Queue q_;
  util::Rng rng_;
  std::vector<EventId> ids_;  ///< by label
  std::vector<std::pair<size_t, Nanos>> fired_;
};

void expect_same(Driver<EventQueue>& a, Driver<ReferenceEventQueue>& b,
                 int op) {
  ASSERT_EQ(a.fired(), b.fired()) << "after op " << op;
  ASSERT_EQ(a.queue().now(), b.queue().now()) << "after op " << op;
  ASSERT_EQ(a.queue().events_executed(), b.queue().events_executed())
      << "after op " << op;
  ASSERT_EQ(a.queue().empty(), b.queue().empty()) << "after op " << op;
}

TEST(EventQueueDifferential, MatchesReferenceModelOnRandomOperations) {
  constexpr int kSeeds = 200;
  constexpr int kOps = 1500;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng ops(seed * 7919);
    Driver<EventQueue> a(seed);
    Driver<ReferenceEventQueue> b(seed);
    for (int op = 0; op < kOps; ++op) {
      const uint64_t kind = ops.below(100);
      if (kind < 40) {
        // Times on a 10 ns grid collide often; some lie in the past.
        const Nanos when = a.queue().now() + 10 * ops.range(-3, 10);
        const bool empty_callback = ops.chance(0.02);
        a.schedule(when, 0, empty_callback);
        b.schedule(when, 0, empty_callback);
      } else if (kind < 55) {
        // A live, fired or cancelled label, or 0.
        const size_t label = ops.below(a.ids().size() + 1);
        a.cancel_label(label);
        b.cancel_label(label);
      } else if (kind < 58) {
        const EventId never_issued = ops.next();
        a.queue().cancel(never_issued);
        b.queue().cancel(never_issued);
      } else if (kind < 80) {
        ASSERT_EQ(a.queue().step(), b.queue().step()) << "op " << op;
      } else if (kind < 97) {
        const Nanos deadline = a.queue().now() + 10 * ops.range(-2, 20);
        a.queue().run_until(deadline);
        b.queue().run_until(deadline);
      } else {
        a.queue().run_all();
        b.queue().run_all();
      }
      expect_same(a, b, op);
      if (HasFatalFailure()) return;
    }
    // The slot pool reused slots, yet no id was 0 or issued twice.
    std::set<EventId> ids;
    std::set<EventId> slots;
    for (const EventId id : a.ids()) {
      ASSERT_NE(id, 0u);
      ASSERT_TRUE(ids.insert(id).second) << "id issued twice: " << id;
      slots.insert(id & ((EventId{1} << EventQueue::kSlotBits) - 1));
    }
    EXPECT_LT(slots.size(), ids.size());
  }
}

}  // namespace
}  // namespace accelring::simnet
