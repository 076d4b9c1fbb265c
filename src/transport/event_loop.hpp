// Minimal poll(2)-based event loop for the real UDP transport.
//
// Single-threaded, like the daemons the paper benchmarks: file-descriptor
// readiness callbacks plus one-shot timers. The poll timeout is derived from
// the nearest timer deadline, so timers fire without busy-waiting.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "util/time.hpp"

namespace accelring::transport {

using util::Nanos;

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop();

  /// Register `fn` to run whenever `fd` is readable. One handler per fd.
  void add_fd(int fd, Callback fn);
  void remove_fd(int fd);

  /// (Re)arm one-shot timer `id` to fire `delay` from now.
  void set_timer(int id, Nanos delay, Callback fn);
  void cancel_timer(int id);

  /// Ids at or above this are handed out by reserve_timer_ids(); ids a
  /// caller picks for itself stay below it.
  static constexpr int kFirstReservedTimerId = 1 << 20;
  /// Reserve `count` consecutive timer ids that no other caller of this
  /// loop gets; returns the first. Lets several clients of one loop (say,
  /// one transport per ring member) number their timers independently.
  int reserve_timer_ids(int count);

  /// Monotonic nanoseconds since loop construction.
  [[nodiscard]] Nanos now() const;

  /// Process events for (approximately) `duration`.
  void run_for(Nanos duration);

 private:
  struct Timer {
    Nanos deadline;
    /// Which arming this is: a batch of due timers fires an entry only if
    /// no earlier callback in the batch cancelled or re-armed it.
    uint64_t arming;
    Callback fn;
  };
  /// A readable-fd handler. `registration` tells a handler apart from a
  /// later one on the same fd number; the callback is shared so that it
  /// stays alive while it runs, even if it removes itself or an add_fd()
  /// reallocates fds_.
  struct FdHandler {
    int fd;
    uint64_t registration;
    std::shared_ptr<Callback> fn;
  };

  /// Run timers whose deadline passed; returns ns until the next deadline
  /// (or -1 if none).
  Nanos fire_due_timers();
  void poll_once(Nanos max_wait);

  std::chrono::steady_clock::time_point epoch_;
  std::vector<FdHandler> fds_;
  std::map<int, Timer> timers_;
  uint64_t next_serial_ = 1;  ///< for timer armings and fd registrations
  int next_reserved_id_ = kFirstReservedTimerId;
};

}  // namespace accelring::transport
