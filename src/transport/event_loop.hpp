// Minimal poll(2)-based event loop for the real UDP transport.
//
// Single-threaded, like the daemons the paper benchmarks: file-descriptor
// readiness callbacks plus one-shot timers. The poll timeout is derived from
// the nearest timer deadline, so timers fire without busy-waiting.
//
// A paused process is not a slow network: when a sweep finds a timer more
// than kPause past its deadline, the loop itself could not run (the thread
// was descheduled or stopped), so every armed deadline moves later by the
// most overdue timer's lateness before anything fires. That timer fires at
// once and the others keep their spacing, so a pause longer than the
// protocol's token-loss timeout does not expire every node's timer at once
// before the sockets holding the token are read.
#pragma once

#include <poll.h>

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

  /// A timer this far past its deadline means the loop was paused; see the
  /// file comment.
  static constexpr Nanos kPause = util::msec(10);

  /// Ids at or above this are handed out by reserve_timer_ids(); ids a
  /// caller picks for itself stay below it.
  static constexpr int kFirstReservedTimerId = 1 << 20;
  /// Reserve `count` consecutive timer ids that no other caller of this
  /// loop gets; returns the first. Lets several clients of one loop (say,
  /// one transport per ring member) number their timers independently.
  int reserve_timer_ids(int count);

  /// Monotonic nanoseconds since loop construction.
  [[nodiscard]] Nanos now() const;

  /// Process events for (approximately) `duration`. Every timer due by
  /// the return has fired, even if the last poll ran past the window.
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
  /// What poll(2) is handed: one entry per fds_ handler, rebuilt only when
  /// add_fd or remove_fd changed the set since the last poll.
  std::vector<pollfd> pollfds_;
  bool pollfds_stale_ = false;
  std::map<int, Timer> timers_;
  uint64_t next_serial_ = 1;  ///< for timer armings and fd registrations
  int next_reserved_id_ = kFirstReservedTimerId;
};

}  // namespace accelring::transport
