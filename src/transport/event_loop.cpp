#include "transport/event_loop.hpp"

#include <poll.h>

#include <algorithm>

namespace accelring::transport {

EventLoop::EventLoop() : epoch_(std::chrono::steady_clock::now()) {}

void EventLoop::add_fd(int fd, Callback fn) {
  fds_.push_back(FdHandler{fd, next_serial_++,
                           std::make_shared<Callback>(std::move(fn))});
}

void EventLoop::remove_fd(int fd) {
  std::erase_if(fds_, [fd](const FdHandler& h) { return h.fd == fd; });
}

void EventLoop::set_timer(int id, Nanos delay, Callback fn) {
  timers_[id] = Timer{now() + delay, next_serial_++, std::move(fn)};
}

void EventLoop::cancel_timer(int id) { timers_.erase(id); }

int EventLoop::reserve_timer_ids(int count) {
  const int first = next_reserved_id_;
  next_reserved_id_ += count;
  return first;
}

Nanos EventLoop::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Nanos EventLoop::fire_due_timers() {
  Nanos next = -1;
  // Collect the due armings first, then fire each one that is still armed:
  // a callback may cancel or re-arm a timer later in the batch.
  std::vector<std::pair<int, uint64_t>> due;
  const Nanos t = now();
  for (const auto& [id, timer] : timers_) {
    if (timer.deadline <= t) {
      due.emplace_back(id, timer.arming);
    } else {
      next = next < 0 ? timer.deadline - t : std::min(next, timer.deadline - t);
    }
  }
  for (const auto& [id, arming] : due) {
    auto it = timers_.find(id);
    if (it == timers_.end() || it->second.arming != arming) continue;
    Callback fn = std::move(it->second.fn);
    timers_.erase(it);
    fn();
  }
  return due.empty() ? next : 0;  // re-check immediately after firing
}

void EventLoop::poll_once(Nanos max_wait) {
  const Nanos until_timer = fire_due_timers();
  Nanos wait = max_wait;
  if (until_timer >= 0) wait = std::min(wait, until_timer);
  std::vector<pollfd> pfds;
  pfds.reserve(fds_.size());
  for (const FdHandler& h : fds_) pfds.push_back(pollfd{h.fd, POLLIN, 0});
  // Handlers registered from here on were not polled; one may reuse the fd
  // number of a handler that a callback below removes.
  const uint64_t polled = next_serial_;
  const int timeout_ms =
      static_cast<int>(std::min<Nanos>(wait / util::kMillisecond, 100));
  const int rc = ::poll(pfds.data(), pfds.size(), std::max(timeout_ms, 0));
  if (rc <= 0) return;
  // Callbacks add and remove fds, so look each ready fd's handler up again
  // rather than trusting its index; one removed meanwhile is skipped.
  for (const pollfd& p : pfds) {
    if ((p.revents & POLLIN) == 0) continue;
    const auto it =
        std::find_if(fds_.begin(), fds_.end(), [&](const FdHandler& h) {
          return h.fd == p.fd && h.registration < polled;
        });
    if (it == fds_.end()) continue;
    const std::shared_ptr<Callback> fn = it->fn;
    (*fn)();
  }
}

void EventLoop::run_for(Nanos duration) {
  const Nanos deadline = now() + duration;
  while (now() < deadline) {
    poll_once(std::max<Nanos>(deadline - now(), 0));
  }
}

}  // namespace accelring::transport
