#include "transport/event_loop.hpp"

#include <poll.h>

#include <algorithm>

namespace accelring::transport {

EventLoop::EventLoop() : epoch_(std::chrono::steady_clock::now()) {}

void EventLoop::add_fd(int fd, Callback fn) {
  fds_.emplace_back(fd, std::move(fn));
}

void EventLoop::remove_fd(int fd) {
  std::erase_if(fds_, [fd](const auto& p) { return p.first == fd; });
}

void EventLoop::set_timer(int id, Nanos delay, Callback fn) {
  timers_[id] = Timer{now() + delay, std::move(fn)};
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
  // Collect due timers first: callbacks may re-arm timers.
  std::vector<Callback> due;
  const Nanos t = now();
  for (auto it = timers_.begin(); it != timers_.end();) {
    if (it->second.deadline <= t) {
      due.push_back(std::move(it->second.fn));
      it = timers_.erase(it);
    } else {
      next = next < 0 ? it->second.deadline - t
                      : std::min(next, it->second.deadline - t);
      ++it;
    }
  }
  for (auto& fn : due) fn();
  return due.empty() ? next : 0;  // re-check immediately after firing
}

void EventLoop::poll_once(Nanos max_wait) {
  const Nanos until_timer = fire_due_timers();
  Nanos wait = max_wait;
  if (until_timer >= 0) wait = std::min(wait, until_timer);
  std::vector<pollfd> pfds;
  pfds.reserve(fds_.size());
  for (const auto& [fd, fn] : fds_) {
    pfds.push_back(pollfd{fd, POLLIN, 0});
  }
  const int timeout_ms =
      static_cast<int>(std::min<Nanos>(wait / util::kMillisecond, 100));
  const int rc = ::poll(pfds.data(), pfds.size(), std::max(timeout_ms, 0));
  if (rc <= 0) return;
  for (size_t i = 0; i < pfds.size(); ++i) {
    if ((pfds[i].revents & POLLIN) != 0 && i < fds_.size()) {
      fds_[i].second();
    }
  }
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) poll_once(util::msec(100));
}

void EventLoop::run_for(Nanos duration) {
  stopped_ = false;
  const Nanos deadline = now() + duration;
  while (!stopped_ && now() < deadline) {
    poll_once(std::max<Nanos>(deadline - now(), 0));
  }
}

}  // namespace accelring::transport
