#include "transport/event_loop.hpp"

#include <algorithm>

namespace accelring::transport {

EventLoop::EventLoop() : epoch_(std::chrono::steady_clock::now()) {}

void EventLoop::add_fd(int fd, Callback fn) {
  fds_.push_back(FdHandler{fd, next_serial_++,
                           std::make_shared<Callback>(std::move(fn))});
  pollfds_stale_ = true;
}

void EventLoop::remove_fd(int fd) {
  std::erase_if(fds_, [fd](const FdHandler& h) { return h.fd == fd; });
  pollfds_stale_ = true;
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
  struct Due {
    int id;
    uint64_t arming;
    Nanos deadline;
  };
  std::vector<Due> due;
  const Nanos t = now();
  Nanos earliest = t;  // the most overdue deadline
  for (const auto& [id, timer] : timers_) {
    if (timer.deadline <= t) {
      due.push_back(Due{id, timer.arming, timer.deadline});
      earliest = std::min(earliest, timer.deadline);
    } else {
      next = next < 0 ? timer.deadline - t : std::min(next, timer.deadline - t);
    }
  }
  // The loop could not run for `late`: every timer waited that long too, so
  // all of them move on by it. The most overdue fires now; the rest keep
  // their spacing to it and fire on a later sweep.
  const Nanos late = t - earliest;
  if (late > kPause) {
    for (auto& [id, timer] : timers_) timer.deadline += late;
    std::erase_if(due, [earliest](const Due& d) {
      return d.deadline != earliest;
    });
  }
  for (const Due& d : due) {
    auto it = timers_.find(d.id);
    if (it == timers_.end() || it->second.arming != d.arming) continue;
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
  if (pollfds_stale_) {
    pollfds_.clear();
    for (const FdHandler& h : fds_) {
      pollfds_.push_back(pollfd{h.fd, POLLIN, 0});
    }
    pollfds_stale_ = false;
  }
  // Handlers registered from here on were not polled; one may reuse the fd
  // number of a handler that a callback below removes.
  const uint64_t polled = next_serial_;
  const int timeout_ms =
      static_cast<int>(std::min<Nanos>(wait / util::kMillisecond, 100));
  const int rc =
      ::poll(pollfds_.data(), pollfds_.size(), std::max(timeout_ms, 0));
  if (rc <= 0) return;
  // Callbacks add and remove fds, so look each ready fd's handler up again
  // rather than trusting its index; one removed meanwhile is skipped. They
  // only mark the poll array stale, so it stays as polled until the next
  // poll_once.
  for (size_t i = 0; i < pollfds_.size(); ++i) {
    const pollfd p = pollfds_[i];
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
  // A timer due inside the window fires even if the last poll overran it.
  fire_due_timers();
}

}  // namespace accelring::transport
