// Reference model for simnet::EventQueue: the simple queue the slot pool
// replaced. Every event owns a heap-allocated callback behind a shared
// pointer, and a hash map from id to a weak pointer exists only so cancel()
// can find it. Slow, but its behaviour is easy to read; event_queue_test
// drives both queues through the same random operations and compares them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "util/time.hpp"

namespace accelring::simnet {

class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;
  using Id = uint64_t;

  Id schedule(util::Nanos when, Callback cb) {
    const Id id = next_id_++;
    auto holder = std::make_shared<Callback>(std::move(cb));
    pending_.emplace(id, holder);
    heap_.push(Entry{std::max(when, now_), id, std::move(holder)});
    return id;
  }

  void cancel(Id id) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    if (auto sp = it->second.lock()) *sp = nullptr;
    pending_.erase(it);
  }

  bool step() {
    while (!heap_.empty()) {
      Entry e = heap_.top();
      heap_.pop();
      pending_.erase(e.id);
      if (!e.cb || !*e.cb) continue;  // cancelled
      now_ = e.when;
      ++executed_;
      Callback cb = std::move(*e.cb);
      cb();
      return true;
    }
    return false;
  }

  void run_until(util::Nanos deadline) {
    while (!heap_.empty()) {
      if (!heap_.top().cb || !*heap_.top().cb) {
        pending_.erase(heap_.top().id);
        heap_.pop();
        continue;
      }
      if (heap_.top().when > deadline) break;
      step();
    }
  }

  void run_all() {
    while (step()) {
    }
  }

  [[nodiscard]] util::Nanos now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] uint64_t events_executed() const { return executed_; }

 private:
  struct Entry {
    util::Nanos when;
    Id id;
    std::shared_ptr<Callback> cb;

    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      return id > other.id;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<Id, std::weak_ptr<Callback>> pending_;
  util::Nanos now_ = 0;
  Id next_id_ = 1;
  uint64_t executed_ = 0;
};

}  // namespace accelring::simnet
