#include "simnet/process.hpp"

#include <cassert>
#include <limits>

namespace accelring::simnet {

namespace {
// Generous bound on distinct timer kinds; the protocol uses a handful.
constexpr size_t kMaxTimerKinds = 16;
// A cancelled timer's deadline: its event, if any, fires as a no-op.
constexpr Nanos kDisarmed = std::numeric_limits<Nanos>::max();
}  // namespace

Process::Process(EventQueue& eq, ProcessCosts costs,
                 size_t socket_buffer_bytes)
    : eq_(eq),
      costs_(costs),
      socket_buffer_bytes_(socket_buffer_bytes),
      inboxes_(kNumSockets),
      timers_(kMaxTimerKinds) {}

void Process::enqueue(SocketId sock, const Network::Payload& data) {
  assert(sock >= 0 && sock < kNumSockets);
  Inbox& inbox = inboxes_[sock];
  if (inbox.queued_bytes + data->size() > socket_buffer_bytes_) {
    ++socket_drops_;
    return;
  }
  inbox.queued_bytes += data->size();
  inbox.items.push_back(data);
  maybe_schedule_drain();
}

void Process::set_timer(int kind, Nanos delay) {
  assert(kind >= 0 && static_cast<size_t>(kind) < kMaxTimerKinds);
  Timer& t = timers_[kind];
  t.pending_fire = false;
  t.deadline = now() + delay;
  if (t.event != 0 && t.deadline >= t.event_at) return;
  if (t.event != 0) eq_.cancel(t.event);
  schedule_timer(kind);
}

void Process::schedule_timer(int kind) {
  Timer& t = timers_[kind];
  t.event_at = t.deadline;
  t.event = eq_.schedule(t.deadline, [this, kind] {
    Timer& timer = timers_[kind];
    timer.event = 0;
    if (timer.deadline == kDisarmed) return;
    if (timer.deadline > eq_.now()) {
      schedule_timer(kind);  // re-armed later since this event was scheduled
      return;
    }
    timer.pending_fire = true;
    maybe_schedule_drain();
  });
}

void Process::cancel_timer(int kind) {
  assert(kind >= 0 && static_cast<size_t>(kind) < kMaxTimerKinds);
  Timer& t = timers_[kind];
  t.deadline = kDisarmed;
  t.pending_fire = false;
}

void Process::run_soon(std::function<void()> fn, Nanos cost) {
  tasks_.emplace_back(std::move(fn), cost);
  maybe_schedule_drain();
}

void Process::maybe_schedule_drain() {
  if (drain_scheduled_ || running_) return;
  drain_scheduled_ = true;
  eq_.schedule(std::max(eq_.now(), busy_until_), [this] {
    drain_scheduled_ = false;
    drain_one();
  });
}

int Process::pick_socket() const {
  const SocketId preferred = sink_ ? sink_->preferred_socket() : kDataSocket;
  // When the token socket is preferred: token, then data. Otherwise data is
  // drained before the token (paper §III-C: "when data messages have high
  // priority, we do not read from the token receiving socket unless no data
  // message is available, and vice versa").
  const SocketId order_token_first[] = {kTokenSocket, kDataSocket};
  const SocketId order_data_first[] = {kDataSocket, kTokenSocket};
  const auto& order =
      (preferred == kTokenSocket) ? order_token_first : order_data_first;
  for (SocketId s : order) {
    if (!inboxes_[s].items.empty()) return s;
  }
  return -1;
}

void Process::drain_one() {
  assert(!running_);
  const Nanos start = std::max(eq_.now(), busy_until_);
  vnow_ = start;
  running_ = true;

  // Deferred timers fire ahead of packet processing: they represent the
  // event loop noticing a timeout before issuing the next read.
  bool did_work = false;
  for (size_t kind = 0; kind < timers_.size() && !did_work; ++kind) {
    if (timers_[kind].pending_fire) {
      timers_[kind].pending_fire = false;
      if (sink_ != nullptr) sink_->on_timer(static_cast<int>(kind));
      did_work = true;
    }
  }

  if (!did_work && !tasks_.empty()) {
    auto [fn, cost] = std::move(tasks_.front());
    tasks_.pop_front();
    charge(cost);
    fn();
    did_work = true;
  }

  if (!did_work) {
    const int sock = pick_socket();
    if (sock >= 0) {
      Inbox& inbox = inboxes_[sock];
      Network::Payload data = std::move(inbox.items.front());
      inbox.items.pop_front();
      inbox.queued_bytes -= data->size();
      const size_t extra_frames = Wire::frames(data->size(), costs_.mtu) - 1;
      charge(costs_.recv_syscall +
             static_cast<Nanos>(extra_frames) * costs_.recv_per_fragment +
             static_cast<Nanos>(static_cast<double>(data->size()) *
                                costs_.recv_per_byte));
      if (sink_ != nullptr) sink_->on_packet(sock, *data);
      did_work = true;
    }
  }

  running_ = false;
  busy_until_ = vnow_;
  busy_time_ += vnow_ - start;

  if (did_work) {
    // More work may be pending; check again once the CPU frees up.
    bool more = !tasks_.empty();
    for (const auto& t : timers_) more = more || t.pending_fire;
    for (const auto& i : inboxes_) more = more || !i.items.empty();
    if (more) maybe_schedule_drain();
  }
}

}  // namespace accelring::simnet
