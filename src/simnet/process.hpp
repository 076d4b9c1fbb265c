// Single-threaded process CPU model.
//
// The paper's central observation for 10-gigabit fabrics is that
// single-threaded protocol processing, not the wire, becomes the bottleneck.
// Process models exactly that: one virtual CPU that drains prioritized socket
// inboxes one message at a time. While a handler runs, virtual time advances
// by the costs it charges (syscalls, ordering work, client IPC, group
// routing), and nothing else on this process executes — arriving packets
// queue in finite socket buffers, and timers defer until the CPU is free.
//
// Socket priority is the paper's §III-C mechanism: the sink (the protocol
// host adapter) reports which socket class it currently wants drained first;
// the other sockets are read only when the preferred one is empty.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"

namespace accelring::simnet {

/// Receiver of drained packets and fired timers; implemented by the
/// transport adapter that feeds the protocol engine.
class PacketSink {
 public:
  virtual ~PacketSink() = default;

  /// A datagram read from socket `sock`. Runs on the virtual CPU; the sink
  /// charges additional processing cost via Process::charge().
  virtual void on_packet(SocketId sock, std::span<const std::byte> data) = 0;

  /// Which socket to drain first right now (token-priority switching).
  [[nodiscard]] virtual SocketId preferred_socket() const = 0;

  /// A timer set via Process::set_timer() fired.
  virtual void on_timer(int kind) = 0;
};

/// CPU costs charged automatically on the receive path. All other costs are
/// charged explicitly by the sink.
struct ProcessCosts {
  Nanos recv_syscall = 1'200;      ///< one recvmsg() wakeup (first fragment)
  double recv_per_byte = 0.25;     ///< ns/byte copy out of the kernel
  /// Each additional Ethernet frame of a fragmented UDP datagram costs one
  /// more trip through the NIC/softirq path (the reason the paper's
  /// 8850-byte experiments do not scale linearly with payload size).
  Nanos recv_per_fragment = 1'000;
  /// MTU used for fragment-count accounting; keep in sync with the fabric.
  size_t mtu = Wire::kMtu;
};

class Process {
 public:
  Process(EventQueue& eq, ProcessCosts costs, size_t socket_buffer_bytes);

  void set_sink(PacketSink* sink) { sink_ = sink; }

  /// Network-side entry point: queue a received datagram on `sock`'s inbox,
  /// dropping it if the socket buffer is full (kernel tail drop).
  void enqueue(SocketId sock, const Network::Payload& data);

  /// Extend the current handling step by `cost` of CPU time. Only valid while
  /// a sink callback is running.
  void charge(Nanos cost) {
    vnow_ += cpu_mult_ == 1.0
                 ? cost
                 : static_cast<Nanos>(static_cast<double>(cost) * cpu_mult_);
  }

  /// Gray-failure injection: scale every subsequent CPU charge by `m` (>= 0).
  /// Models a daemon sharing its core with a noisy neighbour, thermal
  /// throttling, or a debug build — the process stays alive and responsive,
  /// just slower. 1.0 restores normal speed.
  void set_cpu_multiplier(double m) { cpu_mult_ = m; }
  [[nodiscard]] double cpu_multiplier() const { return cpu_mult_; }

  /// Virtual current time: inside a handler this includes cost charged so
  /// far, so sends issued mid-handler are stamped correctly.
  [[nodiscard]] Nanos now() const { return running_ ? vnow_ : eq_.now(); }

  /// (Re)arm the per-kind one-shot timer to fire `delay` from now().
  void set_timer(int kind, Nanos delay);
  void cancel_timer(int kind);

  /// Run `fn` on the virtual CPU as soon as it is free (used to bootstrap
  /// protocol engines and to model client injections).
  void run_soon(std::function<void()> fn, Nanos cost = 0);

  [[nodiscard]] uint64_t socket_drops() const { return socket_drops_; }
  [[nodiscard]] Nanos busy_time() const { return busy_time_; }
  [[nodiscard]] size_t inbox_depth(SocketId sock) const {
    return inboxes_[sock].items.size();
  }

 private:
  struct Inbox {
    std::deque<Network::Payload> items;
    size_t queued_bytes = 0;
  };
  /// A re-arm to a later deadline, or a cancel, keeps the scheduled event
  /// and only moves `deadline`; an event that fires before `deadline`
  /// schedules itself again for it, and one of a cancelled timer does
  /// nothing. The protocol cancels and re-arms its token timers on every
  /// token, so this leaves one queue entry per timeout instead of one per
  /// re-arm.
  struct Timer {
    EventId event = 0;
    Nanos event_at = 0;  // when `event` runs
    Nanos deadline = 0;  // when the timer is due, at or after event_at
    bool pending_fire = false;  // fired while CPU busy; run at next drain
  };

  /// Schedule timer `kind`'s event at its deadline.
  void schedule_timer(int kind);

  void maybe_schedule_drain();
  void drain_one();
  /// Pick the next inbox to read given the sink's preference; -1 if all empty.
  [[nodiscard]] int pick_socket() const;

  EventQueue& eq_;
  ProcessCosts costs_;
  size_t socket_buffer_bytes_;
  PacketSink* sink_ = nullptr;
  std::vector<Inbox> inboxes_;
  std::vector<Timer> timers_;
  std::deque<std::pair<std::function<void()>, Nanos>> tasks_;
  Nanos vnow_ = 0;
  double cpu_mult_ = 1.0;
  Nanos busy_until_ = 0;
  Nanos busy_time_ = 0;
  bool running_ = false;
  bool drain_scheduled_ = false;
  uint64_t socket_drops_ = 0;
};

}  // namespace accelring::simnet
