// ring_agreed_1350 and ring_safe_200: three protocol::Engines on real
// transport::UdpTransports over 127.0.0.1, all driven by one thread. Each
// node has its own EventLoop, because UdpTransport uses TimerKind as the
// loop's timer id and transports sharing a loop would overwrite each other's
// timers. The thread sweeps the nodes in turn: it runs the load generator of
// a node, then polls that node's loop without blocking, which fires its due
// timers and reads every datagram waiting at its sockets. A datagram sent on
// loopback is in the receiver's socket when sendto returns, so the next
// sweep reads it. No delay is injected: ring latency is CPU plus kernel.
//
// One thread, not one per node: with a thread per node every token hop was a
// cross-thread wake-up, and on a shared machine runs of the same code then
// spread by 50% to 190% in throughput and latency, which measured the host's
// scheduler rather than the code. On one thread the three nodes share one
// core, so ops_per_s is what one core orders through the full stack (engine,
// wire, sockets, loopback) with every message handled three times.
//
// One run, for S = --seconds, repeats a cycle of about kCycle of two phases
// (shares of a cycle in kRingCycle) and ends with a drain of 0.02 S:
//   phase A  open loop: kRateTotal msgs/s in total, evenly spaced at each
//            node, after a warm-up that also drains phase B's backlog.
//            Latency runs from the time a message was due to its delivery,
//            at every node; each quantile is the median over the kWindow
//            windows of due times of all cycles.
//   phase B  saturation: each node keeps pending() at 200 or more. After a
//            warm-up, throughput is the slowest node's delivery rate in the
//            kWindow windows of all cycles, at kFastWindow of the windows.
//   setup    the ring is built kSetups more times; setup_s is the median time
//            from the start of construction until every node has handled a
//            token.
// The phases alternate so that both sample the machine across the whole run:
// the speed of a shared host changes between states that last from 0.1 s to
// seconds, and one long phase B could fall in a slow stretch as a whole.
// In a traced run a timing Host and PacketHandler sit between each engine
// and its transport, and the phase B windows interleave untraced and traced,
// so trace.overhead_frac compares windows of one ring.
//
// Every payload carries (due time, sender, per-sender counter). Each node
// checks FIFO order per sender and hashes its delivery sequence; after the
// run the nodes' sequences must agree and every message must have reached
// every node.
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "membership/membership.hpp"
#include "suite.hpp"
#include "transport/sim_host.hpp"
#include "transport/udp_transport.hpp"
#include "util/rng.hpp"

namespace accelring::suite {
namespace {

using protocol::ProcessId;
using util::Nanos;

constexpr int kNodes = 3;
constexpr int kSetups = 21;
constexpr double kRateTotal = 10'000;  // phase A msgs/s across the ring
constexpr size_t kBacklog = 200;       // phase B pending() floor per node
constexpr size_t kHeader = 24;         // due ns, sender, counter
constexpr uint64_t kCheckpointEvery = 1024;
/// Length of a latency window. Short windows, each with its own quantiles,
/// summarised by the median window: a stall of the machine (a vCPU
/// preempted by the host for a few ms) spoils the windows it falls in, and
/// with 0.5 s windows it fell in 3 or 4 of 7, so their median moved.
constexpr Nanos kWindow = util::msec(50);
/// Quantile of the phase B windows' rates that ops_per_s reports. Every
/// window does the same work (60 messages a rotation, 2.05 datagrams a
/// message), and other tenants of a shared host only ever slow it down, for
/// 0.1 s to minutes at a time. Over 12 runs of ring_safe_200 the rate over
/// all windows spread by 0.14 of its median and drifted by 10% between the
/// first and the last 6 runs; the 99th percentile window spread by 0.02 and
/// drifted by 1%.
constexpr double kFastWindow = 0.99;
constexpr Nanos kCycle = util::sec(2);
constexpr Nanos kSetupTimeout = util::sec(5);
/// One poll of a node's loop: long enough for one non-blocking poll(2), so
/// EventLoop::run_for polls once or twice and never waits.
constexpr Nanos kPoll = 500;

struct Shape {
  protocol::Service service;
  size_t payload;
};

// --- spans ----------------------------------------------------------------

enum Span { kOnPacket, kOnTimer, kSend, kDeliver, kSubmit, kGen, kSpanKinds };

struct SpanTotals {
  std::array<int64_t, kSpanKinds> total{};  ///< timed spans only
  std::array<int64_t, kSpanKinds> self{};
  std::array<uint64_t, kSpanKinds> calls{};
  uint64_t datagrams = 0;   ///< datagrams the timed send spans sent
  int64_t top_level = 0;    ///< time inside timed outermost spans
  uint64_t top_timed = 0;   ///< outermost spans timed
  uint64_t top_calls = 0;   ///< outermost spans, timed or not
};

/// Wall-clock spans with self time: a span's self time is its duration minus
/// the time its nested spans took. To keep clock reads off most calls, an
/// outermost span is timed with probability 1/kSampleEvery, together with
/// every span nested in it; per-call averages come from the timed ones. The
/// choice is pseudo-random, not every kSampleEvery-th span: a ring on one
/// thread repeats the same sequence of spans every rotation, and a counter
/// never picked the token or the generator. Records nothing while disabled.
class SpanRecorder {
 public:
  static constexpr uint64_t kSampleEvery = 8;

  SpanRecorder() { children_.reserve(16); }

  /// Run `body` as a span of `kind`; true when the span was timed.
  template <typename F>
  bool time(Span kind, F&& body) {
    if (!enabled) {
      body();
      return false;
    }
    if (depth_ == 0) {
      ++totals.top_calls;
      timing_ = rng_.below(kSampleEvery) == 0;
    }
    const bool timed = timing_;
    ++depth_;
    if (timed) {
      timed_call(kind, body);
    } else {
      body();
    }
    --depth_;
    return timed;
  }

  bool enabled = false;
  SpanTotals totals;

 private:
  template <typename F>
  void timed_call(Span kind, F& body) {
    const int64_t start = mono_ns();
    children_.push_back(0);
    body();
    const int64_t duration = mono_ns() - start;
    const int64_t nested = children_.back();
    children_.pop_back();
    totals.total[kind] += duration;
    totals.self[kind] += duration - nested;
    ++totals.calls[kind];
    if (children_.empty()) {
      totals.top_level += duration;
      ++totals.top_timed;
    } else {
      children_.back() += duration;
    }
  }

  int depth_ = 0;
  bool timing_ = false;  ///< the current outermost span is timed
  util::Rng rng_{0x5eed};
  std::vector<int64_t> children_;
};

/// Host wrapper between Engine and UdpTransport: times every send and
/// delivery the engine makes.
class TimingHost final : public protocol::Host {
 public:
  TimingHost(transport::UdpTransport& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  void multicast(protocol::SocketId sock,
                 std::span<const std::byte> data) override {
    const uint64_t before = datagrams();
    if (spans_.time(kSend, [&] { inner_.multicast(sock, data); })) {
      spans_.totals.datagrams += datagrams() - before;
    }
  }
  void unicast(ProcessId to, protocol::SocketId sock,
               std::span<const std::byte> data, Nanos delay) override {
    const uint64_t before = datagrams();
    if (spans_.time(kSend, [&] { inner_.unicast(to, sock, data, delay); })) {
      spans_.totals.datagrams += datagrams() - before;
    }
  }
  void deliver(const protocol::Delivery& delivery) override {
    spans_.time(kDeliver, [&] { inner_.deliver(delivery); });
  }
  void on_configuration(const protocol::ConfigurationChange& change) override {
    inner_.on_configuration(change);
  }
  void set_timer(protocol::TimerKind kind, Nanos delay) override {
    inner_.set_timer(kind, delay);
  }
  void cancel_timer(protocol::TimerKind kind) override {
    inner_.cancel_timer(kind);
  }
  Nanos now() override { return inner_.now(); }
  Nanos cpu_time() override { return inner_.cpu_time(); }

 private:
  [[nodiscard]] uint64_t datagrams() const {
    return inner_.datagrams_sent() + inner_.send_drops();
  }

  transport::UdpTransport& inner_;
  SpanRecorder& spans_;
};

/// PacketHandler wrapper between UdpTransport and Engine: times every packet
/// and timer the engine handles.
class TimingHandler final : public protocol::PacketHandler {
 public:
  TimingHandler(protocol::Engine& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  void on_packet(protocol::SocketId sock,
                 std::span<const std::byte> packet) override {
    spans_.time(kOnPacket, [&] { inner_.on_packet(sock, packet); });
  }
  void on_timer(protocol::TimerKind kind) override {
    spans_.time(kOnTimer, [&] { inner_.on_timer(kind); });
  }
  [[nodiscard]] protocol::SocketId preferred_socket() const override {
    return inner_.preferred_socket();
  }

 private:
  protocol::Engine& inner_;
  SpanRecorder& spans_;
};

// --- the run plan -----------------------------------------------------------

/// A stretch of the run in which the generator works one way: open loop
/// (phase A) or keeping pending() topped up (phase B).
struct Phase {
  bool saturate = false;
  Nanos from = 0, to = 0;
};

/// A measured stretch of a phase, after its warm-up.
struct Window {
  Nanos from = 0, to = 0;
  bool saturate = false;
  bool traced = false;  ///< spans record in it
};

/// Absolute steady-clock instants the ring follows.
struct Plan {
  std::vector<Phase> phases;    ///< in time order
  std::vector<Window> windows;  ///< in time order, never overlapping
  Nanos end = 0;                ///< the ring stops, after a drain
  Nanos period = 0;             ///< phase A spacing at one node

  /// The window that holds instant `t`, or -1.
  [[nodiscard]] int window_of(Nanos t) const {
    const auto it = std::upper_bound(
        windows.begin(), windows.end(), t,
        [](Nanos v, const Window& w) { return v < w.from; });
    if (it == windows.begin()) return -1;
    const auto k = static_cast<size_t>(it - windows.begin()) - 1;
    return t < windows[k].to ? static_cast<int>(k) : -1;
  }
};

/// Shares of one cycle: phase A warm-up and measurement, then phase B's.
struct CycleShape {
  double a_warm, a_measure, b_warm, b_measure;
};

constexpr CycleShape kRingCycle{0.08, 0.34, 0.03, 0.55};
constexpr CycleShape kSingleNodeCycle{0, 0, 0.1, 0.9};

/// Cycles of about kCycle filling 0.98 of `budget`, then a drain. Both
/// phases are measured in kWindow windows.
Plan make_plan(Nanos t0, Nanos budget, const CycleShape& shape,
               bool interleave_traced, int nodes) {
  const Nanos cycles = std::max<Nanos>(budget / kCycle, 1);
  const double cycle = static_cast<double>(budget) * 0.98 /
                       static_cast<double>(cycles);
  const auto part = [cycle](double share) {
    return static_cast<Nanos>(share * cycle);
  };
  Plan p;
  p.period = static_cast<Nanos>(1e9 * nodes / kRateTotal);
  Nanos t = t0;
  int b_windows = 0;
  const auto add = [&](bool saturate, double warm, double measure) {
    const Nanos from = t;
    const Nanos measure_from = from + part(warm);
    t = measure_from + part(measure);
    if (t == from) return;
    p.phases.push_back(Phase{saturate, from, t});
    for (Nanos w = measure_from; w + kWindow <= t; w += kWindow) {
      // Phase B windows go untraced, traced, traced, untraced, repeated: a
      // steady drift of the machine favours neither side.
      const bool traced = saturate && interleave_traced &&
                          (b_windows % 4 == 1 || b_windows % 4 == 2);
      if (saturate) ++b_windows;
      p.windows.push_back(Window{w, w + kWindow, saturate, traced});
    }
  };
  for (Nanos c = 0; c < cycles; ++c) {
    add(false, shape.a_warm, shape.a_measure);
    add(true, shape.b_warm, shape.b_measure);
  }
  p.end = t + budget / 50;
  return p;
}

// --- one node -----------------------------------------------------------------

struct NodeSnapshot {
  uint64_t delivered = 0;
  uint64_t datagrams = 0;  ///< sent plus refused by the kernel
  protocol::EngineStats engine;
  SpanTotals spans;
};

/// The whole ring at one instant; `cpu` is the driving thread's.
struct Snapshot {
  Nanos at = 0;
  int64_t cpu = 0;
  std::vector<NodeSnapshot> nodes;
};

/// One ring member: loop, transport, engine, load generator and delivery
/// checker.
class Node {
 public:
  Node(ProcessId id, const Shape& shape, bool timing,
       const std::map<ProcessId, transport::PeerAddress>& peers,
       uint64_t seed)
      : id_(id), shape_(shape) {
    protocol::ProtocolConfig cfg;
    cfg.timeouts.token_retransmit = util::msec(20);
    transport_ = std::make_unique<transport::UdpTransport>(id, peers, loop_);
    if (timing) {
      timing_host_ = std::make_unique<TimingHost>(*transport_, spans_);
      engine_ = std::make_unique<protocol::Engine>(id, cfg, *timing_host_);
      timing_handler_ = std::make_unique<TimingHandler>(*engine_, spans_);
      transport_->bind(*timing_handler_);
    } else {
      engine_ = std::make_unique<protocol::Engine>(id, cfg, *transport_);
      transport_->bind(*engine_);
    }
    transport_->set_deliver(
        [this](const protocol::Delivery& d) { on_deliver(d); });
    util::Rng rng(seed * 7919 + id);
    payload_.resize(shape.payload);
    for (std::byte& b : payload_) b = static_cast<std::byte>(rng.next());
  }

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  void start(const protocol::RingConfig& ring) {
    engine_->start_with_ring(ring);
  }

  /// Fire the node's due timers and read every datagram waiting at its
  /// sockets, without blocking.
  void poll() { loop_.run_for(kPoll); }

  [[nodiscard]] bool saw_token() const {
    return engine_->stats().tokens_handled > 0;
  }

  void arm(const Plan& plan) {
    plan_ = &plan;
    lat_.resize(plan.windows.size());
    for (size_t w = 0; w < lat_.size(); ++w) {
      if (plan.windows[w].saturate) continue;
      lat_[w].reserve(static_cast<size_t>(1.1 * kRateTotal *
                                          util::to_sec(kWindow)));
    }
  }

  /// Phase A: submit every message due by `now`. Phase B: keep pending()
  /// at kBacklog.
  void generate(Nanos now) {
    const std::vector<Phase>& phases = plan_->phases;
    while (phase_ < phases.size() && now >= phases[phase_].to) {
      // Messages due before the phase ended still go out, late.
      if (!phases[phase_].saturate && armed_) open_loop(now, phases[phase_].to);
      ++phase_;
      armed_ = false;
    }
    if (phase_ == phases.size() || now < phases[phase_].from) return;
    const Phase& phase = phases[phase_];
    if (!phase.saturate) {
      if (!armed_) {
        next_due_ = phase.from + plan_->period * id_ / kNodes;
        armed_ = true;
      }
      open_loop(now, phase.to);
    } else if (engine_->pending() < kBacklog) {
      spans_.time(kGen, [&] {
        while (engine_->pending() < kBacklog && submit(now)) {
        }
      });
    }
  }

  void set_tracing(bool on) { spans_.enabled = on; }

  [[nodiscard]] NodeSnapshot snapshot() const {
    return NodeSnapshot{delivered_,
                        transport_->datagrams_sent() + transport_->send_drops(),
                        engine_->stats(), spans_.totals};
  }

  /// due -> delivery latencies (ns), by the phase A window of the due time;
  /// empty for phase B windows.
  [[nodiscard]] const std::vector<int32_t>& latencies(int window) const {
    return lat_[static_cast<size_t>(window)];
  }
  [[nodiscard]] const std::vector<int32_t>& lateness() const { return late_; }
  [[nodiscard]] const std::vector<uint64_t>& checkpoints() const {
    return checkpoints_;
  }
  [[nodiscard]] uint64_t hash() const { return hash_; }
  [[nodiscard]] uint64_t delivered() const { return delivered_; }
  [[nodiscard]] uint64_t bad() const { return bad_; }
  [[nodiscard]] uint64_t sent() const { return sent_; }
  [[nodiscard]] uint64_t attempts() const { return attempts_; }
  [[nodiscard]] uint64_t rejected() const { return rejected_; }
  [[nodiscard]] uint64_t received_from(int sender) const {
    return next_from_[static_cast<size_t>(sender)];
  }
  [[nodiscard]] uint64_t send_drops() const { return transport_->send_drops(); }

 private:
  /// Submit every message due by `now` and before `end`.
  void open_loop(Nanos now, Nanos end) {
    if (next_due_ > now || next_due_ >= end) return;
    spans_.time(kGen, [&] {
      while (next_due_ <= now && next_due_ < end) {
        if (plan_->window_of(next_due_) >= 0) {
          late_.push_back(clamp32(now - next_due_));
        }
        submit(next_due_);
        next_due_ += plan_->period;
      }
    });
  }

  bool submit(Nanos due) {
    std::vector<std::byte> msg = payload_;
    const uint64_t sender = id_;
    std::memcpy(msg.data(), &due, 8);
    std::memcpy(msg.data() + 8, &sender, 8);
    std::memcpy(msg.data() + 16, &sent_, 8);
    bool ok = false;
    spans_.time(kSubmit,
                [&] { ok = engine_->submit(shape_.service, std::move(msg)); });
    ++attempts_;
    if (ok) {
      ++sent_;
    } else {
      ++rejected_;
    }
    return ok;
  }

  void on_deliver(const protocol::Delivery& d) {
    if (d.payload.size() < kHeader) {
      ++bad_;
      return;
    }
    Nanos due = 0;
    uint64_t sender = 0;
    uint64_t counter = 0;
    std::memcpy(&due, d.payload.data(), 8);
    std::memcpy(&sender, d.payload.data() + 8, 8);
    std::memcpy(&counter, d.payload.data() + 16, 8);
    if (sender >= kNodes || sender != d.sender ||
        counter != next_from_[sender]) {
      ++bad_;
    }
    if (sender < kNodes) next_from_[sender] = counter + 1;
    hash_ = (hash_ ^ (sender << 56 ^ counter)) * 0x100000001b3ull;
    if (++delivered_ % kCheckpointEvery == 0) checkpoints_.push_back(hash_);
    if (plan_ == nullptr) return;
    const int w = plan_->window_of(due);
    if (w >= 0 && !plan_->windows[static_cast<size_t>(w)].saturate) {
      lat_[static_cast<size_t>(w)].push_back(clamp32(mono_ns() - due));
    }
  }

  static int32_t clamp32(Nanos v) {
    return static_cast<int32_t>(
        std::min<Nanos>(v, std::numeric_limits<int32_t>::max()));
  }

  const ProcessId id_;
  const Shape shape_;
  SpanRecorder spans_;
  // Destroyed in reverse order: the engine before the transport it uses,
  // the transport before the loop it is registered with.
  transport::EventLoop loop_;
  std::unique_ptr<transport::UdpTransport> transport_;
  std::unique_ptr<TimingHost> timing_host_;
  std::unique_ptr<protocol::Engine> engine_;
  std::unique_ptr<TimingHandler> timing_handler_;
  std::vector<std::byte> payload_;

  const Plan* plan_ = nullptr;
  size_t phase_ = 0;    ///< the plan's current or next phase
  bool armed_ = false;  ///< next_due_ belongs to phase_
  Nanos next_due_ = 0;
  uint64_t sent_ = 0;  ///< next per-sender counter
  uint64_t attempts_ = 0;
  uint64_t rejected_ = 0;
  std::vector<int32_t> late_;  ///< phase A generator lateness, ns

  std::array<uint64_t, kNodes> next_from_{};  ///< next counter per sender
  uint64_t delivered_ = 0;
  uint64_t bad_ = 0;  ///< malformed or out-of-FIFO-order deliveries
  uint64_t hash_ = 0xcbf29ce484222325ull;  ///< over the delivery sequence
  std::vector<uint64_t> checkpoints_;      ///< hash_ every 1024 deliveries
  std::vector<std::vector<int32_t>> lat_;  ///< see latencies()
};

// --- the ring -------------------------------------------------------------------

/// `nodes` engines on loopback, driven by the calling thread.
class Ring {
 public:
  Ring(int nodes, const Shape& shape, bool timing, uint64_t seed,
       protocol::RingId ring_id) {
    ring_.ring_id = ring_id;
    for (int i = 0; i < nodes; ++i) {
      ring_.members.push_back(static_cast<ProcessId>(i));
    }
    // Ports follow the process id; when a bind fails, try another block.
    for (int attempt = 0;; ++attempt) {
      const int base =
          20000 + (static_cast<int>(::getpid()) * 13 + attempt * 101) % 10000 * 2;
      std::map<ProcessId, transport::PeerAddress> peers;
      for (int i = 0; i < nodes; ++i) {
        peers[static_cast<ProcessId>(i)] = transport::PeerAddress{
            "127.0.0.1", static_cast<uint16_t>(base + 2 * i),
            static_cast<uint16_t>(base + 2 * i + 1)};
      }
      try {
        nodes_.clear();
        for (int i = 0; i < nodes; ++i) {
          nodes_.push_back(std::make_unique<Node>(
              static_cast<ProcessId>(i), shape, timing, peers, seed));
        }
        break;
      } catch (const std::runtime_error&) {
        if (attempt == 20) throw;
      }
    }
  }

  /// Start every engine and sweep until each has handled a token; false
  /// when one has not within kSetupTimeout.
  bool wait_first_token() {
    for (const auto& n : nodes_) n->start(ring_);
    const Nanos deadline = mono_ns() + kSetupTimeout;
    while (mono_ns() < deadline) {
      bool all = true;
      for (const auto& n : nodes_) {
        n->poll();
        all = all && n->saw_token();
      }
      if (all) return true;
    }
    return false;
  }

  /// Sweep the nodes through the plan, snapshotting the ring where each
  /// window opens and closes.
  void run(const Plan& plan) {
    for (const auto& n : nodes_) n->arm(plan);
    size_t next = 0;    // the next window to close
    bool open = false;  // window `next` has opened
    for (Nanos now = mono_ns(); now < plan.end; now = mono_ns()) {
      while (next < plan.windows.size()) {
        const Window& w = plan.windows[next];
        if (!open && now >= w.from) {
          opened_.push_back(snapshot(now));
          for (const auto& n : nodes_) n->set_tracing(w.traced);
          open = true;
        } else if (open && now >= w.to) {
          closed_.push_back(snapshot(now));
          for (const auto& n : nodes_) n->set_tracing(false);
          open = false;
          ++next;
        } else {
          break;
        }
      }
      for (const auto& n : nodes_) {
        n->generate(now);
        n->poll();
      }
    }
    final_ = snapshot(mono_ns());
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& nodes() const {
    return nodes_;
  }
  /// The ring where window k opened and where it closed.
  [[nodiscard]] const Snapshot& opened(size_t k) const { return opened_[k]; }
  [[nodiscard]] const Snapshot& closed(size_t k) const { return closed_[k]; }
  [[nodiscard]] size_t windows_closed() const { return closed_.size(); }
  [[nodiscard]] const Snapshot& final_snapshot() const { return final_; }

 private:
  [[nodiscard]] Snapshot snapshot(Nanos now) const {
    Snapshot s{now, thread_cpu_ns(), {}};
    for (const auto& n : nodes_) s.nodes.push_back(n->snapshot());
    return s;
  }

  protocol::RingConfig ring_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Snapshot> opened_, closed_;
  Snapshot final_;
};

// --- analysis -------------------------------------------------------------------

void check_order(const Ring& ring, Result& result) {
  const auto& nodes = ring.nodes();
  size_t common = nodes[0]->checkpoints().size();
  bool same_count = true;
  for (const auto& n : nodes) {
    if (n->bad() > 0) {
      result.fail(std::to_string(n->bad()) +
                  " deliveries malformed or out of FIFO order at one node");
    }
    common = std::min(common, n->checkpoints().size());
    same_count = same_count && n->delivered() == nodes[0]->delivered();
  }
  for (size_t k = 0; k < common; ++k) {
    for (const auto& n : nodes) {
      if (n->checkpoints()[k] != nodes[0]->checkpoints()[k]) {
        result.fail("nodes disagree on the delivery order before delivery " +
                    std::to_string((k + 1) * kCheckpointEvery));
        return;
      }
    }
  }
  for (const auto& n : nodes) {
    if (same_count && n->hash() != nodes[0]->hash()) {
      result.fail("nodes delivered the same count in different orders");
      return;
    }
  }
}

/// Submit attempts, plus rejected submits and messages some node never
/// delivered.
void count_failures(const Ring& ring, Result& result) {
  const auto& nodes = ring.nodes();
  uint64_t missing = 0;
  for (size_t s = 0; s < nodes.size(); ++s) {
    uint64_t everywhere = nodes[s]->sent();
    for (const auto& n : nodes) {
      everywhere = std::min(everywhere, n->received_from(static_cast<int>(s)));
    }
    missing += nodes[s]->sent() - everywhere;
  }
  for (const auto& n : nodes) {
    result.attempted += n->attempts();
    result.failed += n->rejected();
  }
  result.failed += missing;
  result.set("ring.missing_msgs", static_cast<double>(missing), "count");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Totals over a set of windows.
struct WindowSums {
  double seconds = 0;
  std::vector<double> delivered;  ///< per node
  double cpu_ns = 0;              ///< the driving thread's
  double datagrams = 0;
  double initiated = 0;
  double rounds = 0;  ///< at node 0
  SpanTotals spans;   ///< summed over nodes

  /// Ordered messages: the mean over nodes.
  [[nodiscard]] double msgs() const {
    double total = 0;
    for (const double d : delivered) total += d;
    return delivered.empty() ? 0 : total / static_cast<double>(delivered.size());
  }
  /// Deliveries per second at the slowest node.
  [[nodiscard]] double tput() const {
    if (delivered.empty()) return 0;
    return ratio(*std::min_element(delivered.begin(), delivered.end()),
                 seconds);
  }
};

/// Totals over the windows whose saturate and traced flags are as given.
WindowSums sum_windows(const Ring& ring, const Plan& plan, bool saturate,
                       bool traced) {
  WindowSums s;
  s.delivered.assign(ring.nodes().size(), 0);
  for (size_t k = 0; k < ring.windows_closed(); ++k) {
    const Window& w = plan.windows[k];
    if (w.saturate != saturate || w.traced != traced) continue;
    const Snapshot& a = ring.opened(k);
    const Snapshot& b = ring.closed(k);
    s.seconds += util::to_sec(b.at - a.at);
    s.cpu_ns += static_cast<double>(b.cpu - a.cpu);
    for (size_t i = 0; i < a.nodes.size(); ++i) {
      const NodeSnapshot& na = a.nodes[i];
      const NodeSnapshot& nb = b.nodes[i];
      s.delivered[i] += static_cast<double>(nb.delivered - na.delivered);
      s.datagrams += static_cast<double>(nb.datagrams - na.datagrams);
      s.initiated +=
          static_cast<double>(nb.engine.initiated - na.engine.initiated);
      if (i == 0) {
        s.rounds += static_cast<double>(nb.engine.rounds - na.engine.rounds);
      }
      for (int kind = 0; kind < kSpanKinds; ++kind) {
        s.spans.total[kind] += nb.spans.total[kind] - na.spans.total[kind];
        s.spans.self[kind] += nb.spans.self[kind] - na.spans.self[kind];
        s.spans.calls[kind] += nb.spans.calls[kind] - na.spans.calls[kind];
      }
      s.spans.datagrams += nb.spans.datagrams - na.spans.datagrams;
      s.spans.top_level += nb.spans.top_level - na.spans.top_level;
      s.spans.top_timed += nb.spans.top_timed - na.spans.top_timed;
      s.spans.top_calls += nb.spans.top_calls - na.spans.top_calls;
    }
  }
  return s;
}

/// The slowest node's deliveries per second in each untraced phase B window,
/// at the kFastWindow quantile of the windows.
double fast_window_tput(const Ring& ring, const Plan& plan) {
  std::vector<double> rates;
  for (size_t k = 0; k < ring.windows_closed(); ++k) {
    const Window& w = plan.windows[k];
    if (!w.saturate || w.traced) continue;
    const Snapshot& a = ring.opened(k);
    const Snapshot& b = ring.closed(k);
    uint64_t slowest = std::numeric_limits<uint64_t>::max();
    for (size_t i = 0; i < a.nodes.size(); ++i) {
      slowest = std::min(slowest, b.nodes[i].delivered - a.nodes[i].delivered);
    }
    rates.push_back(
        ratio(static_cast<double>(slowest), util::to_sec(b.at - a.at)));
  }
  return quantile(rates, kFastWindow);
}

void analyse(const Ring& ring, const Plan& plan, bool trace, Result& result) {
  check_order(ring, result);
  count_failures(ring, result);
  if (ring.windows_closed() != plan.windows.size()) {
    result.fail("the ring closed " + std::to_string(ring.windows_closed()) +
                " of " + std::to_string(plan.windows.size()) +
                " measurement windows");
    return;
  }
  const auto& nodes = ring.nodes();

  // End to end: the untraced phase B windows (all of them in an untraced
  // run); CPU as a total over their time.
  const WindowSums plain = sum_windows(ring, plan, true, false);
  result.set("ops_per_s", fast_window_tput(ring, plan), "1/s");
  result.set("cpu_ns_per_op", ratio(plain.cpu_ns, plain.msgs()), "ns");
  // Latency: quantiles per window of due times, pooled over the nodes, then
  // the median window, so a stall of the machine moves the windows it falls
  // in, not the result.
  std::vector<double> p50, p99;
  size_t samples = 0;
  for (size_t w = 0; w < plan.windows.size(); ++w) {
    if (plan.windows[w].saturate) continue;
    std::vector<int32_t> lat;
    for (const auto& n : nodes) {
      const std::vector<int32_t>& l = n->latencies(static_cast<int>(w));
      lat.insert(lat.end(), l.begin(), l.end());
    }
    samples += lat.size();
    p50.push_back(quantile(lat, 0.50) / 1e3);
    p99.push_back(quantile(lat, 0.99) / 1e3);
  }
  result.set("lat_p50_us", median(p50), "us");
  result.set("lat_p99_us", median(p99), "us");
  std::vector<int32_t> late;
  for (const auto& n : nodes) {
    late.insert(late.end(), n->lateness().begin(), n->lateness().end());
  }

  // Layer counters, readable in every run.
  result.set("lat_samples", static_cast<double>(samples), "count");
  result.set("gen.late_p99_us", quantile(late, 0.99) / 1e3, "us");
  const WindowSums open = sum_windows(ring, plan, false, false);
  result.set("protocol.token_rotation_us",
             ratio(open.seconds * 1e6, open.rounds), "us");
  const WindowSums layer = trace ? sum_windows(ring, plan, true, true) : plain;
  result.set("protocol.msgs_per_rotation",
             ratio(layer.initiated, layer.rounds), "count");
  result.set("transport.datagrams_per_msg",
             ratio(layer.datagrams, layer.msgs()), "count");
  uint64_t retransmits = 0, token_retransmits = 0, view_changes = 0, drops = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const protocol::EngineStats& e = ring.final_snapshot().nodes[i].engine;
    retransmits += e.retransmitted;
    token_retransmits += e.token_retransmits;
    view_changes += e.memberships > 0 ? e.memberships - 1 : 0;
    drops += nodes[i]->send_drops();
  }
  result.set("protocol.retransmits", static_cast<double>(retransmits), "count");
  result.set("protocol.token_retransmits",
             static_cast<double>(token_retransmits), "count");
  result.set("protocol.view_changes", static_cast<double>(view_changes),
             "count");
  result.set("transport.send_drops", static_cast<double>(drops), "count");
  if (!trace) return;

  // Spans, from the traced windows only.
  const SpanTotals& sp = layer.spans;
  const auto per_call = [&](Span kind, bool self) {
    return ratio(static_cast<double>(self ? sp.self[kind] : sp.total[kind]),
                 static_cast<double>(sp.calls[kind]));
  };
  result.set("protocol.on_packet_self_ns", per_call(kOnPacket, true), "ns");
  result.set("protocol.submit_ns", per_call(kSubmit, false), "ns");
  result.set("app.deliver_ns", per_call(kDeliver, true), "ns");
  result.set("transport.send_ns_per_datagram",
             ratio(static_cast<double>(sp.total[kSend]),
                   static_cast<double>(sp.datagrams)),
             "ns");
  // Residual: thread CPU minus all outermost spans, scaled up from the timed
  // ones: the poll, receive and loop cost.
  const double spanned = static_cast<double>(sp.top_level) *
                         ratio(static_cast<double>(sp.top_calls),
                               static_cast<double>(sp.top_timed));
  result.set("transport.recv_residual_ns_per_msg",
             ratio(layer.cpu_ns - spanned, layer.msgs()), "ns");
  result.set("trace.overhead_frac",
             1 - ratio(layer.tput(), plain.tput()), "ratio");
}

/// A 1-member ring over UDP, saturated for 0.1 S: the token goes to the
/// node's own token socket.
void single_node_baseline(const Shape& shape, const Options& opt,
                          Result& result) {
  Ring ring(1, shape, false, opt.seed, membership::make_ring_id(100, 0));
  if (!ring.wait_first_token()) {
    std::printf("  single-node ring: no token handled; phase dropped\n");
    return;
  }
  const Plan plan = make_plan(mono_ns(), util::sec(opt.seconds) / 10,
                              kSingleNodeCycle, false, 1);
  ring.run(plan);
  if (ring.windows_closed() != plan.windows.size()) {
    std::printf("  single-node ring: window not reached; phase dropped\n");
    return;
  }
  result.set("baseline.single_node_tput_msgs_s",
             sum_windows(ring, plan, true, false).tput(), "1/s");
}

/// Measured wall-clock costs beside the simulator's cost constants.
void print_calibration(const Result& result) {
  const transport::HostCosts model;
  const struct {
    const char* measured;
    const char* constant;
    Nanos value;
  } rows[] = {
      {"engine.data_ns", "data_process", model.data_process},
      {"engine.token_ns", "token_process", model.token_process},
      {"transport.send_ns_per_datagram", "send_syscall", model.send_syscall},
      {"app.deliver_ns", "delivery", model.delivery},
  };
  std::printf("calibration: measured ns here vs simulator HostCosts ns\n");
  for (const auto& row : rows) {
    const double* v = result.find(row.measured);
    std::printf("  %-32s %10.1f   %-14s %6lld\n", row.measured,
                v != nullptr ? *v : 0.0, row.constant,
                static_cast<long long>(row.value));
  }
}

}  // namespace

void run_ring(const Options& opt, Result& result) {
  const bool agreed = opt.workload == "ring_agreed_1350";
  const Shape shape = agreed ? Shape{protocol::Service::kAgreed, 1350}
                             : Shape{protocol::Service::kSafe, 200};
  {
    Ring ring(kNodes, shape, opt.trace, opt.seed,
              membership::make_ring_id(1, 0));
    if (!ring.wait_first_token()) {
      result.fail("ring setup: a node handled no token within 5 s");
      return;
    }
    const Plan plan = make_plan(mono_ns() + util::msec(100),
                                util::sec(opt.seconds), kRingCycle,
                                opt.trace, kNodes);
    ring.run(plan);
    analyse(ring, plan, opt.trace, result);
  }
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    const Nanos t0 = mono_ns();
    Ring ring(kNodes, shape, opt.trace, opt.seed,
              membership::make_ring_id(rep + 2, 0));
    if (!ring.wait_first_token()) {
      result.fail("ring setup: a node handled no token within 5 s");
      return;
    }
    setup_s.push_back(util::to_sec(mono_ns() - t0));
  }
  result.set("setup_s", median(setup_s), "s");
  if (!opt.trace) return;
  if (agreed) single_node_baseline(shape, opt, result);
  run_layer_drives(result);
  print_calibration(result);
}

}  // namespace accelring::suite
