// The ring ordering protocol engine (paper §III).
//
// Engine implements both the original Totem single-ring ordering protocol and
// the Accelerated Ring protocol as one state machine parameterized by
// ProtocolConfig (the original protocol is exactly the accelerated machinery
// with an accelerated window of zero and the conservative priority method,
// as the paper notes in §III-D).
//
// The engine is sans-io: bytes and timer ticks come in through on_packet()
// and on_timer(); multicasts, unicasts, deliveries, and timer (re)arms go out
// through the Host interface. It never touches sockets or clocks, so the
// identical code runs under the discrete-event simulator, the real UDP
// transport, and direct unit tests.
//
// Membership (gather / commit / recover, Extended Virtual Synchrony
// configuration delivery) lives in membership::Membership; the engine routes
// packets to it outside normal operation and exposes the hooks it needs.
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "obs/metrics.hpp"
#include "protocol/flow_control.hpp"
#include "protocol/gray_detector.hpp"
#include "protocol/recv_buffer.hpp"
#include "protocol/timeout_estimator.hpp"
#include "protocol/types.hpp"
#include "protocol/wire.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace accelring::membership {
class Membership;
}
namespace accelring::storage {
class EpochStore;
}

namespace accelring::protocol {

/// Timer identifiers passed to Host::set_timer / Engine::on_timer. The
/// baseline protocols (src/baselines) share the id space so every protocol
/// can run behind the same transports.
enum TimerKind : int {
  kTimerTokenRetransmit = 0,
  kTimerTokenLoss = 1,
  kTimerJoin = 2,
  kTimerConsensus = 3,
  kTimerBaselineAck = 4,
  kTimerBaselineNak = 5,
  kTimerBaselineFlush = 6,
  kTimerTokenHold = 7,
};

/// Socket classes re-exported so protocol code does not include simnet.
using SocketId = int;
inline constexpr SocketId kSockData = 0;
inline constexpr SocketId kSockToken = 1;

/// Environment services the engine requires. Implemented by the simulator
/// adapter (transport::SimHost), the UDP transport, and test fixtures.
class Host {
 public:
  virtual ~Host() = default;

  /// Send a datagram to every other participant (IP-multicast equivalent).
  virtual void multicast(SocketId sock, std::span<const std::byte> data) = 0;
  /// Send a datagram to one participant (token passing). The engine holds
  /// an idle token itself (kTimerTokenHold) and always passes 0 for `delay`;
  /// the parameter stays only because bench/suite's hosts override this
  /// signature, and goes when that suite is refreshed (ROADMAP item 4).
  virtual void unicast(ProcessId to, SocketId sock,
                       std::span<const std::byte> data, Nanos delay = 0) = 0;
  /// Hand an ordered message to the application.
  virtual void deliver(const Delivery& delivery) = 0;
  /// EVS configuration change notification (transitional or regular).
  virtual void on_configuration(const ConfigurationChange& change) = 0;
  /// (Re)arm or cancel a one-shot timer.
  virtual void set_timer(TimerKind kind, Nanos delay) = 0;
  virtual void cancel_timer(TimerKind kind) = 0;
  virtual Nanos now() = 0;
  /// Cumulative CPU time consumed by this process, for gray-failure
  /// telemetry: the engine stamps the delta between token rotations into the
  /// token's health vector. Wall-clock hold time cannot see a slow CPU here —
  /// with the accelerated window, new messages are multicast *after* the
  /// token is forwarded. The simulator reads the virtual CPU's busy time; a
  /// real transport reads CLOCK_THREAD_CPUTIME_ID. The default keeps hosts
  /// that cannot account CPU inert (hold_us stays 0, never convicted).
  virtual Nanos cpu_time() { return 0; }
};

/// Minimal surface every ordering protocol in this repo exposes to a
/// transport adapter (the simulator's SimHost or the UDP transport):
/// packets in, timers in, and a drain-priority hint out. protocol::Engine
/// implements it, as do the related-work baselines under src/baselines.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void on_packet(SocketId sock, std::span<const std::byte> packet) = 0;
  virtual void on_timer(TimerKind kind) = 0;
  [[nodiscard]] virtual SocketId preferred_socket() const = 0;
};

/// Counters exposed for tests, benches, and the EXPERIMENTS.md tables.
struct EngineStats {
  uint64_t tokens_handled = 0;
  uint64_t rounds = 0;
  uint64_t data_handled = 0;
  uint64_t duplicates = 0;
  uint64_t initiated = 0;        ///< new messages this engine multicast
  uint64_t retransmitted = 0;    ///< retransmissions answered
  uint64_t rtr_requested = 0;    ///< retransmissions this engine requested
  uint64_t delivered_agreed = 0;
  uint64_t delivered_safe = 0;
  uint64_t token_retransmits = 0;
  uint64_t memberships = 0;      ///< regular configurations installed
  uint64_t submit_rejected = 0;  ///< backpressure at submit()
  uint64_t quarantines = 0;      ///< gray-failure evictions this engine began
  uint64_t readmits = 0;         ///< quarantined members re-admitted here
  uint64_t token_holds = 0;      ///< idle tokens held (kTimerTokenHold armed)
  uint64_t hold_cancels = 0;     ///< hold cancels this engine multicast
};

/// Add the retransmission counts of `stats` to `registry`:
/// protocol.retrans_answered (retransmitted), protocol.retrans_requested
/// (rtr_requested) and protocol.token_retransmits.
void add_counters(obs::MetricsRegistry& registry, const EngineStats& stats);

/// Observation points the engine records into when attached (all pointers
/// may be null — unset metrics are simply not recorded). Recording is plain
/// memory writes against clocks the engine reads anyway, so an attached
/// registry never perturbs protocol behaviour (pinned by
/// tests/obs_determinism_test.cpp).
struct EngineMetrics {
  obs::Histogram* token_rotation_ns = nullptr;  ///< between accepted tokens
  obs::Histogram* token_hold_cpu_ns = nullptr;  ///< CPU burned per rotation
  obs::Histogram* origin_agreed_ns = nullptr;   ///< submit → own delivery
  obs::Histogram* origin_safe_ns = nullptr;     ///< submit → own delivery
  obs::Histogram* view_change_ns = nullptr;     ///< gather → operational
  obs::Histogram* dwell_gather_ns = nullptr;    ///< time per state visit
  obs::Histogram* dwell_commit_ns = nullptr;
  obs::Histogram* dwell_recover_ns = nullptr;
  obs::Histogram* dwell_operational_ns = nullptr;

  /// Intern the full set in `registry` under components "protocol" and
  /// "membership" and return the bound pointer table.
  [[nodiscard]] static EngineMetrics bind(obs::MetricsRegistry& registry);
};

class Engine final : public PacketHandler {
 public:
  /// `self` must be unique across the deployment. The engine starts idle;
  /// call start_with_ring() (static membership, used by the benchmarks) or
  /// start_discovery() (full membership algorithm).
  Engine(ProcessId self, const ProtocolConfig& cfg, Host& host);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Begin operation on a pre-agreed ring (all participants must be started
  /// with an identical RingConfig). The representative originates the token.
  void start_with_ring(const RingConfig& ring);

  /// Begin operation by running the membership algorithm from scratch: form
  /// a singleton ring, announce, and merge with whoever answers.
  void start_discovery();

  /// Feed one received datagram (any packet type; the engine demuxes).
  void on_packet(SocketId sock, std::span<const std::byte> packet) override;

  /// A timer armed via Host::set_timer fired.
  void on_timer(TimerKind kind) override;

  /// Queue an application message for ordered multicast. Returns false when
  /// the send queue is full (backpressure). While operational a submit ends
  /// this node's idle token hold, and when it finds the queue empty it
  /// multicasts one hold cancel so that a member holding the token passes
  /// it (see Timeouts::idle_token_hold). `wake` = false does neither: for
  /// traffic that must not keep an idle ring busy (multiring skips).
  bool submit(Service service, std::vector<std::byte> payload,
              bool wake = true);

  /// Which socket class the event loop should drain first (§III-C).
  [[nodiscard]] SocketId preferred_socket() const override {
    return token_high_priority_ ? kSockToken : kSockData;
  }

  // --- introspection ---------------------------------------------------------

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] ProcessId self() const { return self_; }
  [[nodiscard]] const RingConfig& ring() const { return ring_; }
  [[nodiscard]] bool operational() const { return state_ == State::kOperational; }
  [[nodiscard]] bool recovering() const { return state_ == State::kRecover; }
  [[nodiscard]] SeqNum local_aru() const { return buffer_.local_aru(); }
  [[nodiscard]] SeqNum delivered_up_to() const {
    return buffer_.delivered_up_to();
  }
  [[nodiscard]] size_t pending() const { return app_queue_.size(); }
  [[nodiscard]] const ProtocolConfig& config() const { return cfg_; }
  /// Gray-failure detector state (suspect streaks, smoothed unit costs).
  [[nodiscard]] const GrayFailureDetector& gray_detector() const {
    return gray_;
  }
  /// Every pid this node's membership layer placed in quarantine (local
  /// verdicts and adopted ones) — the campaign's healthy-member audit.
  [[nodiscard]] const std::vector<ProcessId>& quarantine_victims() const;
  /// True if this engine has received (or already stably discarded) the
  /// message with sequence number `seq` — used by tests to verify the Safe
  /// delivery (stability) guarantee at the instant of delivery elsewhere.
  [[nodiscard]] bool has_message(SeqNum seq) const {
    return buffer_.has(seq);
  }

  /// Attach a flight recorder; nullptr detaches. The engine records token
  /// receipt/pass, pre/post-token multicasts, retransmissions, deliveries,
  /// and retransmission requests (see util::TraceEvent).
  void set_tracer(util::Tracer* tracer) { tracer_ = tracer; }

  /// Attach an observation-point table (see EngineMetrics). The origin
  /// latency stamp ring is sized here, so no allocation happens later on the
  /// delivery path.
  void set_metrics(const EngineMetrics& metrics);

  /// Extra zero padding added to every data message this engine initiates,
  /// emulating implementation header overhead (0 for the library prototype,
  /// larger for the daemon and Spread profiles). Affects wire size only.
  void set_header_pad(uint16_t pad) { header_pad_ = pad; }

  /// Attach durable epoch storage for membership ring-id generation (see
  /// storage::EpochStore). Call before start_*; nullptr detaches.
  void set_epoch_store(storage::EpochStore* store);

 private:
  friend class membership::Membership;

  enum class State { kIdle, kOperational, kGather, kCommit, kRecover };

  struct PendingMsg {
    Service service;
    std::vector<std::byte> payload;
    bool recovered = false;  ///< recovery-phase encapsulated message / marker
    bool packed = false;     ///< payload is a sequence of framed messages
    Nanos submitted_at = 0;  ///< origination timestamp for latency metrics
  };

  // --- token handling (§III-A) ---------------------------------------------
  void handle_token(const TokenMsg& token);
  void handle_data(DataMsg&& msg);
  /// Multicast buffered message `seq` with post-token flag `post_token`.
  void multicast_data(SeqNum seq, bool post_token);

  /// Answer rtr entries we can; removes answered entries. Returns count sent.
  uint32_t answer_retransmissions(std::vector<SeqNum>& rtr);
  /// Deliver everything newly deliverable given the current safe line.
  void deliver_ready();
  /// Send the last token sent to our successor and arm the retransmit timer.
  void pass_token();
  /// End the idle hold: pass the held token now.
  void release_hold();
  /// A hold cancel arrived (see submit()).
  void handle_hold_cancel(const HoldCancelMsg& cancel);
  void originate_token();

  /// Take the next message to initiate from the pending queues.
  [[nodiscard]] std::optional<PendingMsg> pop_pending();
  [[nodiscard]] size_t pending_count() const;
  /// Pack queued same-service messages into `first`'s payload (greedy,
  /// bounded by cfg_.packing_budget). Returns true if packing happened.
  bool pack_pending(PendingMsg& first);
  /// Periodic flow-control adaptation (cfg_.auto_tune).
  void maybe_auto_tune();
  /// Deliver one (possibly packed) buffered message to the host.
  void deliver_one(const DataMsg& msg);
  /// Hand `msg` to the host: once, or once per frame (numbered by
  /// Delivery::part) when it is packed. The one unpack loop, shared with
  /// recovery's old-ring deliveries. Not re-entrant: every delivery reuses
  /// delivery_.
  void emit(const DataMsg& msg);

  // --- state shared with membership ----------------------------------------
  void enter_operational(const RingConfig& ring, bool notify_config);
  void reset_ordering_state();

  /// The one write point for state_: records per-state dwell time and the
  /// gather→operational view-change duration when metrics are attached.
  void set_state(State next);
  [[nodiscard]] obs::Histogram* dwell_for(State s) const;

  ProcessId self_;
  ProtocolConfig cfg_;
  Host& host_;
  std::unique_ptr<membership::Membership> membership_;

  State state_ = State::kIdle;
  RingConfig ring_;
  int my_index_ = -1;

  RecvBuffer buffer_;
  FlowControl flow_;
  TimeoutEstimator timers_;
  GrayFailureDetector gray_;
  Nanos last_token_rx_ = 0;  ///< rotation-time sampling (0 = no prior token)
  Nanos last_cpu_stamp_ = 0;  ///< Host::cpu_time() at the previous health stamp
  std::deque<PendingMsg> app_queue_;
  std::deque<PendingMsg> recovery_queue_;

  uint64_t my_round_ = 0;          ///< round of the last token processed
  uint64_t last_token_id_ = 0;     ///< duplicate-token detection
  SeqNum prev_token_seq_ = 0;      ///< rtr guard (§III-A-2)
  SeqNum aru_sent_this_ = 0;       ///< aru on the token we sent this round
  SeqNum aru_sent_prev_ = 0;       ///< ... and the round before (safe line)
  SeqNum safe_line_ = 0;           ///< min of the two aru values above
  SeqNum newest_safe_ = 0;         ///< highest seq of a Safe message held
  bool token_high_priority_ = false;
  bool holding_ = false;      ///< last_token_sent_ waits on kTimerTokenHold
  bool skip_hold_ = false;    ///< a cancel came while not holding: no hold
                              ///< at the next token visit
  /// A submit may multicast a hold cancel: since the last token visit no
  /// message was sent that keeps the token's fcc above 0 until it is back
  /// here (this node's own, or a newer one from another member), and no
  /// cancel left.
  bool may_cancel_ = false;
  std::vector<std::byte> last_token_sent_;  ///< for token retransmission
  std::vector<std::byte> data_out_;  ///< data encode buffer, reused per send
  Delivery delivery_;  ///< emit's delivery, its payload capacity reused
  bool emitting_ = false;  ///< emit is running (re-entry check)
  uint16_t header_pad_ = 0;
  uint64_t tune_rounds_ = 0;        ///< rounds since last window adjustment
  uint64_t tune_last_loss_ = 0;     ///< loss counters at last adjustment
  util::Tracer* tracer_ = nullptr;

  EngineMetrics metrics_;
  /// Remainder-carrying ns→us conversion for the token health stamp: the
  /// cumulative hold_us reported on the wire equals floor(total_cpu/1us)
  /// instead of drifting up to 1us per rotation (see util::MicrosAccumulator).
  util::MicrosAccumulator hold_accum_;
  /// Seq-indexed ring of origination timestamps for messages this engine
  /// initiated (sized by set_metrics; empty = origin latency not tracked).
  struct OriginStamp {
    SeqNum seq = 0;
    Nanos at = 0;
  };
  std::vector<OriginStamp> origin_stamps_;
  Nanos state_entered_ = 0;        ///< when state_ last changed
  Nanos view_change_started_ = 0;  ///< first gather entry of this change

  void trace(util::TraceEvent event, int64_t a, int64_t b = 0) {
    if (tracer_ != nullptr) tracer_->record(host_.now(), event, a, b);
  }

  EngineStats stats_;
};

}  // namespace accelring::protocol
