#include "protocol/engine.hpp"

#include <algorithm>
#include <cassert>

#include "membership/membership.hpp"
#include "util/log.hpp"

namespace accelring::protocol {

namespace {
constexpr const char* kTag = "engine";
}

Engine::Engine(ProcessId self, const ProtocolConfig& cfg, Host& host)
    : self_(self),
      cfg_(cfg),
      host_(host),
      membership_(std::make_unique<membership::Membership>(*this)),
      flow_(cfg_),
      timers_(cfg_),
      gray_(self) {}

Engine::~Engine() = default;

EngineMetrics EngineMetrics::bind(obs::MetricsRegistry& registry) {
  EngineMetrics m;
  m.token_rotation_ns = &registry.histogram("protocol", "token_rotation_ns");
  m.token_hold_cpu_ns = &registry.histogram("protocol", "token_hold_cpu_ns");
  m.origin_agreed_ns = &registry.histogram("protocol", "origin_agreed_ns");
  m.origin_safe_ns = &registry.histogram("protocol", "origin_safe_ns");
  m.view_change_ns = &registry.histogram("membership", "view_change_ns");
  m.dwell_gather_ns = &registry.histogram("membership", "dwell_gather_ns");
  m.dwell_commit_ns = &registry.histogram("membership", "dwell_commit_ns");
  m.dwell_recover_ns = &registry.histogram("membership", "dwell_recover_ns");
  m.dwell_operational_ns =
      &registry.histogram("membership", "dwell_operational_ns");
  m.retrans_answered = &registry.counter("protocol", "retrans_answered");
  m.retrans_requested = &registry.counter("protocol", "retrans_requested");
  m.token_retransmits = &registry.counter("protocol", "token_retransmits");
  return m;
}

void Engine::set_metrics(const EngineMetrics& metrics) {
  metrics_ = metrics;
  if (metrics_.origin_agreed_ns != nullptr ||
      metrics_.origin_safe_ns != nullptr) {
    // Power-of-two ring deep enough to outlive any delivery pipeline: seqs
    // are discarded once safe, which trails the head by at most a couple of
    // rounds of the global window.
    origin_stamps_.assign(8192, OriginStamp{});
  } else {
    origin_stamps_.clear();
  }
}

obs::Histogram* Engine::dwell_for(State s) const {
  switch (s) {
    case State::kGather:
      return metrics_.dwell_gather_ns;
    case State::kCommit:
      return metrics_.dwell_commit_ns;
    case State::kRecover:
      return metrics_.dwell_recover_ns;
    case State::kOperational:
      return metrics_.dwell_operational_ns;
    case State::kIdle:
      return nullptr;
  }
  return nullptr;
}

void Engine::set_state(State next) {
  if (next == state_) return;
  const Nanos at = host_.now();
  if (obs::Histogram* dwell = dwell_for(state_)) {
    dwell->record(at - state_entered_);
  }
  if (next == State::kGather && view_change_started_ == 0 &&
      state_ != State::kIdle) {
    view_change_started_ = at;
  }
  if (next == State::kOperational) {
    if (metrics_.view_change_ns != nullptr && view_change_started_ > 0) {
      metrics_.view_change_ns->record(at - view_change_started_);
    }
    view_change_started_ = 0;
  }
  state_ = next;
  state_entered_ = at;
}

void Engine::start_with_ring(const RingConfig& ring) {
  assert(state_ == State::kIdle);
  assert(ring.index_of(self_) >= 0);
  membership_->adopt_ring(ring);
  enter_operational(ring, /*notify_config=*/true);
  if (ring.representative() == self_) originate_token();
}

void Engine::start_discovery() {
  assert(state_ == State::kIdle);
  membership_->start_discovery();
}

void Engine::set_epoch_store(storage::EpochStore* store) {
  membership_->set_epoch_store(store);
}

void Engine::enter_operational(const RingConfig& ring, bool notify_config) {
  ring_ = ring;
  my_index_ = ring_.index_of(self_);
  assert(my_index_ >= 0);
  reset_ordering_state();
  set_state(State::kOperational);
  ++stats_.memberships;
  trace(util::TraceEvent::kMembership,
        static_cast<int64_t>(ring_.ring_id & 0xFFFFFFFF),
        static_cast<int64_t>(ring_.size()));
  if (notify_config) {
    host_.on_configuration(ConfigurationChange{ring_, /*transitional=*/false});
  }
  host_.set_timer(kTimerTokenLoss, timers_.token_loss());
}

void Engine::reset_ordering_state() {
  buffer_ = RecvBuffer{};
  flow_.reset();
  my_round_ = 0;
  last_token_id_ = 0;
  prev_token_seq_ = 0;
  aru_sent_this_ = 0;
  aru_sent_prev_ = 0;
  safe_line_ = 0;
  token_high_priority_ = false;
  last_token_sent_.clear();
  timers_.reset();
  gray_.reset();
  last_token_rx_ = 0;
  host_.cancel_timer(kTimerTokenRetransmit);
}

const std::vector<ProcessId>& Engine::quarantine_victims() const {
  return membership_->quarantine().victims();
}

void Engine::originate_token() {
  TokenMsg token;
  token.ring_id = ring_.ring_id;
  token.token_id = 1;
  token.round = 0;
  handle_token(token);
}

bool Engine::submit(Service service, std::vector<std::byte> payload) {
  if (app_queue_.size() >= cfg_.max_pending) {
    ++stats_.submit_rejected;
    return false;
  }
  PendingMsg msg{service, std::move(payload), false};
  msg.submitted_at = host_.now();
  app_queue_.push_back(std::move(msg));
  return true;
}

void Engine::on_packet(SocketId sock, std::span<const std::byte> packet) {
  (void)sock;  // demux is by packet type; sockets only affect drain priority
  const auto type = peek_type(packet);
  if (!type) return;
  switch (*type) {
    case PacketType::kData: {
      if (auto msg = decode_data(packet)) handle_data(*msg);
      break;
    }
    case PacketType::kToken: {
      if (auto token = decode_token(packet)) handle_token(*token);
      break;
    }
    case PacketType::kJoin: {
      if (auto join = decode_join(packet)) membership_->on_join(*join);
      break;
    }
    case PacketType::kCommitToken: {
      if (auto commit = decode_commit(packet)) membership_->on_commit(*commit);
      break;
    }
  }
}

void Engine::on_timer(TimerKind kind) {
  switch (kind) {
    case kTimerTokenRetransmit:
      if ((state_ == State::kOperational || state_ == State::kRecover) &&
          !last_token_sent_.empty()) {
        ++stats_.token_retransmits;
        if (metrics_.token_retransmits != nullptr) {
          metrics_.token_retransmits->inc();
        }
        host_.unicast(ring_.successor_of(self_), kSockToken,
                      last_token_sent_);
        host_.set_timer(kTimerTokenRetransmit, cfg_.timeouts.token_retransmit);
      }
      break;
    case kTimerTokenLoss:
      if (state_ == State::kOperational || state_ == State::kRecover) {
        ACCELRING_LOG_INFO(kTag, "p%u: token loss on ring %llu",
                           unsigned{self_},
                           static_cast<unsigned long long>(ring_.ring_id));
        membership_->on_token_loss();
      }
      break;
    case kTimerJoin:
    case kTimerConsensus:
      membership_->on_timer(kind);
      break;
    default:
      break;  // baseline timer ids: not used by the ring engine
  }
}

// ---------------------------------------------------------------------------
// Data handling (§III-B)
// ---------------------------------------------------------------------------

void Engine::handle_data(const DataMsg& msg) {
  if (state_ == State::kIdle) return;
  if (msg.ring_id != ring_.ring_id) {
    membership_->on_foreign(msg.pid, msg.ring_id);
    return;
  }
  ++stats_.data_handled;
  trace(util::TraceEvent::kDataRx, msg.seq, msg.pid);

  // Liveness-evidence deferral: a data message on our current ring proves
  // the ring is making progress even while the token itself keeps getting
  // lost, so push the token-loss timer out. Without this, a loss burst whose
  // stretched rotation exceeds the timer armed *before* the burst would
  // falsely trigger membership against live members. Genuine silence for a
  // full estimated timeout still fires the timer, preserving crash
  // detection. Applies even to duplicate data (a retransmission answered by
  // a live member is evidence too).
  if (cfg_.adaptive_timeouts &&
      (state_ == State::kOperational || state_ == State::kRecover)) {
    host_.set_timer(kTimerTokenLoss, timers_.token_loss());
  }

  // Token-priority switching (§III-C): raise token priority when we process
  // a data message our immediate ring predecessor sent in the next token
  // round — for the conservative method, only one sent after the token.
  if ((state_ == State::kOperational || state_ == State::kRecover) &&
      !token_high_priority_ && ring_.size() > 1 &&
      msg.pid == ring_.predecessor_of(self_)) {
    // The representative bumps the round counter, so its predecessor's
    // messages for the upcoming token carry the round it just processed;
    // everyone else sees the next round number.
    const uint64_t trigger_round = my_round_ + (my_index_ == 0 ? 0 : 1);
    if (msg.round >= trigger_round &&
        (cfg_.effective_priority() == PriorityMethod::kAggressive ||
         msg.post_token)) {
      token_high_priority_ = true;
    }
  }

  // Evidence that the token we passed moved on: a later participant of this
  // round, or anyone in a newer round, is multicasting.
  if (msg.round > my_round_ ||
      (msg.round == my_round_ && ring_.index_of(msg.pid) > my_index_)) {
    host_.cancel_timer(kTimerTokenRetransmit);
  }

  if (!buffer_.insert(msg)) {
    ++stats_.duplicates;
    return;
  }
  deliver_ready();
}

// ---------------------------------------------------------------------------
// Token handling (§III-A)
// ---------------------------------------------------------------------------

void Engine::handle_token(const TokenMsg& received) {
  if (state_ != State::kOperational && state_ != State::kRecover) return;
  if (received.ring_id != ring_.ring_id) {
    membership_->on_foreign(kNoProcess, received.ring_id);
    return;
  }
  if (received.token_id <= last_token_id_) {
    ++stats_.duplicates;  // retransmitted token we already handled
    return;
  }
  last_token_id_ = received.token_id;
  host_.cancel_timer(kTimerTokenRetransmit);
  // Feed the failure detector one rotation sample (time between consecutive
  // accepted tokens at this member), then arm the loss timer with whatever
  // the estimator currently believes.
  const Nanos token_now = host_.now();
  if (state_ == State::kOperational && last_token_rx_ > 0) {
    timers_.sample(token_now - last_token_rx_);
    if (metrics_.token_rotation_ns != nullptr) {
      metrics_.token_rotation_ns->record(token_now - last_token_rx_);
    }
  }
  last_token_rx_ = token_now;
  host_.set_timer(kTimerTokenLoss, timers_.token_loss());

  trace(util::TraceEvent::kTokenRx, static_cast<int64_t>(received.round),
        received.seq);

  // Gray-failure scoring: fold in the ring health vector the token carries.
  // When a member has been suspect past the hysteresis threshold, the acting
  // member — the lowest-indexed member that is not the victim, so exactly one
  // process acts and it is never the victim itself — evicts it through a
  // deliberate membership change instead of forwarding the token.
  if (cfg_.gray.enabled && state_ == State::kOperational && ring_.size() >= 3) {
    gray_.observe(received.health);
    if (const auto victim = gray_.verdict()) {
      const ProcessId acting =
          ring_.members[0] == *victim ? ring_.members[1] : ring_.members[0];
      if (acting == self_) {
        membership_->quarantine_evict(*victim);
        return;  // the ring is reforming; the token dies here
      }
    }
  }

  TokenMsg token = received;
  if (my_index_ == 0) ++token.round;
  my_round_ = token.round;
  ++stats_.tokens_handled;
  if (my_index_ == 0) ++stats_.rounds;

  // --- 1. Retransmissions: always sent in the pre-token phase -------------
  const uint32_t num_retrans = answer_retransmissions(token.rtr);

  // --- 2. Flow control ------------------------------------------------------
  const uint32_t allowed =
      flow_.allowance(pending_count(), token.fcc, num_retrans,
                      /*global_aru=*/token.aru, token.seq);

  // --- 3. Pre-token multicast phase (§III-A-1) ------------------------------
  // Prepare every message we will send this round; multicast only those that
  // overflow the accelerated window, keeping the rest queued for the
  // post-token phase. Own messages are self-inserted into the receive buffer
  // at creation (a sender trivially "has" its own messages).
  const uint32_t accel_window = cfg_.effective_accel_window();
  const bool aru_was_current = (received.aru == received.seq);
  std::deque<DataMsg> post_queue;
  uint32_t initiated = 0;
  for (uint32_t i = 0; i < allowed; ++i) {
    auto pending = pop_pending();
    if (!pending) break;
    if (cfg_.enable_packing && !pending->recovered) pack_pending(*pending);
    DataMsg msg;
    msg.ring_id = ring_.ring_id;
    msg.seq = ++token.seq;
    msg.pid = self_;
    msg.round = my_round_;
    msg.service = pending->service;
    msg.recovered = pending->recovered;
    msg.packed = pending->packed;
    msg.header_pad = header_pad_;
    msg.payload = std::move(pending->payload);
    if (!origin_stamps_.empty() && !pending->recovered) {
      origin_stamps_[msg.seq % origin_stamps_.size()] =
          OriginStamp{msg.seq, pending->submitted_at};
    }
    ++initiated;
    buffer_.insert(msg);  // self-insertion
    post_queue.push_back(std::move(msg));
    if (post_queue.size() > accel_window) {
      DataMsg front = std::move(post_queue.front());
      post_queue.pop_front();
      trace(util::TraceEvent::kDataTxPre, front.seq);
      host_.multicast(kSockData, encode(front));
    }
  }
  stats_.initiated += initiated;

  // --- 4. aru update (§III-A-2 and [2]) --------------------------------------
  const SeqNum local_aru = buffer_.local_aru();
  if (local_aru < token.aru) {
    token.aru = local_aru;
    token.aru_id = self_;
  } else if (token.aru_id == self_) {
    // We lowered the aru previously and nobody lowered it further since:
    // raise it to our current local aru.
    token.aru = std::min(local_aru, token.seq);
    if (token.aru == token.seq) token.aru_id = kNoProcess;
  } else if (aru_was_current) {
    // Everyone had everything: the aru advances in step with seq.
    token.aru = std::min(local_aru, token.seq);
  }

  // --- 5. fcc update ---------------------------------------------------------
  const uint32_t sent_this_round = num_retrans + initiated;
  token.fcc = flow_.updated_fcc(received.fcc, sent_this_round);
  flow_.round_complete(sent_this_round);

  // --- 6. rtr additions: bounded by the *previous* round's token seq so that
  // messages reflected in this token but not yet multicast (the accelerated
  // window) are not requested unnecessarily (§III-A-2). The original
  // protocol has no post-token sending, so it may request up to the current
  // token's seq.
  const SeqNum rtr_bound =
      (cfg_.variant == Variant::kOriginal || cfg_.naive_rtr_guard)
          ? received.seq
          : prev_token_seq_;
  const auto missing = buffer_.missing_up_to(rtr_bound, token.rtr);
  for (SeqNum seq : missing) trace(util::TraceEvent::kRtrAdd, seq);
  stats_.rtr_requested += missing.size();
  if (metrics_.retrans_requested != nullptr) {
    metrics_.retrans_requested->inc(missing.size());
  }
  token.rtr.insert(token.rtr.end(), missing.begin(), missing.end());
  prev_token_seq_ = received.seq;

  // --- 6b. health stamp: overwrite our entry in the token's health vector.
  // hold_us is the CPU this process consumed since its previous stamp — one
  // full rotation of work: the prior post-token flush, every data packet
  // received and delivered, and this handler up to the previous drain. Wall
  // clock between token acceptance and here would miss nearly all of that
  // (sends happen post-token; receive costs accrue between tokens). `work`
  // normalizes it: a busy healthy member burns CPU because it sends much —
  // a gray member burns CPU per unit of work.
  Nanos held = 0;
  if (cfg_.gray.enabled || metrics_.token_hold_cpu_ns != nullptr) {
    const Nanos cpu_now = host_.cpu_time();
    held = cpu_now - last_cpu_stamp_;
    last_cpu_stamp_ = cpu_now;
    if (metrics_.token_hold_cpu_ns != nullptr) {
      metrics_.token_hold_cpu_ns->record(held);
    }
  }
  if (cfg_.gray.enabled) {
    TokenHealth mine;
    mine.pid = self_;
    // Whole microseconds with the sub-us remainder carried to the next
    // rotation, so the cumulative stamped total tracks real CPU instead of
    // drifting up to 1us per rotation (the old per-delta ceil).
    mine.hold_us = hold_accum_.consume(held);
    mine.work = sent_this_round + 1;  // +1: the token pass itself
    mine.rtr_count =
        static_cast<uint16_t>(std::min<size_t>(missing.size(), 0xFFFF));
    mine.backlog =
        static_cast<uint16_t>(std::min<size_t>(pending_count(), 0xFFFF));
    bool stamped = false;
    for (TokenHealth& e : token.health) {
      if (e.pid == self_) {
        e = mine;
        stamped = true;
        break;
      }
    }
    if (!stamped) token.health.push_back(mine);
    std::erase_if(token.health, [this](const TokenHealth& e) {
      return ring_.index_of(e.pid) < 0;  // departed members
    });
  }

  // --- 7. pass the token, then flush the post-token queue (§III-A-3) --------
  ++token.token_id;
  const bool ring_idle = sent_this_round == 0 && token.fcc == 0 &&
                         token.rtr.empty() && token.aru == token.seq;
  send_token(token, ring_idle);
  token_high_priority_ = false;  // data has high priority after the token
  while (!post_queue.empty()) {
    DataMsg msg = std::move(post_queue.front());
    post_queue.pop_front();
    msg.post_token = true;
    trace(util::TraceEvent::kDataTxPost, msg.seq);
    host_.multicast(kSockData, encode(msg));
  }

  // --- 8. deliver and discard (§III-A-4) -------------------------------------
  aru_sent_prev_ = aru_sent_this_;
  aru_sent_this_ = token.aru;
  safe_line_ = std::min(aru_sent_this_, aru_sent_prev_);
  deliver_ready();
  buffer_.discard_up_to(safe_line_);

  if (cfg_.auto_tune) maybe_auto_tune();
}

void Engine::maybe_auto_tune() {
  if (++tune_rounds_ < cfg_.auto_tune_interval) return;
  tune_rounds_ = 0;
  // Loss signal: retransmissions we answered (someone missed our messages)
  // plus retransmissions we requested (we missed someone's).
  const uint64_t loss_now = stats_.retransmitted + stats_.rtr_requested;
  const uint64_t lost = loss_now - tune_last_loss_;
  tune_last_loss_ = loss_now;

  uint32_t personal = cfg_.personal_window;
  if (lost > cfg_.auto_tune_interval / 8) {
    // The ring is dropping: back off multiplicatively.
    personal = std::max(cfg_.min_personal_window, personal / 2);
  } else if (app_queue_.size() > personal) {
    // Clean ring and a backlog: we are window-limited, grow additively.
    personal = std::min(cfg_.max_personal_window, personal + 4);
  }
  if (personal != cfg_.personal_window) {
    cfg_.personal_window = personal;
    // Keep the ring-wide cap proportional and the accelerated window at 3/4
    // of the personal window (the sweet spot in bench/ablation_accel_window).
    cfg_.global_window = std::max(
        cfg_.global_window,
        personal * static_cast<uint32_t>(std::max<size_t>(ring_.size(), 1)));
    cfg_.accelerated_window = personal * 3 / 4;
  }
}

uint32_t Engine::answer_retransmissions(std::vector<SeqNum>& rtr) {
  uint32_t sent = 0;
  std::vector<SeqNum> unanswered;
  unanswered.reserve(rtr.size());
  for (SeqNum seq : rtr) {
    if (const DataMsg* msg = buffer_.find(seq)) {
      trace(util::TraceEvent::kRetransTx, seq);
      host_.multicast(kSockData, encode(*msg));
      ++sent;
    } else {
      unanswered.push_back(seq);
    }
  }
  stats_.retransmitted += sent;
  if (metrics_.retrans_answered != nullptr) metrics_.retrans_answered->inc(sent);
  rtr = std::move(unanswered);
  return sent;
}

void Engine::send_token(const TokenMsg& token, bool idle) {
  trace(util::TraceEvent::kTokenTx, static_cast<int64_t>(token.round),
        token.seq);
  last_token_sent_ = encode(token);
  const Nanos hold = idle ? cfg_.timeouts.idle_token_hold : 0;
  host_.unicast(ring_.successor_of(self_), kSockToken, last_token_sent_, hold);
  host_.set_timer(kTimerTokenRetransmit, cfg_.timeouts.token_retransmit + hold);
}

void Engine::deliver_ready() {
  while (const DataMsg* next = buffer_.next_deliverable(safe_line_)) {
    // Copy what we need before mutating the buffer.
    const DataMsg msg = *next;
    buffer_.mark_delivered();
    if (msg.recovered) {
      membership_->on_recovered_delivery(msg);
      continue;
    }
    deliver_one(msg);
  }
}

void Engine::deliver_one(const DataMsg& msg) {
  // Origination → own-delivery latency: the originator delivers its own
  // messages through the same total order as everyone else, so this is a
  // wire-format-free measure of end-to-end ordering latency (cross-node
  // latency is the harness's job, via the payload stamp).
  if (msg.pid == self_ && !origin_stamps_.empty()) {
    const OriginStamp& stamp = origin_stamps_[msg.seq % origin_stamps_.size()];
    if (stamp.seq == msg.seq) {
      obs::Histogram* h = requires_safe(msg.service)
                              ? metrics_.origin_safe_ns
                              : metrics_.origin_agreed_ns;
      if (h != nullptr) h->record(host_.now() - stamp.at);
    }
  }
  const auto emit = [&](std::vector<std::byte> payload) {
    Delivery delivery;
    delivery.sender = msg.pid;
    delivery.seq = msg.seq;
    delivery.service = msg.service;
    delivery.round = msg.round;
    delivery.ring_id = msg.ring_id;
    delivery.payload = std::move(payload);
    if (requires_safe(msg.service)) {
      ++stats_.delivered_safe;
    } else {
      ++stats_.delivered_agreed;
    }
    trace(util::TraceEvent::kDeliver, delivery.seq,
          static_cast<int64_t>(delivery.service));
    host_.deliver(delivery);
  };
  if (!msg.packed) {
    emit(msg.payload);
    return;
  }
  // Unpack [u32 length][bytes] frames and deliver each application message
  // individually, in packing order.
  util::Reader reader(msg.payload);
  while (reader.remaining() > 0) {
    const auto sub = reader.bytes();
    if (!reader.ok()) break;  // malformed tail: stop, keep what we got
    emit(util::to_vector(sub));
  }
}

bool Engine::pack_pending(PendingMsg& first) {
  auto& queue = (state_ == State::kRecover) ? recovery_queue_ : app_queue_;
  // 4-byte length frame per packed message.
  size_t total = first.payload.size() + 4;
  if (total > cfg_.packing_budget) return false;
  std::vector<PendingMsg> extras;
  while (!queue.empty()) {
    const PendingMsg& next = queue.front();
    if (next.recovered || next.packed || next.service != first.service) break;
    if (total + next.payload.size() + 4 > cfg_.packing_budget) break;
    total += next.payload.size() + 4;
    extras.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  if (extras.empty()) return false;
  util::Writer w(total);
  w.bytes(first.payload);
  for (const PendingMsg& extra : extras) w.bytes(extra.payload);
  first.payload = std::move(w).take();
  first.packed = true;
  return true;
}

std::optional<Engine::PendingMsg> Engine::pop_pending() {
  auto& queue =
      (state_ == State::kRecover) ? recovery_queue_ : app_queue_;
  if (queue.empty()) return std::nullopt;
  PendingMsg msg = std::move(queue.front());
  queue.pop_front();
  return msg;
}

size_t Engine::pending_count() const {
  return (state_ == State::kRecover) ? recovery_queue_.size()
                                     : app_queue_.size();
}

}  // namespace accelring::protocol
