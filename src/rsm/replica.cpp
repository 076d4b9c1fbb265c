#include "rsm/replica.hpp"

#include <algorithm>
#include <cassert>

#include "storage/replica_store.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"

namespace accelring::rsm {

namespace {

// RSM frame types inside ordered payloads.
constexpr uint8_t kCommand = 1;
constexpr uint8_t kXferBegin = 2;     ///< transfer header (counts, CRCs)
constexpr uint8_t kXferChunk = 3;     ///< one checkpoint chunk
constexpr uint8_t kXferCmd = 4;       ///< one retained-log suffix command
constexpr uint8_t kXferAnnounce = 5;  ///< per-member basis announcement

/// Bound on commands buffered for replay across a state transfer. A replica
/// that overflows it while uninitialized cannot catch up from that transfer
/// and waits for the next membership change.
constexpr size_t kMaxReplayLog = 16384;

}  // namespace

RsmMetrics RsmMetrics::bind(obs::MetricsRegistry& registry) {
  RsmMetrics m;
  m.proposed = &registry.counter("rsm", "proposed");
  m.applied = &registry.counter("rsm", "applied");
  m.snapshots_sent = &registry.counter("rsm", "snapshots_sent");
  m.snapshots_restored = &registry.counter("rsm", "snapshots_restored");
  m.snapshots_verified = &registry.counter("rsm", "snapshots_verified");
  m.divergence_detected = &registry.counter("rsm", "divergence_detected");
  m.snapshot_bytes = &registry.counter("rsm", "snapshot_bytes");
  m.chunks_sent = &registry.counter("rsm", "chunks_sent");
  m.checkpoints = &registry.counter("rsm", "checkpoints");
  m.suffix_replayed = &registry.counter("rsm", "suffix_replayed");
  return m;
}

Replica::Replica(ProcessId self, StateMachine& machine, SubmitFn submit,
                 bool founder, ReplicaOptions options,
                 storage::ReplicaStore* store)
    : self_(self),
      machine_(machine),
      submit_(std::move(submit)),
      opt_(options),
      store_(store),
      initialized_(founder) {
  if (store_ != nullptr) {
    // Cold restart from disk comes FIRST: checkpoint restore + WAL replay.
    // Peer state transfer remains as the fallback (disk empty or corrupt)
    // and as the reconciliation path when the ring moved past us.
    storage::RecoverResult rec = store_->recover();
    if (rec.has_state) {
      machine_.restore(rec.state);
      position_ = rec.position;
      checkpoint_state_ = std::move(rec.state);
      checkpoint_position_ = rec.position;
      for (const std::vector<std::byte>& cmd : rec.commands) {
        // Applied silently — callers install apply observers after
        // construction, so recovery never re-announces history to clients.
        machine_.apply(cmd);
        ++position_;
        log_.push_back(cmd);
      }
      stats_.recovered_from_disk = 1;
      stats_.recovered_commands = rec.commands.size();
      initialized_ = true;
      return;
    }
  }
  if (founder) {
    // The founding checkpoint: the machine's initial state at position 0.
    checkpoint_state_ = machine_.snapshot();
    checkpoint_position_ = 0;
    // Persisting it makes the store self-sufficient from the first command
    // (append() requires a canonical WAL, which save_checkpoint creates).
    if (store_ != nullptr) {
      (void)store_->save_checkpoint(0, checkpoint_state_);
    }
  }
}

bool Replica::submit(std::span<const std::byte> command) {
  util::Writer w(command.size() + 8);
  w.u8(kCommand);
  w.raw(command);
  ++stats_.proposed;
  if (metrics_.proposed != nullptr) metrics_.proposed->inc();
  return submit_(std::move(w).take());
}

void Replica::persist_command(std::span<const std::byte> command) {
  if (store_ == nullptr) return;
  if (!store_->append(command)) ++stats_.wal_append_failures;
}

void Replica::apply_command(std::span<const std::byte> command) {
  persist_command(command);  // write-ahead: durable before visible
  machine_.apply(command);
  ++position_;
  ++stats_.applied;
  if (metrics_.applied != nullptr) metrics_.applied->inc();
  log_.push_back(util::to_vector(command));
  maybe_checkpoint();
}

void Replica::maybe_checkpoint() {
  if (position_ - checkpoint_position_ >= opt_.checkpoint_interval) {
    take_checkpoint();
  }
}

void Replica::take_checkpoint() {
  checkpoint_state_ = machine_.snapshot();
  checkpoint_position_ = position_;
  stats_.log_truncated += log_.size();
  log_.clear();
  ++stats_.checkpoints;
  if (metrics_.checkpoints != nullptr) metrics_.checkpoints->inc();
  // Durable checkpoint + WAL truncation; also heals a latched-broken WAL
  // (the store refuses appends after one failure so the on-disk log stays
  // an exact prefix — the next checkpoint re-roots durability here).
  if (store_ != nullptr) {
    (void)store_->save_checkpoint(checkpoint_position_, checkpoint_state_);
  }
}

void Replica::send_transfer() {
  const size_t chunk_bytes =
      std::min(std::max<size_t>(opt_.max_chunk_bytes, 1), kMaxTransferChunk);
  const uint32_t xfer_id = next_xfer_id_++;
  const uint32_t chunk_count = static_cast<uint32_t>(
      (checkpoint_state_.size() + chunk_bytes - 1) / chunk_bytes);

  // The shipped state is checkpoint + retained log = our state as of the
  // round's completion point in the stream (we flushed any deferred
  // commands just before sending). Adopters replay only commands ordered
  // after that point.
  util::Writer begin(48);
  begin.u8(kXferBegin);
  begin.u32(xfer_id);
  begin.u64(checkpoint_position_);
  begin.u32(util::crc32(checkpoint_state_));
  begin.u32(chunk_count);
  begin.u32(static_cast<uint32_t>(log_.size()));
  begin.u64(checkpoint_state_.size());
  begin.u32(util::crc32(machine_.snapshot()));
  begin.u64(position_);

  auto ship = [this](util::Writer&& w) {
    const size_t size = w.size();
    assert(size <= kMaxTransferChunk + 64 &&
           "transfer frame exceeds the datagram bound");
    if (!submit_(std::move(w).take())) {
      ++stats_.send_failures;
      return false;
    }
    stats_.snapshot_bytes += size;
    if (metrics_.snapshot_bytes != nullptr) metrics_.snapshot_bytes->inc(size);
    return true;
  };

  if (!ship(std::move(begin))) return;
  ++stats_.snapshots_sent;
  if (metrics_.snapshots_sent != nullptr) metrics_.snapshots_sent->inc();

  for (uint32_t i = 0; i < chunk_count; ++i) {
    const size_t off = static_cast<size_t>(i) * chunk_bytes;
    const size_t len = std::min(chunk_bytes, checkpoint_state_.size() - off);
    util::Writer w(len + 16);
    w.u8(kXferChunk);
    w.u32(xfer_id);
    w.u32(i);
    w.bytes(std::span(checkpoint_state_).subspan(off, len));
    if (!ship(std::move(w))) return;
    ++stats_.chunks_sent;
    if (metrics_.chunks_sent != nullptr) metrics_.chunks_sent->inc();
  }
  uint32_t index = 0;
  for (const std::vector<std::byte>& cmd : log_) {
    util::Writer w(cmd.size() + 16);
    w.u8(kXferCmd);
    w.u32(xfer_id);
    w.u32(index++);
    w.bytes(cmd);
    if (!ship(std::move(w))) return;
  }
}

void Replica::send_announce() {
  util::Writer w(16);
  w.u8(kXferAnnounce);
  w.u8(initialized_ ? 1 : 0);
  w.u64(audit_position_);
  w.u32(audit_crc_);
  if (!submit_(std::move(w).take())) {
    ++stats_.send_failures;
    announce_shed_ = true;
  } else {
    announce_shed_ = false;
  }
}

void Replica::replay_buffered() {
  if (!replay_valid_) return;
  for (size_t i = adopt_replay_from_; i < replay_log_.size(); ++i) {
    persist_command(replay_log_[i]);
    machine_.apply(replay_log_[i]);
    ++position_;
    log_.push_back(replay_log_[i]);
    maybe_checkpoint();
    ++stats_.replayed_buffered;
  }
  replay_log_.clear();
  adopt_replay_from_ = 0;
}

void Replica::flush_deferred() {
  if (!initialized_) return;
  for (const std::vector<std::byte>& cmd : replay_log_) {
    apply_command(cmd);
    ++stats_.deferred_flushed;
  }
  replay_log_.clear();
  adopt_replay_from_ = 0;
}

void Replica::finish_round() {
  round_done_ = true;
  // The authoritative basis: the most advanced initialized announce, ties
  // to the lowest process id. Announces are totally ordered, so every
  // member computes the same winner at the same point in the stream.
  const Announce* best = nullptr;
  ProcessId best_id = protocol::kNoProcess;
  for (const auto& [id, a] : announces_) {
    if (!a.initialized) continue;
    if (best == nullptr || a.position > best->position ||
        (a.position == best->position && id < best_id)) {
      best = &a;
      best_id = id;
    }
  }
  if (best == nullptr) {
    // Nobody holds state (all waiting joiners): nothing to reconcile.
    if (initialized_) {
      flush_deferred();
      recording_ = false;
    }
    return;
  }
  bool anyone_needs = false;
  for (const auto& [id, a] : announces_) {
    if (!a.initialized || a.position != best->position ||
        a.crc != best->crc) {
      anyone_needs = true;
    }
  }
  const bool mine_matches = initialized_ && audit_valid_ &&
                            audit_position_ == best->position &&
                            audit_crc_ == best->crc;
  if (mine_matches) {
    if (best_id != self_) {
      // Cross-checked against another replica's boundary CRC: the
      // continuous consistency audit passed.
      ++stats_.snapshots_verified;
      if (metrics_.snapshots_verified != nullptr) {
        metrics_.snapshots_verified->inc();
      }
    }
    flush_deferred();
    recording_ = false;
    if (best_id == self_ && anyone_needs) send_transfer();
    return;
  }
  if (initialized_ && adoption_disabled_) {
    // The buffer overflowed mid-round and we already went live on our own
    // basis; adopting now would lose the overflowed commands. The next
    // membership change retries with a fresh buffer.
    return;
  }
  if (initialized_ && audit_valid_ && audit_position_ == best->position) {
    // Same length, different content: this replica silently diverged from
    // the authoritative basis. Flag it — the adoption below reconciles.
    ++stats_.divergence_detected;
    if (metrics_.divergence_detected != nullptr) {
      metrics_.divergence_detected->inc();
    }
  }
  // Our basis lost (or we are an uninitialized joiner): keep deferring;
  // the authoritative member's transfer is ordered right behind the round.
  // Adoption replays only commands buffered from this point on — the
  // transfer's state covers everything ordered before it.
  need_transfer_ = true;
  adopt_replay_from_ = replay_log_.size();
}

void Replica::adopt_transfer(ProcessId /*sender*/, Transfer& xfer) {
  replaying_ = true;
  machine_.restore(xfer.state);
  position_ = xfer.base_position;
  checkpoint_state_ = std::move(xfer.state);
  checkpoint_position_ = position_;
  log_.clear();
  // The adopted snapshot replaces our whole lineage on disk too: persist it
  // before the suffix appends so the WAL base matches the new checkpoint.
  if (store_ != nullptr) {
    (void)store_->save_checkpoint(checkpoint_position_, checkpoint_state_);
  }
  for (std::vector<std::byte>& cmd : xfer.suffix) {
    persist_command(cmd);
    machine_.apply(cmd);
    ++position_;
    log_.push_back(std::move(cmd));
    ++stats_.suffix_replayed;
    if (metrics_.suffix_replayed != nullptr) metrics_.suffix_replayed->inc();
  }
  stats_.restore_position = xfer.base_position;
  ++stats_.snapshots_restored;
  if (metrics_.snapshots_restored != nullptr) {
    metrics_.snapshots_restored->inc();
  }
  // Our pre-adoption boundary capture described the abandoned basis.
  audit_valid_ = false;
  // Commands ordered after the round completed, which we buffered while
  // the transfer was in flight, complete the catch-up.
  replay_buffered();
  initialized_ = true;
  recording_ = false;
  need_transfer_ = false;
  replaying_ = false;
}

void Replica::on_transfer_complete(ProcessId sender, Transfer& xfer) {
  const bool sane = !xfer.corrupt &&
                    xfer.state.size() == xfer.total_bytes &&
                    util::crc32(xfer.state) == xfer.state_crc &&
                    xfer.base_position + xfer.suffix.size() ==
                        xfer.boundary_position;
  if (!sane) {
    ++stats_.transfers_corrupt;
    return;
  }
  if (!round_done_ || !need_transfer_ || adoption_disabled_ ||
      !replay_valid_) {
    // Not waiting on state (our basis survived the round, or the buffer
    // overflowed and this transfer can no longer be completed by replay).
    ++stats_.transfers_aborted;
    return;
  }
  adopt_transfer(sender, xfer);
}

void Replica::on_delivery(const protocol::Delivery& delivery) {
  if (delivery.payload.empty()) return;
  if (announce_shed_ && !round_done_) {
    // Our announce was shed by backpressure; peers are stuck waiting for
    // it. Any delivery is a sign the stream is moving again — retry.
    send_announce();
  }
  const std::span<const std::byte> body =
      std::span(delivery.payload).subspan(1);
  switch (static_cast<uint8_t>(delivery.payload[0])) {
    case kCommand: {
      if (recording_) {
        if (replay_log_.size() < kMaxReplayLog) {
          // Buffered, not applied: every member defers during the announce
          // round; a needer keeps deferring until its transfer lands.
          replay_log_.push_back(util::to_vector(body));
        } else if (initialized_) {
          // Overflow mid-deferral: adopting later would lose commands, so
          // give up on adoption and go live on our own basis. The announce
          // round itself keeps running (announces are tiny) — we just no
          // longer act on its outcome until the next configuration.
          flush_deferred();
          recording_ = false;
          adoption_disabled_ = true;
          need_transfer_ = false;
          apply_command(body);
        } else {
          // Overflow: commands beyond the buffer cannot be replayed across
          // a restore; an uninitialized replica loses them outright.
          replay_valid_ = false;
          ++stats_.dropped_uninitialized;
        }
        break;
      }
      if (initialized_) apply_command(body);
      break;
    }
    case kXferBegin: {
      util::Reader r(body);
      Transfer x;
      x.xfer_id = r.u32();
      x.base_position = r.u64();
      x.state_crc = r.u32();
      x.chunk_count = r.u32();
      x.suffix_count = r.u32();
      x.total_bytes = r.u64();
      x.boundary_crc = r.u32();
      x.boundary_position = r.u64();
      if (!r.done()) return;
      x.state.reserve(x.total_bytes);
      if (xfers_.contains(delivery.sender)) ++stats_.transfers_aborted;
      auto [it, _] = xfers_.insert_or_assign(delivery.sender, std::move(x));
      if (it->second.chunk_count == 0 && it->second.suffix_count == 0) {
        Transfer done = std::move(it->second);
        xfers_.erase(it);
        on_transfer_complete(delivery.sender, done);
      }
      break;
    }
    case kXferChunk:
    case kXferCmd: {
      const auto it = xfers_.find(delivery.sender);
      if (it == xfers_.end()) return;  // header lost to a config change
      Transfer& x = it->second;
      util::Reader r(body);
      const uint32_t xfer_id = r.u32();
      const uint32_t index = r.u32();
      const auto data = r.bytes();
      if (!r.done() || xfer_id != x.xfer_id) return;
      const bool is_chunk =
          static_cast<uint8_t>(delivery.payload[0]) == kXferChunk;
      if (is_chunk) {
        // A sender's frames are FIFO in the total order, so chunks arrive
        // exactly in index order; anything else is a torn transfer.
        if (index != x.chunks_seen || x.chunks_seen >= x.chunk_count) {
          x.corrupt = true;
        } else {
          x.state.insert(x.state.end(), data.begin(), data.end());
          ++x.chunks_seen;
        }
      } else {
        if (index != x.suffix.size() || x.suffix.size() >= x.suffix_count) {
          x.corrupt = true;
        } else {
          x.suffix.push_back(util::to_vector(data));
        }
      }
      if (x.chunks_seen == x.chunk_count &&
          x.suffix.size() == x.suffix_count) {
        Transfer done = std::move(x);
        xfers_.erase(it);
        on_transfer_complete(delivery.sender, done);
      }
      break;
    }
    case kXferAnnounce: {
      util::Reader r(body);
      Announce a;
      a.initialized = r.u8() != 0;
      a.position = r.u64();
      a.crc = r.u32();
      if (!r.done()) return;
      if (round_done_) break;  // stale frame from a member's shed retry
      announces_[delivery.sender] = a;
      unresolved_.erase(delivery.sender);
      if (unresolved_.empty()) finish_round();
      break;
    }
    default:
      break;  // unrelated traffic sharing the ordered stream
  }
}

void Replica::on_configuration(const protocol::ConfigurationChange& change) {
  if (change.transitional) return;
  std::set<ProcessId> next(change.config.members.begin(),
                           change.config.members.end());

  // An unfinished incoming transfer means its sender left: EVS delivers a
  // sender's frames inside one configuration, so nothing more will arrive.
  stats_.transfers_aborted += xfers_.size();
  xfers_.clear();

  // A cut announce round (or a cut transfer we were waiting on) restarts
  // from scratch here.
  announces_.clear();
  unresolved_.clear();
  round_done_ = false;
  need_transfer_ = false;
  adoption_disabled_ = false;
  announce_shed_ = false;

  // Boundary capture: the basis this member will announce. Every member
  // captures at the same total-order point (this configuration change), so
  // equal states produce equal (position, CRC) pairs.
  audit_valid_ = initialized_;
  if (initialized_) {
    audit_crc_ = util::crc32(machine_.snapshot());
    audit_position_ = position_;
  }

  // An initialized member that was still deferring keeps its buffer: the
  // cut round resolved nothing, and those commands remain pending the
  // adoption question the new round re-asks. A joiner starts fresh — its
  // buffer only ever complements a transfer, and any in-flight transfer
  // just died with the configuration.
  if (!initialized_) {
    replay_log_.clear();
    replay_valid_ = true;
  }
  adopt_replay_from_ = replay_log_.size();

  if (next.size() <= 1) {
    // Alone: nobody to reconcile with. Run live; a joiner keeps buffering
    // (its state can only arrive in some later, larger configuration).
    round_done_ = true;
    if (initialized_) {
      flush_deferred();
      recording_ = false;
    } else {
      recording_ = true;
    }
    members_ = std::move(next);
    return;
  }

  // Announce round: every member announces its basis through the ordered
  // stream and defers commands until all announces (ours included) arrive.
  // Completion is a fixed point in the total order, so every member
  // resolves the same authoritative basis against the same command prefix.
  unresolved_ = next;
  recording_ = true;
  send_announce();
  members_ = std::move(next);
}

}  // namespace accelring::rsm
