#include "membership/membership.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace accelring::membership {

namespace {
constexpr const char* kTag = "membership";

std::vector<ProcessId> sorted(const std::set<ProcessId>& s) {
  return {s.begin(), s.end()};
}

}  // namespace

void Membership::adopt_ring(const RingConfig& ring) {
  old_ring_ = ring;
  note_epoch(ring_epoch(ring.ring_id));
}

void Membership::note_epoch(uint64_t epoch) {
  if (epoch <= max_epoch_seen_) return;
  max_epoch_seen_ = epoch;
  if (epoch_store_ != nullptr) epoch_store_->store(epoch);
}

void Membership::start_discovery() {
  old_ring_.ring_id = make_ring_id(0, engine_.self_);
  old_ring_.members = {engine_.self_};
  enter_gather();
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

void Membership::enter_gather(bool keep_candidates) {
  ++gathers_started_;
  if (engine_.state_ == State::kRecover) {
    // Abort the in-progress recovery: content already learned lives in
    // old_buffer_, so nothing is lost; the next attempt re-sends it.
    stale_rings_.insert(engine_.ring_.ring_id);
    engine_.recovery_queue_.clear();
    eor_received_.clear();
  } else if (engine_.state_ == State::kOperational) {
    // The engine buffer stays live during gather so late old-ring traffic is
    // still absorbed; the snapshot happens on entering recovery.
    old_ring_ = engine_.ring_;
    old_safe_line_ = engine_.safe_line_;
  }
  engine_.set_state(State::kGather);
  engine_.host_.cancel_timer(protocol::kTimerTokenRetransmit);
  engine_.host_.cancel_timer(protocol::kTimerTokenLoss);

  // A re-gather caused by new membership information arriving mid-commit
  // keeps the candidate set: those processes agreed with us milliseconds
  // ago, our join must keep advertising them or every reopened node starts
  // from {self} and the mutually-"different" joins cascade into a reopen
  // storm. Silent candidates are pruned by the consensus timeout. All other
  // causes (boot, token loss, foreign traffic while operational) assume
  // nothing about liveness and restart from scratch.
  if (!keep_candidates) {
    candidates_ = {engine_.self_};
    fail_set_.clear();
  }
  joins_.clear();
  last_commit_id_ = 0;
  engine_.trace(util::TraceEvent::kGatherEnter,
                static_cast<int64_t>(candidates_.size()),
                static_cast<int64_t>(gathers_started_));
  send_join();
  engine_.host_.set_timer(protocol::kTimerJoin, engine_.cfg_.timeouts.join);
  engine_.host_.set_timer(protocol::kTimerConsensus,
                          engine_.cfg_.timeouts.consensus);
  ACCELRING_LOG_INFO(kTag, "p%u: entering gather (#%llu)",
                     unsigned{engine_.self_},
                     static_cast<unsigned long long>(gathers_started_));
}

void Membership::send_join() {
  JoinMsg join;
  join.sender = engine_.self_;
  join.old_ring_id = old_ring_.ring_id;
  join.proc_set = sorted(candidates_);
  join.fail_set = sorted(fail_set_);
  join.quarantine_set = quarantine_.export_set();
  joins_[engine_.self_] = join;  // we trivially "received" our own join
  engine_.host_.multicast(protocol::kSockData, encode(join));
}

void Membership::on_join(const JoinMsg& join) {
  if (engine_.state_ == State::kIdle) return;
  if (join.sender == engine_.self_) return;
  if (quarantine_.state(join.sender) != QuarantineState::kHealthy) {
    // A quarantined member's Join is a probe: evidence it is alive and
    // still wants in. Count it toward the quarantine/probation clock but
    // stay deaf until the lifecycle lets it through.
    bool entered_probation = false;
    const bool still_blocked =
        quarantine_.filter_probe(join.sender, entered_probation);
    if (entered_probation) {
      engine_.trace(util::TraceEvent::kProbation, join.sender);
      ACCELRING_LOG_INFO(kTag, "p%u: p%u entered probation",
                         unsigned{engine_.self_}, unsigned{join.sender});
    }
    if (still_blocked) return;
    // Probation served: fall through and treat this as a normal Join.
  }
  if (join.fail_set.end() !=
      std::find(join.fail_set.begin(), join.fail_set.end(), engine_.self_)) {
    // Someone considers us failed; let them proceed without us. We will
    // merge with their new ring later via foreign-message detection.
    return;
  }
  for (const auto& q : join.quarantine_set) {
    if (q.first == engine_.self_) {
      // The fleet quarantined *us*. Same posture as being in a fail set:
      // let them proceed; our own Joins are the probes that will earn
      // re-admission.
      return;
    }
  }
  if (engine_.state_ == State::kCommit || engine_.state_ == State::kRecover) {
    // Membership is already agreed and being installed: defer. Most such
    // joins are straggler retransmissions from the gather that produced the
    // agreement; aborting on them restarts the cycle every time and the
    // reformation never converges. A genuinely new process keeps
    // retransmitting its Join until we are operational again and respond,
    // and if the sender is a member that left our in-progress ring, the
    // stalled token rescues us via the token-loss timeout (which is shorter
    // than the sender's consensus timeout, so nobody is pruned meanwhile).
    return;
  }
  if (engine_.state_ != State::kGather) {
    // A Join reopens membership: someone wants a configuration that differs
    // from ours (new process, recovered process, healed partition).
    enter_gather();
  }

  note_epoch(ring_epoch(join.old_ring_id));
  bool changed = false;
  // Adopt the sender's quarantine verdicts (the stricter view wins) so a
  // member that missed the eviction cannot re-admit the victim for everyone.
  for (const auto& [qpid, qhold] : join.quarantine_set) {
    if (quarantine_.adopt(qpid, qhold)) {
      engine_.trace(util::TraceEvent::kQuarantine, qpid, qhold);
      if (candidates_.erase(qpid) > 0) changed = true;
    }
  }
  if (fail_set_.erase(join.sender) > 0) changed = true;  // alive after all
  if (candidates_.insert(join.sender).second) changed = true;
  for (ProcessId p : join.proc_set) {
    if (fail_set_.contains(p)) continue;
    if (quarantine_.blocked(p)) {
      // The sender advertises a member we hold in quarantine. Once our own
      // verdict has aged into probation, a peer that no longer blocks the
      // member is evidence the fleet released it — release too rather than
      // deadlock the gather on probe-count drift. A fresh quarantine is
      // never overridden this way.
      const bool sender_blocks =
          std::any_of(join.quarantine_set.begin(), join.quarantine_set.end(),
                      [p](const auto& q) { return q.first == p; });
      if (sender_blocks ||
          quarantine_.state(p) != QuarantineState::kProbation) {
        continue;  // keep it excluded
      }
      quarantine_.release(p);
    }
    if (candidates_.insert(p).second) changed = true;
  }
  for (ProcessId p : join.fail_set) {
    // Adopt failure verdicts from processes we want to form a ring with.
    if (p == engine_.self_) continue;
    if (fail_set_.insert(p).second) {
      candidates_.erase(p);
      changed = true;
    }
  }
  joins_[join.sender] = join;
  if (changed) send_join();
  check_consensus();
}

bool Membership::join_matches(ProcessId pid) const {
  const auto it = joins_.find(pid);
  if (it == joins_.end()) return false;
  const JoinMsg& join = it->second;
  return join.proc_set == sorted(candidates_) &&
         join.fail_set == sorted(fail_set_);
}

void Membership::check_consensus() {
  if (engine_.state_ != State::kGather) return;
  for (ProcessId p : candidates_) {
    if (!join_matches(p)) return;
  }
  // Consensus: every candidate agrees on (proc_set, fail_set).
  engine_.set_state(State::kCommit);
  engine_.host_.cancel_timer(protocol::kTimerJoin);
  engine_.host_.set_timer(protocol::kTimerConsensus,
                          engine_.cfg_.timeouts.consensus);
  ACCELRING_LOG_INFO(kTag, "p%u: consensus on %zu members",
                     unsigned{engine_.self_}, candidates_.size());
  if (*candidates_.begin() == engine_.self_) start_commit();
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

void Membership::start_commit() {
  commit_ = CommitTokenMsg{};
  commit_.new_ring_id = make_ring_id(max_epoch_seen_ + 1, engine_.self_);
  // The proposed epoch is now spoken for: if this attempt dies and we gather
  // again, the next proposal must use a fresh ring id. Persisted before the
  // commit token circulates, so the claim survives our own crash.
  note_epoch(ring_epoch(commit_.new_ring_id));
  commit_.token_id = 1;
  commit_.rotation = 0;
  for (ProcessId p : candidates_) {
    CommitEntry entry;
    entry.pid = p;
    commit_.members.push_back(entry);
  }
  fill_my_entry(commit_);
  last_commit_id_ = commit_.token_id;
  pass_commit(commit_);
}

void Membership::fill_my_entry(CommitTokenMsg& commit) {
  for (CommitEntry& entry : commit.members) {
    if (entry.pid != engine_.self_) continue;
    entry.old_ring_id = old_ring_.ring_id;
    entry.old_aru = old_source().local_aru();
    entry.old_high_seq = old_source().high_seq();
    entry.old_safe_line =
        have_snapshot_ ? old_safe_line_ : engine_.safe_line_;
    entry.filled = true;
    return;
  }
  assert(false && "self not in commit token");
}

protocol::RecvBuffer& Membership::old_source() {
  return have_snapshot_ ? old_buffer_ : engine_.buffer_;
}

void Membership::pass_commit(CommitTokenMsg commit) {
  // Successor in the proposed ring order (sorted pids), wrapping around.
  const auto& members = commit.members;
  size_t my_pos = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i].pid == engine_.self_) my_pos = i;
  }
  const ProcessId next = members[(my_pos + 1) % members.size()].pid;
  ++commit.token_id;
  engine_.host_.unicast(next, protocol::kSockToken, encode(commit));
}

void Membership::on_commit(const CommitTokenMsg& commit) {
  if (engine_.state_ != State::kGather && engine_.state_ != State::kCommit &&
      engine_.state_ != State::kRecover) {
    return;  // stale
  }
  std::set<ProcessId> pids;
  for (const CommitEntry& e : commit.members) pids.insert(e.pid);
  if (!pids.contains(engine_.self_)) return;
  if (commit.token_id <= last_commit_id_) return;  // duplicate
  if (stale_rings_.contains(commit.new_ring_id)) {
    // A commit token for an incarnation we already aborted (we re-entered
    // gather from its recovery). Accepting it again would wipe ordering
    // state while that ring's original token may still circulate.
    return;
  }
  // Learn the epoch even if we end up rejecting this proposal below, so the
  // next proposal we create cannot reuse a ring id that is already live.
  note_epoch(ring_epoch(commit.new_ring_id));

  if (pids != candidates_) {
    // The proposed membership no longer matches what we agreed to.
    enter_gather(/*keep_candidates=*/true);
    return;
  }
  last_commit_id_ = commit.token_id;

  if (commit.rotation == 0) {
    const bool i_created = commit.members.front().pid == engine_.self_ &&
                           commit.new_ring_id ==
                               make_ring_id(ring_epoch(commit.new_ring_id),
                                            engine_.self_);
    CommitTokenMsg next = commit;
    bool mine_filled = false;
    bool all_filled = true;
    for (const CommitEntry& e : next.members) {
      if (e.pid == engine_.self_) mine_filled = e.filled;
      all_filled = all_filled && e.filled;
    }
    if (i_created && mine_filled) {
      // First rotation complete: distribute the full table.
      if (!all_filled) {
        enter_gather();  // should not happen; be safe
        return;
      }
      next.rotation = 1;
      commit_ = next;
      enter_recover(next);
      pass_commit(next);
      // The representative originates the first ordering token of the new
      // ring. Commit token and ordering token travel the same socket, so
      // FIFO delivery means every member sees the commit token first.
      engine_.originate_token();
      return;
    }
    if (mine_filled) return;  // rotation-0 duplicate
    fill_my_entry(next);
    commit_ = next;
    engine_.set_state(State::kCommit);
    engine_.host_.cancel_timer(protocol::kTimerJoin);
    engine_.host_.set_timer(protocol::kTimerConsensus,
                            engine_.cfg_.timeouts.consensus);
    pass_commit(next);
    return;
  }

  // rotation == 1: the completed table.
  if (engine_.state_ == State::kRecover) return;  // already recovering
  commit_ = commit;
  enter_recover(commit);
  pass_commit(commit);
}

// ---------------------------------------------------------------------------
// Recover
// ---------------------------------------------------------------------------

void Membership::enter_recover(const CommitTokenMsg& commit) {
  commit_table_ = commit.members;
  // Every member's previous ring is subsumed by this merge: straggler
  // traffic from any of them (data retransmissions, in-flight tokens from
  // the other side of a healed partition) must not abort the recovery.
  for (const CommitEntry& e : commit.members) {
    stale_rings_.insert(e.old_ring_id);
  }

  if (!have_snapshot_) {
    old_buffer_ = std::move(engine_.buffer_);
    have_snapshot_ = true;
    old_safe_line_ = engine_.safe_line_;
  }
  stale_rings_.insert(old_ring_.ring_id);

  RingConfig new_ring;
  new_ring.ring_id = commit.new_ring_id;
  for (const CommitEntry& e : commit.members) {
    new_ring.members.push_back(e.pid);
  }
  engine_.ring_ = new_ring;
  engine_.my_index_ = new_ring.index_of(engine_.self_);
  engine_.reset_ordering_state();
  engine_.set_state(State::kRecover);
  engine_.host_.cancel_timer(protocol::kTimerJoin);
  engine_.host_.cancel_timer(protocol::kTimerConsensus);
  engine_.host_.set_timer(protocol::kTimerTokenLoss,
                          engine_.timers_.token_loss());
  eor_received_.clear();

  // Build the recovery send queue: every undiscarded old-ring message above
  // the minimum aru of my old ring's surviving members, then one Safe
  // end-of-recovery marker.
  engine_.recovery_queue_.clear();
  SeqNum min_aru = std::numeric_limits<SeqNum>::max();
  for (const CommitEntry& e : commit_table_) {
    if (e.old_ring_id == old_ring_.ring_id) {
      min_aru = std::min(min_aru, e.old_aru);
    }
  }
  if (min_aru == std::numeric_limits<SeqNum>::max()) min_aru = 0;
  size_t recovery_msgs = 0;
  for (SeqNum seq = min_aru + 1; seq <= old_buffer_.high_seq(); ++seq) {
    if (const DataMsg* msg = old_buffer_.find(seq)) {
      protocol::Engine::PendingMsg pm;
      pm.service = protocol::Service::kAgreed;
      pm.payload = encode(*msg);
      pm.recovered = true;
      engine_.recovery_queue_.push_back(std::move(pm));
      ++recovery_msgs;
    }
  }
  protocol::Engine::PendingMsg eor;
  eor.service = protocol::Service::kSafe;
  eor.recovered = true;
  engine_.recovery_queue_.push_back(std::move(eor));

  ACCELRING_LOG_INFO(
      kTag, "p%u: recovering on ring %llx (%zu members, %zu msgs to recover)",
      unsigned{engine_.self_},
      static_cast<unsigned long long>(commit.new_ring_id),
      commit.members.size(), recovery_msgs);
}

void Membership::on_recovered_delivery(const DataMsg& msg) {
  if (engine_.state_ != State::kRecover) return;
  if (msg.payload.empty()) {
    eor_received_.insert(msg.pid);
    if (eor_received_.size() == engine_.ring_.size()) finalize_recovery();
    return;
  }
  auto inner = protocol::decode_data(msg.payload);
  if (!inner) return;
  if (inner->ring_id == old_ring_.ring_id) {
    old_buffer_.insert(std::move(*inner));
  }
}

void Membership::finalize_recovery() {
  // Phase 1: messages still deliverable under the old configuration's rules.
  // The Safe bound must be identical at every member or the same message
  // would land on different sides of the transitional configuration at
  // different members: use the MAX of the present old-ring members' safe
  // lines from the commit table — any single member's line proves receipt
  // by every old-ring member, including crashed ones.
  SeqNum shared_safe_line = 0;
  for (const CommitEntry& e : commit_table_) {
    if (e.old_ring_id == old_ring_.ring_id) {
      shared_safe_line = std::max(shared_safe_line, e.old_safe_line);
    }
  }
  // Old-ring messages go through the engine's emit, so packed ones are
  // unpacked like any delivery; deliver_one is bypassed because origin-stamp
  // latencies belong to the old ring's sequence space.
  while (const DataMsg* next =
             old_buffer_.next_deliverable(shared_safe_line)) {
    const DataMsg msg = *next;
    old_buffer_.mark_delivered();
    engine_.emit(msg);
  }

  // Transitional configuration: members of the new ring that came with us
  // from the old ring (EVS §II).
  RingConfig transitional;
  transitional.ring_id = engine_.ring_.ring_id;
  for (ProcessId p : old_ring_.members) {
    if (engine_.ring_.index_of(p) >= 0) transitional.members.push_back(p);
  }
  engine_.trace(util::TraceEvent::kViewChange,
                static_cast<int64_t>(transitional.ring_id & 0xFFFFFFFF),
                -static_cast<int64_t>(transitional.members.size()));
  engine_.host_.on_configuration(
      protocol::ConfigurationChange{transitional, /*transitional=*/true});

  // Phase 2: everything else that survived, in sequence order, skipping
  // holes that no surviving member could fill.
  for (SeqNum seq = old_buffer_.delivered_up_to() + 1;
       seq <= old_buffer_.high_seq(); ++seq) {
    if (const DataMsg* msg = old_buffer_.find(seq)) engine_.emit(*msg);
  }

  // New regular configuration; resume normal operation on the (already
  // running) new ring.
  old_ring_ = engine_.ring_;
  old_buffer_ = protocol::RecvBuffer{};
  have_snapshot_ = false;
  old_safe_line_ = 0;
  commit_table_.clear();
  eor_received_.clear();
  engine_.set_state(State::kOperational);
  ++engine_.stats_.memberships;
  for (ProcessId p : engine_.ring_.members) {
    if (quarantine_.note_installed(p)) {
      // Count the re-admission once ring-wide, on the lowest-pid peer —
      // mirroring the acting-member rule for the eviction itself, so one
      // quarantine lifecycle reads 1 quarantine / 1 readmit in the stats.
      ProcessId acting = protocol::kNoProcess;
      for (ProcessId m : engine_.ring_.members) {
        if (m != p) {
          acting = m;
          break;
        }
      }
      if (engine_.self_ == acting) ++engine_.stats_.readmits;
      engine_.trace(util::TraceEvent::kReadmit, p);
      ACCELRING_LOG_INFO(kTag, "p%u: re-admitted p%u after probation",
                         unsigned{engine_.self_}, unsigned{p});
    }
  }
  engine_.trace(util::TraceEvent::kViewChange,
                static_cast<int64_t>(engine_.ring_.ring_id & 0xFFFFFFFF),
                static_cast<int64_t>(engine_.ring_.size()));
  engine_.host_.on_configuration(
      protocol::ConfigurationChange{engine_.ring_, /*transitional=*/false});
  ACCELRING_LOG_INFO(kTag, "p%u: installed ring %llx with %zu members",
                     unsigned{engine_.self_},
                     static_cast<unsigned long long>(engine_.ring_.ring_id),
                     engine_.ring_.size());
}

// ---------------------------------------------------------------------------
// Triggers and timers
// ---------------------------------------------------------------------------

void Membership::on_foreign(ProcessId sender, RingId ring_id) {
  if (engine_.state_ == State::kIdle) return;
  if (ring_id == engine_.ring_.ring_id) return;
  if (stale_rings_.contains(ring_id)) return;
  if (sender != protocol::kNoProcess && quarantine_.blocked(sender)) {
    // The quarantined member runs on in its own singleton ring; its data
    // traffic must not tear the healthy ring down every few milliseconds.
    return;
  }
  note_epoch(ring_epoch(ring_id));
  if (engine_.state_ != State::kOperational) {
    // Already reforming membership. Our joins are multicast, so any live
    // foreign ring will be drawn into the gather; reacting here would let
    // straggler traffic from an aborted incarnation cancel the attempt in
    // progress and the next one, in a cycle that never converges.
    return;
  }
  ACCELRING_LOG_INFO(kTag, "p%u: foreign ring %llx detected",
                     unsigned{engine_.self_},
                     static_cast<unsigned long long>(ring_id));
  enter_gather();
}

void Membership::on_token_loss() { enter_gather(); }

void Membership::quarantine_evict(ProcessId victim) {
  if (engine_.state_ != State::kOperational) return;
  if (engine_.ring_.index_of(victim) < 0 || victim == engine_.self_) return;
  const uint32_t hold = quarantine_.quarantine(victim);
  ++engine_.stats_.quarantines;
  engine_.trace(util::TraceEvent::kQuarantine, victim,
                static_cast<int64_t>(hold));
  ACCELRING_LOG_INFO(
      kTag, "p%u: quarantining gray member p%u (hold %u probes)",
      unsigned{engine_.self_}, unsigned{victim}, unsigned{hold});
  // A deliberate membership change: everyone but the victim, victim in the
  // fail set. keep_candidates preserves exactly this proposal, so the
  // resulting gather converges on "the old ring minus the gray member"
  // instead of rediscovering the world from scratch.
  candidates_.clear();
  for (ProcessId p : engine_.ring_.members) {
    if (p != victim) candidates_.insert(p);
  }
  fail_set_.clear();
  fail_set_.insert(victim);
  enter_gather(/*keep_candidates=*/true);
}

void Membership::on_timer(protocol::TimerKind kind) {
  switch (kind) {
    case protocol::kTimerJoin:
      if (engine_.state_ == State::kGather) {
        send_join();
        check_consensus();
        if (engine_.state_ == State::kGather) {
          engine_.host_.set_timer(protocol::kTimerJoin,
                                  engine_.cfg_.timeouts.join);
        }
      }
      break;
    case protocol::kTimerConsensus:
      if (engine_.state_ == State::kGather) {
        // Move silent candidates to the fail set and retry.
        bool changed = false;
        for (auto it = candidates_.begin(); it != candidates_.end();) {
          if (*it != engine_.self_ && !joins_.contains(*it)) {
            fail_set_.insert(*it);
            it = candidates_.erase(it);
            changed = true;
          } else {
            ++it;
          }
        }
        if (changed) send_join();
        check_consensus();
        if (engine_.state_ == State::kGather) {
          engine_.host_.set_timer(protocol::kTimerConsensus,
                                  engine_.cfg_.timeouts.consensus);
        }
      } else if (engine_.state_ == State::kCommit) {
        enter_gather();  // commit token lost or a member died
      }
      break;
    default:
      break;
  }
}

}  // namespace accelring::membership
