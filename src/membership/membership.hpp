// Membership and recovery (the Totem/Spread membership algorithm, §II).
//
// The ordering protocol (protocol::Engine) handles the normal case; this
// class handles everything else: token loss, process crashes and joins,
// network partitions and merges. It implements the gather / commit / recover
// state machine of the Totem single-ring membership algorithm as used by
// Spread, and delivers Extended Virtual Synchrony configuration changes:
//
//  * GATHER  — multicast Join messages carrying (proc_set, fail_set); reach
//    consensus when every process in my proc_set sent a Join with identical
//    sets. Silent candidates are moved to the fail_set on a timeout.
//  * COMMIT  — the representative (smallest pid) circulates a commit token
//    around the proposed ring; the first rotation collects each member's
//    old-ring state (ring id, aru, high seq), the second distributes the
//    completed table and moves everyone to recovery.
//  * RECOVER — the new ring runs the ordering protocol, but participants
//    multicast only *recovered* messages: their undelivered old-ring
//    messages above the old ring's minimum aru, encapsulated in new-ring
//    messages, followed by one Safe end-of-recovery marker each. When every
//    member's marker has been Safe-delivered, each participant knows (a) the
//    union of surviving old-ring messages and (b) that every new-ring member
//    has received all of them. It then delivers, in order: old-ring messages
//    still deliverable under the old configuration's rules, the transitional
//    configuration, the remaining recovered messages, and the new regular
//    configuration.
//
// Simplifications relative to Totem (documented in DESIGN.md): every member
// retransmits its full recovery set rather than coordinating who sends what
// (correct, redundant), and old-ring messages that no surviving member holds
// are skipped as holes after the transitional configuration.
#pragma once

#include <map>
#include <set>

#include "membership/quarantine.hpp"
#include "protocol/engine.hpp"
#include "protocol/recv_buffer.hpp"
#include "protocol/wire.hpp"
#include "storage/epoch_store.hpp"

namespace accelring::membership {

using protocol::CommitEntry;
using protocol::CommitTokenMsg;
using protocol::DataMsg;
using protocol::JoinMsg;
using protocol::Nanos;
using protocol::ProcessId;
using protocol::RingConfig;
using protocol::RingId;
using protocol::SeqNum;

/// Ring identifiers encode (epoch, creator) so concurrently formed rings
/// never collide and epochs grow monotonically along any merge lineage.
[[nodiscard]] constexpr RingId make_ring_id(uint64_t epoch,
                                            ProcessId creator) {
  return (epoch << 16) | creator;
}
[[nodiscard]] constexpr uint64_t ring_epoch(RingId id) { return id >> 16; }
// The epoch store refuses to load an epoch whose successor would not
// survive this encoding.
static_assert(ring_epoch(make_ring_id(storage::EpochStore::kMaxEpoch + 1,
                                      0xffff)) ==
              storage::EpochStore::kMaxEpoch + 1);

class Membership {
 public:
  explicit Membership(protocol::Engine& engine) : engine_(engine) {}

  /// Static membership (benchmarks): remember `ring` as the installed
  /// configuration without running the algorithm.
  void adopt_ring(const RingConfig& ring);

  /// Dynamic start: form a singleton ring via gather, merging with any
  /// processes whose Joins we hear.
  void start_discovery();

  /// Attach durable epoch storage (nullptr detaches). The stored high-water
  /// epoch becomes the floor for every ring id this process creates, so a
  /// cold-restarted daemon can never reuse a ring id from a previous
  /// incarnation. Attach before start_discovery()/start_with_ring().
  void set_epoch_store(storage::EpochStore* store) {
    epoch_store_ = store;
    if (store != nullptr) note_epoch(store->load());
  }

  // --- events routed from the engine ---------------------------------------
  void on_join(const JoinMsg& join);
  void on_commit(const CommitTokenMsg& commit);
  /// A data or token message from an unknown ring was received.
  void on_foreign(ProcessId sender, RingId ring_id);
  void on_token_loss();
  void on_timer(protocol::TimerKind kind);
  /// The engine delivered a recovered-flagged message on the new ring.
  void on_recovered_delivery(const DataMsg& msg);

  /// Gray-failure eviction: a deliberate membership change that removes
  /// `victim` from the ring and places it in quarantine. Distinct from
  /// timeout ejection — the victim is alive, its Joins will be held off
  /// until the quarantine/probation lifecycle completes (see
  /// QuarantineManager). Traced as kQuarantine, not a token-loss gather.
  void quarantine_evict(ProcessId victim);

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] const std::set<ProcessId>& candidates() const {
    return candidates_;
  }
  [[nodiscard]] const std::set<ProcessId>& fail_set() const {
    return fail_set_;
  }
  [[nodiscard]] const QuarantineManager& quarantine() const {
    return quarantine_;
  }
  [[nodiscard]] QuarantineManager& quarantine() { return quarantine_; }

 private:
  using State = protocol::Engine::State;

  void enter_gather(bool keep_candidates = false);
  /// Raise max_epoch_seen_ to at least `epoch` and persist the new
  /// high-water mark if an epoch store is attached.
  void note_epoch(uint64_t epoch);
  void send_join();
  void check_consensus();
  /// True when `pid`'s latest Join matches my candidate and fail sets.
  [[nodiscard]] bool join_matches(ProcessId pid) const;
  void start_commit();
  void fill_my_entry(CommitTokenMsg& commit);
  void pass_commit(CommitTokenMsg commit);
  void enter_recover(const CommitTokenMsg& commit);
  void finalize_recovery();
  /// The receive buffer holding my old ring's messages (live engine buffer
  /// until the recovery snapshot is taken, the snapshot afterwards).
  [[nodiscard]] protocol::RecvBuffer& old_source();

  protocol::Engine& engine_;

  RingConfig old_ring_;        ///< last installed regular configuration
  protocol::RecvBuffer old_buffer_;  ///< snapshot taken at first recovery
  bool have_snapshot_ = false;
  SeqNum old_safe_line_ = 0;

  std::set<ProcessId> candidates_;
  std::set<ProcessId> fail_set_;
  std::map<ProcessId, JoinMsg> joins_;
  uint64_t max_epoch_seen_ = 0;
  storage::EpochStore* epoch_store_ = nullptr;

  CommitTokenMsg commit_;      ///< in-progress commit token view
  uint64_t last_commit_id_ = 0;
  std::vector<CommitEntry> commit_table_;

  std::set<ProcessId> eor_received_;
  std::set<RingId> stale_rings_;
  QuarantineManager quarantine_;

  uint64_t gathers_started_ = 0;
};

}  // namespace accelring::membership
