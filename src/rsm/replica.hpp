// Replicated state machines over totally ordered multicast.
//
// The canonical application the paper's introduction motivates: every
// replica applies the same totally ordered stream of commands to a
// deterministic state machine, so all replicas hold identical state. This
// module packages the pattern as a small library on top of the ordering
// engine:
//
//  * Replica::submit(command) — propose a command; it is applied at every
//    replica at the same position in the total order.
//  * StateMachine — user-implemented apply/snapshot/restore.
//  * Announce round — at every regular membership change, every member
//    posts one small ordered announce frame describing its state basis
//    (initialized flag, position, state CRC) and defers new commands until
//    all announces arrive. Ordered delivery makes the round all-or-nothing
//    across the view, so every member deterministically computes the same
//    authoritative basis: the most advanced initialized announce, ties
//    broken by lowest process id. Members whose basis matches flush their
//    deferred commands and continue; the authoritative member ships a state
//    transfer iff anyone mismatched.
//  * State transfer — the authoritative member streams its state *through
//    the ordered stream* as a bounded-size chunked transfer: its last
//    periodic checkpoint, split into chunks that each fit one datagram,
//    followed by the retained command log (a "snapshot + suffix"). A
//    restarting replica therefore applies a checkpoint plus a short suffix
//    instead of replaying its whole history, and no single ordered message
//    ever exceeds the transport's datagram bound.
//  * Log compaction — replicas checkpoint every `checkpoint_interval`
//    applied commands and truncate the retained log past the checkpoint,
//    so the state shipped on a transfer is bounded by one checkpoint plus
//    at most one interval of commands.
//  * Divergence detection — announces carry each member's state CRC at the
//    membership boundary (a point every member agrees on). A member whose
//    position equals the authoritative basis but whose CRC differs has
//    silently diverged: the audit flags it, and the ensuing transfer
//    reconciles it. Unlike comparing against live state, the boundary
//    comparison cannot race with commands ordered after the boundary.
//  * Deferred applies across the round — until the announce round
//    resolves, a member does not know whether its state will be replaced
//    (a restarted or transiently expelled replica rolled forward onto the
//    view's lineage, a merged partition adopting the most advanced side).
//    Executing new commands against a basis that may be rewritten would
//    surface wrong results, so commands are buffered during the round;
//    matching members flush the buffer unchanged, adopting members replay
//    only the commands ordered after the round completed (everything
//    earlier is inside the adopted state).
//
// Replica is transport-agnostic, like daemon::Daemon: deliveries and
// configuration changes are fed in, proposals go out through a submit
// callback, so it runs over the simulator or real UDP unchanged.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "protocol/types.hpp"

namespace accelring::storage {
class ReplicaStore;
}  // namespace accelring::storage

namespace accelring::rsm {

using protocol::ProcessId;

/// Deterministic state machine; implemented by the application. apply()
/// must depend only on current state and the command bytes.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  virtual void apply(std::span<const std::byte> command) = 0;
  [[nodiscard]] virtual std::vector<std::byte> snapshot() const = 0;
  virtual void restore(std::span<const std::byte> snapshot) = 0;
};

/// Hard ceiling on the payload of one transfer frame. The simulated fabric
/// fragments anything above the MTU and loses the whole datagram if any
/// fragment is lost, and a real UDP transport tops out near 64 KiB — so a
/// transfer chunk must always fit one datagram with room for the protocol's
/// own headers.
inline constexpr size_t kMaxTransferChunk = 56 * 1024;

struct ReplicaOptions {
  /// Target payload size of one state-transfer chunk. Clamped to
  /// kMaxTransferChunk; small chunks also survive fragmentation-prone
  /// fabrics better (one lost fragment drops a whole datagram).
  size_t max_chunk_bytes = 8 * 1024;
  /// Applied commands between periodic checkpoints (the compaction unit):
  /// the retained log never exceeds one interval, so a transfer ships one
  /// checkpoint plus at most this many suffix commands.
  uint64_t checkpoint_interval = 256;
};

struct ReplicaStats {
  uint64_t proposed = 0;
  uint64_t applied = 0;    ///< commands applied live from the stream
  uint64_t dropped_uninitialized = 0;  ///< replay-buffer overflow drops
  uint64_t snapshots_sent = 0;         ///< state transfers shipped
  uint64_t snapshots_restored = 0;     ///< transfers adopted (restore path)
  uint64_t snapshots_verified = 0;     ///< boundary CRC matched ours
  uint64_t divergence_detected = 0;    ///< boundary CRC mismatches (bug!)
  uint64_t snapshot_bytes = 0;         ///< transfer payload bytes shipped
  uint64_t chunks_sent = 0;            ///< checkpoint chunks shipped
  uint64_t checkpoints = 0;            ///< periodic checkpoints taken
  uint64_t log_truncated = 0;          ///< commands compacted away
  uint64_t suffix_replayed = 0;        ///< transfer suffix commands applied
  uint64_t replayed_buffered = 0;      ///< buffered ring commands re-applied
  uint64_t transfers_aborted = 0;      ///< incomplete at a config change
  uint64_t transfers_corrupt = 0;      ///< malformed / CRC-failed transfers
  uint64_t send_failures = 0;          ///< transfer frames shed by submit
  uint64_t restore_position = 0;       ///< base position of last restore
  uint64_t deferred_flushed = 0;       ///< deferred commands applied as-is
  uint64_t recovered_from_disk = 0;    ///< cold starts served by the store
  uint64_t recovered_commands = 0;     ///< WAL commands replayed at recovery
  uint64_t wal_append_failures = 0;    ///< commands the WAL failed to persist
};

/// Registry bindings mirroring ReplicaStats into an obs::MetricsRegistry
/// (component "rsm"). Recording is plain counter increments — no clocks, no
/// allocation — so binding never perturbs a run (the obs zero-perturbation
/// contract). All pointers null until bind().
struct RsmMetrics {
  obs::Counter* proposed = nullptr;
  obs::Counter* applied = nullptr;
  obs::Counter* snapshots_sent = nullptr;
  obs::Counter* snapshots_restored = nullptr;
  obs::Counter* snapshots_verified = nullptr;
  obs::Counter* divergence_detected = nullptr;
  obs::Counter* snapshot_bytes = nullptr;
  obs::Counter* chunks_sent = nullptr;
  obs::Counter* checkpoints = nullptr;
  obs::Counter* suffix_replayed = nullptr;

  [[nodiscard]] static RsmMetrics bind(obs::MetricsRegistry& registry);
};

class Replica {
 public:
  /// Sends one ordered message (the engine/daemon submit path).
  using SubmitFn = std::function<bool(std::vector<std::byte> payload)>;

  /// `founder` replicas start initialized with the state machine's current
  /// (usually empty) state; non-founders wait for a state transfer.
  ///
  /// With a `store`, the replica is crash-consistent: the constructor first
  /// replays the store's checkpoint + WAL (cold restart from disk — state
  /// transfer from a peer becomes the fallback, not the only path), every
  /// command is WAL-appended before it is applied, and periodic checkpoints
  /// persist through the store and truncate the WAL. The store must outlive
  /// the replica.
  Replica(ProcessId self, StateMachine& machine, SubmitFn submit,
          bool founder, ReplicaOptions options = {},
          storage::ReplicaStore* store = nullptr);

  /// Propose a command for replicated execution.
  bool submit(std::span<const std::byte> command);

  /// Feed an ordered delivery from the engine/daemon. Non-RSM payloads are
  /// ignored (the stream can be shared with other traffic).
  void on_delivery(const protocol::Delivery& delivery);

  /// Feed an EVS configuration change (transitional ones are ignored).
  void on_configuration(const protocol::ConfigurationChange& change);

  /// Mirror stats into registry counters (see RsmMetrics). Safe to call at
  /// any time; replaces any previous binding.
  void set_metrics(const RsmMetrics& metrics) { metrics_ = metrics; }

  [[nodiscard]] bool initialized() const { return initialized_; }
  /// True while this replica's state may not reflect the stream: waiting
  /// for its first transfer, or deferring applies across a possible
  /// adoption. Local fast-path reads (leases) must not serve while true.
  [[nodiscard]] bool catching_up() const {
    return !initialized_ || recording_;
  }
  /// True while this replica is reconstructing state from an adopted
  /// transfer (suffix + buffered replay). Applies fired by the state
  /// machine during this window re-execute history other replicas already
  /// exposed — observers that surface applies to clients should treat them
  /// as catch-up, not fresh events.
  [[nodiscard]] bool in_catchup_replay() const { return replaying_; }
  [[nodiscard]] const ReplicaStats& stats() const { return stats_; }
  /// Commands applied across this replica's state lineage (restores reset
  /// it to the transfer's position, so it is comparable across replicas).
  [[nodiscard]] uint64_t position() const { return position_; }
  [[nodiscard]] uint64_t checkpoint_position() const {
    return checkpoint_position_;
  }
  [[nodiscard]] size_t retained_log_size() const { return log_.size(); }
  [[nodiscard]] const ReplicaOptions& options() const { return opt_; }
  [[nodiscard]] storage::ReplicaStore* store() const { return store_; }

 private:
  /// One in-progress incoming transfer, assembled per sender (a sender's
  /// frames are FIFO within one configuration).
  struct Transfer {
    uint32_t xfer_id = 0;
    uint64_t base_position = 0;    ///< position of the checkpoint
    uint32_t state_crc = 0;        ///< CRC of the checkpoint bytes
    uint32_t chunk_count = 0;
    uint32_t suffix_count = 0;
    uint64_t total_bytes = 0;
    uint32_t boundary_crc = 0;     ///< sender state CRC at the boundary
    uint64_t boundary_position = 0;
    std::vector<std::byte> state;  ///< chunks concatenated so far
    uint32_t chunks_seen = 0;
    std::vector<std::vector<std::byte>> suffix;
    bool corrupt = false;
  };

  /// One member's state basis at the configuration boundary.
  struct Announce {
    bool initialized = false;
    uint64_t position = 0;
    uint32_t crc = 0;
  };

  void apply_command(std::span<const std::byte> command);
  /// WAL-append `command` (write-ahead: called before the state machine
  /// applies it). No-op without a store; failures latch inside the store.
  void persist_command(std::span<const std::byte> command);
  void maybe_checkpoint();
  void take_checkpoint();
  void send_transfer();
  void send_announce();
  void on_transfer_complete(ProcessId sender, Transfer& xfer);
  void adopt_transfer(ProcessId sender, Transfer& xfer);
  /// Re-apply commands buffered after the round completed on top of an
  /// adopted state (everything earlier is inside the adopted state).
  void replay_buffered();
  /// Apply buffered commands unchanged (our basis survived the round).
  void flush_deferred();
  /// All announces arrived: compute the authoritative basis, flush or wait
  /// for (and later adopt) the transfer, ship state if we are it.
  void finish_round();

  ProcessId self_;
  StateMachine& machine_;
  SubmitFn submit_;
  ReplicaOptions opt_;
  storage::ReplicaStore* store_;  ///< durable WAL+checkpoint; may be null
  bool initialized_;
  std::set<ProcessId> members_;  ///< current regular configuration

  /// Lineage position: commands applied since the lineage's empty state.
  uint64_t position_ = 0;
  /// Last periodic checkpoint (compaction point) and the retained log of
  /// commands applied after it.
  std::vector<std::byte> checkpoint_state_;
  uint64_t checkpoint_position_ = 0;
  std::deque<std::vector<std::byte>> log_;

  /// Our basis at the last regular configuration boundary — the values our
  /// announce carried (valid while initialized). A deferring replica's
  /// position_ IS its basis, since buffered commands are unapplied.
  bool audit_valid_ = false;
  uint32_t audit_crc_ = 0;
  uint64_t audit_position_ = 0;

  /// Announce-round state. Deliveries are totally ordered, so the round
  /// completes at the same point in the stream for every member, and all
  /// compute the same authoritative basis.
  std::map<ProcessId, Announce> announces_;
  std::set<ProcessId> unresolved_;  ///< members (incl. self) yet to announce
  bool round_done_ = true;
  /// Our basis lost the round: keep deferring until the authoritative
  /// member's transfer lands, then adopt it.
  bool need_transfer_ = false;
  /// Our announce was shed by backpressure; retry on the next delivery.
  bool announce_shed_ = false;

  /// Commands delivered since the round started, buffered (not applied)
  /// until the round resolves whether our state survives. Kept across a
  /// configuration change that cuts a round short (initialized members
  /// only — for a waiting joiner the next transfer covers them).
  bool recording_ = false;
  bool replay_valid_ = true;
  std::vector<std::vector<std::byte>> replay_log_;
  /// Buffer length when the round completed: an adoption replays only
  /// entries from here on (the transfer's state covers everything before).
  size_t adopt_replay_from_ = 0;
  /// Set when the replay buffer overflowed mid-round: adopting later in
  /// this configuration would lose the overflowed commands, so don't.
  bool adoption_disabled_ = false;
  /// True inside adopt_transfer's replay loops (see in_catchup_replay()).
  bool replaying_ = false;

  std::map<ProcessId, Transfer> xfers_;
  uint32_t next_xfer_id_ = 1;

  ReplicaStats stats_;
  RsmMetrics metrics_;
};

}  // namespace accelring::rsm
