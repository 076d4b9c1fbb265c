// Per-node client frontend: routes ops to shards, serves lease reads
// locally, and resolves ordered ops at the local apply.
//
// Sessions speak the FailoverClient session protocol: every mutation is
// framed [uuid][seq][op] with a per-session sequence number, and a retry
// resubmits the identical frame — the replicated state machine's per-session
// floor turns at-least-once submission into exactly-once effect, and the
// cached result makes the retried op return its original answer. The
// frontend keeps one in-flight op per session (the session protocol's
// ordering unit) and acks it when the local replica applies it.
//
// Reads take the lease fast path when this node holds the shard's lease:
// they execute against local state immediately, no ordered round trip. A
// session's `min_version` (the shard version of its last acked write) gates
// the fast path so read-your-writes holds even around lease handovers; any
// read that cannot be served locally is submitted through the total order
// and executes at its position like everything else.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kv/command.hpp"
#include "kv/lease.hpp"
#include "kv/state_machine.hpp"
#include "multiring/shard_map.hpp"
#include "rsm/replica.hpp"

namespace accelring::kv {

class Frontend {
 public:
  /// Submit a session-framed command to a shard's ordered stream (through
  /// the shard's replica). False = shed by backpressure (retry later).
  using SubmitFn =
      std::function<bool(int shard, std::vector<std::byte> frame)>;
  using NowFn = std::function<Nanos()>;

  struct Outcome {
    uint64_t uuid = 0;
    uint64_t seq = 0;
    OpType type = OpType::kGet;
    int shard = 0;
    std::string key;
    KvResult result;
    uint64_t version = 0;      ///< shard version the result reflects
    bool lease_served = false;
    bool duplicate = false;    ///< resolved via the session result cache
    LeaseId lease;             ///< serving lease (lease_served only)
    Nanos issued_at = 0;
    Nanos done_at = 0;
    uint32_t retries = 0;
  };
  using CompleteFn = std::function<void(const Outcome&)>;

  struct Stats {
    uint64_t issued = 0;
    uint64_t lease_reads = 0;    ///< served locally under the lease
    uint64_t ordered_reads = 0;  ///< reads pushed through the total order
    uint64_t mutations = 0;
    uint64_t resolved = 0;
    uint64_t duplicate_acks = 0; ///< resolutions via the result cache
    uint64_t orphan_applies = 0; ///< applies with no pending op (give-ups)
    uint64_t retries = 0;
    uint64_t cancelled = 0;
    uint64_t submit_shed = 0;    ///< submits rejected by backpressure
  };

  Frontend(ProcessId self, int shards, LeaseConfig lease, SubmitFn submit,
           NowFn now);

  /// Wire (or re-wire after a restart) the local replica state of a shard.
  /// The replica gates the lease fast path: while it is catching up
  /// (awaiting a transfer, or deferring applies across a possible state
  /// adoption) local state may not reflect the stream, so reads fall back
  /// to the total order even if the lease clock says we hold it.
  void attach_shard(int shard, const KvStateMachine* machine,
                    const LeaseTable* lease, const rsm::Replica* replica);

  /// Shard owning a key (the hash shard map; identical at every node).
  [[nodiscard]] int shard_of(const std::string& key) const {
    return map_.ring_of(key);
  }

  /// Issue one op for a session. `min_version` is the session's read floor
  /// for the key's shard (0 = none). `done` fires exactly once, possibly
  /// synchronously (lease reads). False = the session already has an op in
  /// flight.
  bool issue(uint64_t uuid, uint64_t seq, const KvOp& op,
             uint64_t min_version, CompleteFn done);

  /// Resubmit the in-flight frame (timeout or reconnect churn): the dedup
  /// floor makes the duplicate harmless. False = nothing in flight.
  bool retry(uint64_t uuid);
  /// Abandon the in-flight op without resolution (session give-up).
  bool cancel(uint64_t uuid);
  [[nodiscard]] bool in_flight(uint64_t uuid) const {
    return pending_.contains(uuid);
  }

  /// Local replica applied a command (wired by the service).
  void on_applied(int shard, const AppliedOp& applied);

  /// Observer invoked on every outcome after the per-op callback (oracle).
  void set_on_outcome(CompleteFn fn) { observer_ = std::move(fn); }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] size_t pending() const { return pending_.size(); }

 private:
  struct Pending {
    uint64_t seq = 0;
    int shard = 0;
    OpType type = OpType::kGet;
    std::string key;
    std::vector<std::byte> frame;
    Nanos issued_at = 0;
    uint32_t retries = 0;
    CompleteFn done;
  };

  void emit(const Outcome& outcome, const CompleteFn& done);

  ProcessId self_;
  multiring::ShardMap map_;
  LeaseConfig lease_cfg_;
  SubmitFn submit_;
  NowFn now_;
  std::vector<const KvStateMachine*> machines_;  ///< per shard
  std::vector<const LeaseTable*> leases_;        ///< per shard
  std::vector<const rsm::Replica*> replicas_;    ///< per shard
  std::map<uint64_t, Pending> pending_;          ///< by session uuid
  CompleteFn observer_;
  Stats stats_;
};

}  // namespace accelring::kv
