// KV service safety oracle.
//
// Attaches to a running kv::KvService and checks the service-level
// correctness properties on the applied-command, lease-grant, and
// client-outcome streams as they happen (the protocol-level EVS properties
// stay with ClusterOracle; this layer checks what the KV stack builds on
// top of them):
//
//  * Replica agreement — every (shard, version) is produced by exactly one
//    logical mutation: the first node to apply it fixes (key, value CRC,
//    present), and every other node's apply of that version must match.
//    Catches state-machine divergence end to end, including through chunked
//    state transfer and suffix replay.
//  * Version monotonicity — a node's applied version per shard never goes
//    backwards, and an effective mutation advances it by exactly one.
//  * Read correctness — every GET outcome (ordered or lease-served) must
//    return exactly the value the per-key mutation history prescribes at
//    the outcome's version. The observing node applied every version up to
//    the read's version before serving it, and the oracle records applies
//    before outcomes resolve, so the history is always complete enough to
//    judge the read. (SCANs are exercised but not content-checked.)
//  * Session guarantees — per session and shard: reads never return a
//    version below the session's last acked write (read-your-writes), and
//    read versions never regress (monotonic reads).
//  * Routing continuity — a key is served by one shard for the whole run
//    (the shard map is static); a key seen on two shards means some node
//    routed with a different map.
//  * Lease exclusivity, the "zero stale lease reads" property — grants are
//    totally ordered per shard; once any read has been served under grant
//    g, no read may ever be served under an earlier grant. A deposed or
//    expired leaseholder sneaking in a late local read trips this.
//
// The oracle requires preload_keys == 0 (preloaded values bump versions
// without emitting apply events, which would leave holes in the history).
// Like the protocol oracles it never throws; violations accumulate and the
// campaign attaches seed + schedule.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "kv/service.hpp"

namespace accelring::check {

class KvOracle {
 public:
  KvOracle() = default;

  /// Subscribe to the service's applied / lease-grant / outcome observers
  /// (claims all three slots). The oracle must outlive the run.
  void attach(kv::KvService& service);

  /// Like attach(), but without claiming the observer slots: sizes and the
  /// catch-up-replay waiver come from the service, events arrive through
  /// the direct feeds. The durable campaign path uses this to fan one set
  /// of service observers out to several oracles.
  void bind(kv::KvService& service);

  // Direct feeds (used by attach() and by tests replaying histories).
  void on_applied(int node, int shard, const kv::AppliedOp& applied,
                  Nanos at);
  void on_lease_grant(int node, int shard, const kv::LeaseId& id, Nanos at);
  void on_outcome(int node, const kv::Frontend::Outcome& outcome);

  /// `node` was cold-restarted: its replicas' versions restart from a state
  /// transfer, so its per-node monotonicity floors reset.
  void note_restart(int node);

  /// Cluster-wide recovery rolled `shard`'s authoritative history back to
  /// `version` (the highest durable position across the recovered nodes).
  /// Mutations above it are gone from the revived lineage and their version
  /// numbers will be re-minted by new writes, so the oracle erases the lost
  /// suffix and clamps session floors to the surviving history. Whether the
  /// lost suffix was *allowed* to be lost is the DurabilityOracle's check,
  /// not this one's.
  void note_lineage_rollback(int shard, uint64_t version);

  void finalize() { finalized_ = true; }

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::string report() const;
  /// Events observed (applies + grants + outcomes), for test sanity.
  [[nodiscard]] uint64_t observed() const { return observed_; }
  [[nodiscard]] uint64_t lease_serves() const { return lease_serves_; }

 private:
  /// The agreed effect of one (shard, version): fixed by its first apply.
  struct MutRec {
    std::string key;
    uint32_t value_crc = 0;
    bool present = false;  ///< false = the mutation deleted the key
  };
  struct KeyState {
    uint32_t value_crc = 0;
    bool present = false;
  };

  void fail(std::string what);

  int shards_ = 0;
  /// Attached service (null when fed directly by tests): consulted to tell
  /// catch-up-replay applies from live ones.
  kv::KvService* service_ = nullptr;
  /// Per shard: version -> agreed mutation effect.
  std::vector<std::map<uint64_t, MutRec>> history_;
  /// Per shard: key -> version -> state after that version.
  std::vector<std::map<std::string, std::map<uint64_t, KeyState>>> by_key_;
  /// Per (node, shard): highest applied version seen (-1 = none yet).
  std::vector<std::vector<int64_t>> last_version_;
  /// Per shard: grant -> global ordinal (first-observation order), the next
  /// ordinal, per-(node, shard) last observed ordinal, and the highest
  /// ordinal that has served a read.
  std::vector<std::map<kv::LeaseId, uint64_t>> grant_ordinal_;
  std::vector<uint64_t> next_ordinal_;
  std::vector<std::vector<int64_t>> last_grant_seen_;
  std::vector<int64_t> max_served_;
  /// Per session: per shard, last acked write version and last read version.
  std::map<uint64_t, std::map<int, uint64_t>> write_floor_;
  std::map<uint64_t, std::map<int, uint64_t>> read_floor_;
  /// Routing continuity: per key, the shard of its first outcome.
  std::map<std::string, int> key_route_;

  std::vector<Violation> violations_;
  uint64_t suppressed_ = 0;  ///< violations beyond the report cap
  uint64_t observed_ = 0;
  uint64_t lease_serves_ = 0;
  bool finalized_ = false;
};

}  // namespace accelring::check
