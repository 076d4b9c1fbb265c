// Lease-based leader-local reads.
//
// One member of each shard's view — the lowest-id member, or a rotation of
// that rule so K shards spread their leaseholders across the view — acquires
// a read lease by multicasting a grant *through the shard's ordered stream*.
// Because the grant is totally ordered, every replica observes the same
// sequence of grants; each replica stamps a grant with its own receipt time
// and derives the lease window locally:
//
//   expiry      = receipt + ttl          (renewals extend it)
//   active_from = max(receipt, previous holder's expiry + guard)
//   holder serves while  active_from <= now < expiry - guard
//
// The holder stops `guard` before its own expiry estimate and a successor
// starts `guard` after the predecessor's: receipt-time skew between any two
// replicas for the same ordered message is bounded by one delivery spread,
// so as long as that spread stays below 2*guard the serve windows of
// consecutive holders cannot overlap (docs/KV.md gives the argument; the
// KvOracle checks the global no-overlap property on every campaign run).
//
// Revocation is a view change: an EVS regular configuration change clears
// the holder at every surviving replica before any message of the new view,
// so a holder that fell out of the view can never serve past members'
// acceptance of a successor grant plus the guard.
#pragma once

#include <cstdint>

#include "protocol/types.hpp"
#include "util/time.hpp"

namespace accelring::kv {

using protocol::ProcessId;
using util::Nanos;

/// Lease timing, fixed for every shard.
inline constexpr Nanos kLeaseTtl = util::msec(40);
/// Clock-skew guard: the holder under-serves its window by this much and a
/// successor over-waits by it. Must exceed half the worst-case receipt
/// spread of one ordered message across replicas.
inline constexpr Nanos kLeaseGuard = util::msec(4);
/// The holder re-multicasts its grant this often.
inline constexpr Nanos kLeaseRenewEvery = util::msec(12);

/// Grant identity, unique per grant across the run: the holder plus the
/// simulated time it submitted the grant (monotonic per holder, so a holder
/// that crashes and returns never reuses an id).
struct LeaseId {
  ProcessId holder = protocol::kNoProcess;
  Nanos granted_at = 0;

  [[nodiscard]] bool operator==(const LeaseId&) const = default;
  [[nodiscard]] auto operator<=>(const LeaseId&) const = default;
};

/// One replica's local view of one shard's lease.
class LeaseTable {
 public:
  /// A totally ordered grant/renewal observed at local time `at`.
  void on_grant(const LeaseId& id, Nanos at);

  /// An EVS regular configuration change observed at local time `at`:
  /// revoke. The expiry bound of the outgoing lease is kept so the next
  /// grant's activation still waits out a holder that missed the view
  /// change. A tainted table (see taint()) additionally bounds the lease it
  /// never saw at `at + ttl` here.
  void on_config_change(Nanos at);

  /// Mark this table as having possibly missed an outstanding lease: a
  /// restarted or late-joining node's table is empty, but the view it is
  /// about to join may have granted a lease (to a member since expelled)
  /// that it never observed. The last ordered renewal any such holder can
  /// have received predates this node's first view install, so bounding the
  /// unknown lease at install-time + ttl is safe; grants before that bound
  /// lapse activate only after it (plus guard), like any handover.
  void taint() { tainted_ = true; }

  /// May `self` serve a linearizable local read now?
  [[nodiscard]] bool can_serve(ProcessId self, Nanos now) const {
    return id_.holder == self && now >= active_from_ &&
           now < expiry_ - kLeaseGuard;
  }

  [[nodiscard]] ProcessId holder() const { return id_.holder; }
  [[nodiscard]] const LeaseId& id() const { return id_; }
  [[nodiscard]] Nanos expiry() const { return expiry_; }

 private:
  LeaseId id_;
  Nanos active_from_ = 0;
  Nanos expiry_ = 0;       ///< of the current lease (local receipt + ttl)
  Nanos prior_expiry_ = 0; ///< outgoing holder's expiry bound
  bool tainted_ = false;   ///< possible unobserved outstanding lease
};

/// The deterministic holder rule every replica evaluates on its view:
/// sorted view members[shard % size], so K shards spread their
/// leaseholders across the view. With one shard the rule reduces to the
/// lowest-id member. `members` must be the sorted members of the shard's
/// regular view.
[[nodiscard]] ProcessId designated_holder(
    const std::vector<ProcessId>& members, int shard);

}  // namespace accelring::kv
