#include "kv/lease.hpp"

#include <algorithm>
#include <vector>

namespace accelring::kv {

void LeaseTable::on_grant(const LeaseId& id, Nanos at) {
  if (id.holder == id_.holder && id_.holder != protocol::kNoProcess) {
    // Renewal (same holder, possibly a fresh grant after its own lapse):
    // extend; activation is already settled.
    id_ = id;
    expiry_ = std::max(expiry_, at + kLeaseTtl);
    return;
  }
  // Handover: the new lease activates only after the outgoing holder's
  // window — as this replica bounds it — has lapsed, plus the skew guard.
  const Nanos prior = std::max(prior_expiry_, expiry_);
  id_ = id;
  active_from_ = std::max(at, prior + kLeaseGuard);
  expiry_ = at + kLeaseTtl;
  prior_expiry_ = prior;
}

void LeaseTable::on_config_change(Nanos at) {
  // Revoke: the view changed, so the holder rule may designate someone
  // else. Keep the expiry bound — a partitioned ex-holder that never saw
  // this view change still stops at its own expiry, and the next grant's
  // activation must wait that out.
  if (tainted_) {
    // First install after a restart/join: some ex-member may hold a lease
    // this table never observed. Its last ordered renewal predates this
    // install, so it lapses by at + ttl (see taint()).
    prior_expiry_ = std::max(prior_expiry_, at + kLeaseTtl);
    tainted_ = false;
  }
  prior_expiry_ = std::max(prior_expiry_, expiry_);
  id_ = LeaseId{};
  active_from_ = 0;
  expiry_ = 0;
}

ProcessId designated_holder(const std::vector<ProcessId>& members, int shard) {
  if (members.empty()) return protocol::kNoProcess;
  return members[static_cast<size_t>(shard) % members.size()];
}

}  // namespace accelring::kv
