#include "kv/frontend.hpp"

#include <utility>

#include "daemon/failover_client.hpp"

namespace accelring::kv {

Frontend::Frontend(ProcessId self, int shards, SubmitFn submit, NowFn now)
    : self_(self),
      map_(shards),
      submit_(std::move(submit)),
      now_(std::move(now)),
      machines_(static_cast<size_t>(shards), nullptr),
      leases_(static_cast<size_t>(shards), nullptr),
      replicas_(static_cast<size_t>(shards), nullptr) {}

void Frontend::attach_shard(int shard, const KvStateMachine* machine,
                            const LeaseTable* lease,
                            const rsm::Replica* replica) {
  machines_[static_cast<size_t>(shard)] = machine;
  leases_[static_cast<size_t>(shard)] = lease;
  replicas_[static_cast<size_t>(shard)] = replica;
}

void Frontend::emit(const Outcome& outcome, const CompleteFn& done) {
  ++stats_.resolved;
  if (outcome.duplicate) ++stats_.duplicate_acks;
  if (done) done(outcome);
  if (observer_) observer_(outcome);
}

bool Frontend::issue(uint64_t uuid, uint64_t seq, const KvOp& op,
                     uint64_t min_version, CompleteFn done) {
  if (pending_.contains(uuid)) return false;
  ++stats_.issued;
  const int shard = shard_of(op.key);
  const auto s = static_cast<size_t>(shard);
  const Nanos now = now_();

  if (!is_mutation(op.type) && leases_[s] != nullptr &&
      machines_[s] != nullptr && leases_[s]->can_serve(self_, now) &&
      replicas_[s] != nullptr && !replicas_[s]->catching_up() &&
      machines_[s]->version() >= min_version) {
    // Lease fast path: serve from local state, no ordered round trip. The
    // version floor keeps read-your-writes across a lease handover to a
    // node that has not yet applied this session's last write.
    ++stats_.lease_reads;
    Outcome outcome;
    outcome.uuid = uuid;
    outcome.seq = seq;
    outcome.type = op.type;
    outcome.shard = shard;
    outcome.key = op.key;
    outcome.result = machines_[s]->execute_read(op);
    outcome.version = machines_[s]->version();
    outcome.lease_served = true;
    outcome.lease = leases_[s]->id();
    outcome.issued_at = now;
    outcome.done_at = now;
    emit(outcome, done);
    return true;
  }

  if (is_mutation(op.type)) {
    ++stats_.mutations;
  } else {
    ++stats_.ordered_reads;
  }
  Pending pending;
  pending.seq = seq;
  pending.shard = shard;
  pending.type = op.type;
  pending.key = op.key;
  pending.frame = daemon::encode_session_frame(uuid, seq, encode_op(op));
  pending.issued_at = now;
  pending.done = std::move(done);
  auto frame = pending.frame;
  pending_.emplace(uuid, std::move(pending));
  if (!submit_(shard, std::move(frame))) {
    // Shed by backpressure: keep the op pending — the session's timeout
    // chain retries it exactly as it would a lost frame.
    ++stats_.submit_shed;
  }
  return true;
}

bool Frontend::retry(uint64_t uuid) {
  const auto it = pending_.find(uuid);
  if (it == pending_.end()) return false;
  ++stats_.retries;
  ++it->second.retries;
  if (!submit_(it->second.shard, it->second.frame)) ++stats_.submit_shed;
  return true;
}

bool Frontend::cancel(uint64_t uuid) {
  if (pending_.erase(uuid) == 0) return false;
  ++stats_.cancelled;
  return true;
}

void Frontend::on_applied(int shard, const AppliedOp& applied) {
  const auto it = pending_.find(applied.uuid);
  if (it == pending_.end() || it->second.seq != applied.seq ||
      it->second.shard != shard) {
    // A retransmit of an op we already acked, someone else's session, or a
    // session that gave up — the apply already took effect, nothing to
    // resolve here.
    if (it == pending_.end()) ++stats_.orphan_applies;
    return;
  }
  Outcome outcome;
  outcome.uuid = applied.uuid;
  outcome.seq = applied.seq;
  outcome.type = it->second.type;
  outcome.shard = shard;
  outcome.key = it->second.key;
  outcome.result = applied.result;
  outcome.version = applied.version;
  outcome.duplicate = applied.duplicate;
  outcome.issued_at = it->second.issued_at;
  outcome.done_at = now_();
  outcome.retries = it->second.retries;
  CompleteFn done = std::move(it->second.done);
  pending_.erase(it);
  emit(outcome, done);
}

}  // namespace accelring::kv
