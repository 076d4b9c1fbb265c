#include "check/durability_oracle.hpp"

#include <algorithm>
#include <sstream>

namespace accelring::check {

namespace {

constexpr size_t kMaxViolations = 100;

}  // namespace

void DurabilityOracle::fail(std::string what) {
  if (violations_.size() >= kMaxViolations) {
    ++suppressed_;
    return;
  }
  violations_.push_back({std::move(what)});
}

void DurabilityOracle::bind(kv::KvService& service) {
  service_ = &service;
  nodes_ = service.nodes();
  shards_ = service.shards();
  const auto n = static_cast<size_t>(nodes_);
  const auto k = static_cast<size_t>(shards_);
  safe_floor_.assign(k, 0);
  max_applied_.assign(k, 0);
  unsafe_.assign(n, false);
  unsafe_at_crash_.assign(n, false);
  at_crash_.assign(n, std::vector<int64_t>(k, -1));
  if (!service.config().store_factory) {
    fail("DurabilityOracle attached to a service with no store_factory — "
         "nothing is durable, every recovery check would be vacuous");
  }
}

void DurabilityOracle::on_applied(int node, int shard,
                                  const kv::AppliedOp& applied, Nanos at) {
  (void)at;
  if (!applied.mutated) return;
  const auto n = static_cast<size_t>(node);
  const auto s = static_cast<size_t>(shard);
  max_applied_[s] = std::max(max_applied_[s], applied.version);
  // The WAL append (and its fsync) happens before the apply, so an apply at
  // an honest-disk node means the version is durable there right now.
  if (n < unsafe_.size() && !unsafe_[n]) {
    safe_floor_[s] = std::max(safe_floor_[s], applied.version);
  }
}

void DurabilityOracle::note_disk_unsafe(int node, const std::string& why) {
  (void)why;
  const auto n = static_cast<size_t>(node);
  if (n < unsafe_.size()) unsafe_[n] = true;
}

void DurabilityOracle::note_crash(int node) {
  if (service_ == nullptr) return;
  const auto n = static_cast<size_t>(node);
  for (int s = 0; s < shards_; ++s) {
    at_crash_[n][static_cast<size_t>(s)] =
        static_cast<int64_t>(service_->machine(node, s).version());
  }
  unsafe_at_crash_[n] = unsafe_[n];
}

void DurabilityOracle::note_restart(int node) {
  if (service_ == nullptr) return;
  const auto n = static_cast<size_t>(node);
  ++checks_;
  for (int s = 0; s < shards_; ++s) {
    const int64_t before = at_crash_[n][static_cast<size_t>(s)];
    if (before < 0) continue;  // crash snapshot missing: nothing to judge
    const auto recovered =
        static_cast<int64_t>(service_->machine(node, s).version());
    if (recovered > before) {
      std::ostringstream os;
      os << "node " << node << " shard " << s
         << ": recovery RESURRECTED state — recovered version " << recovered
         << " above the " << before << " applied at crash";
      fail(os.str());
    }
    if (!unsafe_at_crash_[n] && recovered != before) {
      std::ostringstream os;
      os << "node " << node << " shard " << s
         << ": honest disk lost state — recovered version " << recovered
         << ", had applied " << before
         << " (WAL is fsynced before apply, nothing may be lost)";
      fail(os.str());
    }
    at_crash_[n][static_cast<size_t>(s)] = -1;
  }
  // Fresh incarnation over whatever was durable: the fault window is over.
  unsafe_[n] = false;
  unsafe_at_crash_[n] = false;
}

void DurabilityOracle::note_cluster_recovery(KvOracle* kv) {
  if (service_ == nullptr) return;
  ++checks_;
  for (int s = 0; s < shards_; ++s) {
    const auto si = static_cast<size_t>(s);
    uint64_t basis = 0;
    for (int node = 0; node < nodes_; ++node) {
      if (!service_->node_up(node)) continue;
      basis = std::max(basis, service_->machine(node, s).version());
    }
    if (basis > max_applied_[si]) {
      std::ostringstream os;
      os << "shard " << s << ": recovery basis " << basis
         << " exceeds the highest version ever applied (" << max_applied_[si]
         << ") — recovered state is not a prefix of the pre-crash history";
      fail(os.str());
    }
    if (basis < safe_floor_[si]) {
      std::ostringstream os;
      os << "shard " << s << ": DURABILITY VIOLATION — version "
         << safe_floor_[si]
         << " was applied (WAL-fsynced) at an honest-disk node but the "
            "cluster recovered only to "
         << basis;
      fail(os.str());
    }
    // History restarts from the basis: future floors are measured against
    // the revived lineage.
    safe_floor_[si] = std::min(safe_floor_[si], basis);
    max_applied_[si] = std::max(max_applied_[si], basis);
    if (kv != nullptr) kv->note_lineage_rollback(s, basis);
  }
}

void DurabilityOracle::finalize() {
  if (service_ == nullptr) return;
  const uint64_t divergence = service_->total_divergence();
  if (divergence != 0) {
    std::ostringstream os;
    os << "lineage integrity: " << divergence
       << " boundary-CRC divergence audits across replica incarnations "
          "(recovering from disk must never revive a diverged lineage)";
    fail(os.str());
  }
}

std::string DurabilityOracle::report() const {
  std::string out;
  for (const auto& v : violations_) {
    out += "durability: " + v.what + "\n";
  }
  if (suppressed_ > 0) {
    std::ostringstream os;
    os << "durability: ... " << suppressed_
       << " further violations suppressed\n";
    out += os.str();
  }
  return out;
}

}  // namespace accelring::check
