#include "check/kv_oracle.hpp"

#include <sstream>

#include "util/crc32.hpp"

namespace accelring::check {

namespace {

constexpr size_t kMaxViolations = 100;

uint32_t value_crc(const std::string& s) {
  return util::crc32(std::as_bytes(std::span{s.data(), s.size()}));
}

}  // namespace

void KvOracle::fail(std::string what) {
  if (violations_.size() >= kMaxViolations) {
    ++suppressed_;
    return;
  }
  violations_.push_back({std::move(what)});
}

void KvOracle::bind(kv::KvService& service) {
  service_ = &service;
  shards_ = service.shards();
  const auto n = static_cast<size_t>(service.nodes());
  const auto k = static_cast<size_t>(shards_);
  history_.resize(k);
  by_key_.resize(k);
  grant_ordinal_.resize(k);
  next_ordinal_.assign(k, 0);
  max_served_.assign(k, -1);
  last_version_.assign(n, std::vector<int64_t>(k, -1));
  last_grant_seen_.assign(n, std::vector<int64_t>(k, -1));
  if (service.config().preload_keys != 0) {
    fail("KvOracle requires preload_keys == 0 (preloaded values have no "
         "apply events, so read checks would see holes)");
  }
}

void KvOracle::attach(kv::KvService& service) {
  bind(service);
  service.set_on_applied(
      [this](int node, int shard, const kv::AppliedOp& applied, Nanos at) {
        on_applied(node, shard, applied, at);
      });
  service.set_on_lease_grant(
      [this](int node, int shard, const kv::LeaseId& id, Nanos at) {
        on_lease_grant(node, shard, id, at);
      });
  service.set_on_outcome(
      [this](int node, const kv::Frontend::Outcome& outcome) {
        on_outcome(node, outcome);
      });
}

void KvOracle::on_applied(int node, int shard, const kv::AppliedOp& applied,
                          Nanos at) {
  (void)at;
  ++observed_;
  const auto n = static_cast<size_t>(node);
  const auto s = static_cast<size_t>(shard);
  int64_t& last = last_version_[n][s];
  const auto version = static_cast<int64_t>(applied.version);
  if (version < last) {
    std::ostringstream os;
    os << "node " << node << " shard " << shard
       << ": applied version went backwards (" << version << " after "
       << last << ")";
    fail(os.str());
  }
  // A node adopting a state transfer restores a checkpoint whose interior
  // mutations are never applied individually: its first post-restore applies
  // (suffix + buffered replay) legitimately jump past them. Agreement and
  // monotonicity still hold; only the +1 continuity check is waived there.
  const bool catch_up =
      service_ != nullptr &&
      service_->replica(node, shard).in_catchup_replay();
  if (applied.mutated && !catch_up && last >= 0 && version != last + 1) {
    std::ostringstream os;
    os << "node " << node << " shard " << shard
       << ": effective mutation jumped version " << last << " -> " << version;
    fail(os.str());
  }
  last = version;

  if (!applied.mutated) return;
  const bool present = applied.type != kv::OpType::kDel;
  MutRec rec;
  rec.key = *applied.key;
  rec.present = present;
  rec.value_crc = applied.value_crc;
  const auto [it, inserted] =
      history_[s].emplace(applied.version, std::move(rec));
  if (inserted) {
    by_key_[s][it->second.key][applied.version] =
        KeyState{it->second.value_crc, it->second.present};
    return;
  }
  const MutRec& agreed = it->second;
  if (agreed.key != *applied.key || agreed.present != present ||
      agreed.value_crc != applied.value_crc) {
    std::ostringstream os;
    os << "node " << node << " shard " << shard << " version "
       << applied.version << ": replica divergence — applied key '"
       << *applied.key << "' crc " << applied.value_crc << ", agreed key '"
       << agreed.key << "' crc " << agreed.value_crc;
    fail(os.str());
  }
}

void KvOracle::on_lease_grant(int node, int shard, const kv::LeaseId& id,
                              Nanos at) {
  (void)at;
  ++observed_;
  const auto n = static_cast<size_t>(node);
  const auto s = static_cast<size_t>(shard);
  auto [it, inserted] = grant_ordinal_[s].emplace(id, next_ordinal_[s]);
  if (inserted) ++next_ordinal_[s];
  const auto ordinal = static_cast<int64_t>(it->second);
  if (ordinal < last_grant_seen_[n][s]) {
    // First-observation order disagreed with this node's observation order;
    // grants ride the ordered stream, so this should be impossible.
    std::ostringstream os;
    os << "node " << node << " shard " << shard
       << ": grant order anomaly (ordinal " << ordinal << " after "
       << last_grant_seen_[n][s] << ")";
    fail(os.str());
  }
  last_grant_seen_[n][s] = ordinal;
}

void KvOracle::on_outcome(int node, const kv::Frontend::Outcome& outcome) {
  ++observed_;
  const auto s = static_cast<size_t>(outcome.shard);

  // Routing continuity: every node routes with the same fixed shard map, so
  // a key's outcomes all come from one shard.
  const auto [rit, fresh] = key_route_.try_emplace(outcome.key, outcome.shard);
  if (!fresh && rit->second != outcome.shard) {
    std::ostringstream os;
    os << "node " << node << " key '" << outcome.key << "': rerouted shard "
       << rit->second << " -> " << outcome.shard;
    fail(os.str());
  }

  if (outcome.lease_served) {
    ++lease_serves_;
    const auto it = grant_ordinal_[s].find(outcome.lease);
    if (it == grant_ordinal_[s].end()) {
      std::ostringstream os;
      os << "node " << node << " shard " << outcome.shard
         << ": read served under unknown lease (holder "
         << outcome.lease.holder << ", granted_at "
         << outcome.lease.granted_at << ")";
      fail(os.str());
    } else {
      const auto ordinal = static_cast<int64_t>(it->second);
      // Outcomes arrive in simulated-time order, so a serve under an older
      // grant after any serve under a newer one is a stale lease read.
      if (ordinal < max_served_[s]) {
        std::ostringstream os;
        os << "node " << node << " shard " << outcome.shard
           << ": STALE LEASE READ — served under grant ordinal " << ordinal
           << " (holder " << outcome.lease.holder << ", granted_at "
           << outcome.lease.granted_at << ") at " << outcome.done_at
           << " after ordinal " << max_served_[s] << " already served";
        fail(os.str());
      }
      if (ordinal > max_served_[s]) max_served_[s] = ordinal;
    }
  }

  if (kv::is_mutation(outcome.type)) {
    uint64_t& floor = write_floor_[outcome.uuid][outcome.shard];
    floor = std::max(floor, outcome.version);
    return;
  }

  // Session guarantees for reads.
  auto& wf = write_floor_[outcome.uuid];
  if (const auto it = wf.find(outcome.shard);
      it != wf.end() && outcome.version < it->second) {
    std::ostringstream os;
    os << "session " << outcome.uuid << " shard " << outcome.shard
       << ": read-your-writes violated (read at version " << outcome.version
       << ", last write acked at " << it->second << ")";
    fail(os.str());
  }
  uint64_t& rf = read_floor_[outcome.uuid][outcome.shard];
  if (outcome.version < rf) {
    std::ostringstream os;
    os << "session " << outcome.uuid << " shard " << outcome.shard
       << ": monotonic reads violated (" << outcome.version << " after "
       << rf << ")";
    fail(os.str());
  }
  rf = std::max(rf, outcome.version);

  if (outcome.type != kv::OpType::kGet) return;  // scans: not content-checked

  // Value correctness at the read's version.
  const auto& versions = by_key_[s];
  const auto key_it = versions.find(outcome.key);
  const KeyState* state = nullptr;
  if (key_it != versions.end()) {
    // Last mutation of this key at or below the read's version.
    const auto& hist = key_it->second;
    auto it = hist.upper_bound(outcome.version);
    if (it != hist.begin()) state = &std::prev(it)->second;
  }
  const bool expect_present = state != nullptr && state->present;
  const bool got_present = outcome.result.status == kv::Status::kOk;
  if (expect_present != got_present) {
    std::ostringstream os;
    os << "node " << node << " shard " << outcome.shard << " key '"
       << outcome.key << "': GET at version " << outcome.version
       << " returned " << (got_present ? "a value" : "not-found")
       << ", history says " << (expect_present ? "present" : "absent");
    fail(os.str());
    return;
  }
  if (got_present && value_crc(outcome.result.value) != state->value_crc) {
    std::ostringstream os;
    os << "node " << node << " shard " << outcome.shard << " key '"
       << outcome.key << "': GET at version " << outcome.version
       << " returned wrong value (crc " << value_crc(outcome.result.value)
       << ", history " << state->value_crc << ")";
    fail(os.str());
  }
}

void KvOracle::note_lineage_rollback(int shard, uint64_t version) {
  const auto s = static_cast<size_t>(shard);
  if (s >= history_.size()) return;
  auto& hist = history_[s];
  hist.erase(hist.upper_bound(version), hist.end());
  auto& keys = by_key_[s];
  for (auto it = keys.begin(); it != keys.end();) {
    auto& per_key = it->second;
    per_key.erase(per_key.upper_bound(version), per_key.end());
    it = per_key.empty() ? keys.erase(it) : std::next(it);
  }
  for (auto& entry : write_floor_) {
    if (auto it = entry.second.find(shard);
        it != entry.second.end() && it->second > version) {
      it->second = version;
    }
  }
  for (auto& entry : read_floor_) {
    if (auto it = entry.second.find(shard);
        it != entry.second.end() && it->second > version) {
      it->second = version;
    }
  }
}

void KvOracle::note_restart(int node) {
  const auto n = static_cast<size_t>(node);
  if (n >= last_version_.size()) return;
  for (auto& v : last_version_[n]) v = -1;
}

std::string KvOracle::report() const {
  std::string out;
  for (const auto& v : violations_) {
    out += "kv: " + v.what + "\n";
  }
  if (suppressed_ > 0) {
    std::ostringstream os;
    os << "kv: ... " << suppressed_ << " further violations suppressed\n";
    out += os.str();
  }
  return out;
}

}  // namespace accelring::check
