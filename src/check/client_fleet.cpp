#include "check/client_fleet.hpp"

#include <algorithm>
#include <string>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace accelring::check {
namespace {

/// Reconnect backoff floor and ceiling.
constexpr Nanos kBackoffBase = util::msec(2);
constexpr Nanos kBackoffCap = util::msec(40);
/// Sends start this late, so the joins order first, then go out at this
/// per-client cadence.
constexpr Nanos kWorkloadStart = util::msec(20);
constexpr Nanos kSendInterval = util::msec(2);

/// Application payload: [u64 uuid][u64 accepted-send index][zero padding].
std::vector<std::byte> stamp_payload(uint64_t uuid, uint64_t index,
                                     size_t size) {
  util::Writer w(std::max<size_t>(size, 16));
  w.u64(uuid);
  w.u64(index);
  for (size_t i = 16; i < size; ++i) w.u8(0);
  return std::move(w).take();
}

bool read_stamp(std::span<const std::byte> payload, uint64_t& uuid,
                uint64_t& index) {
  util::Reader r(payload);
  uuid = r.u64();
  index = r.u64();
  return r.ok();
}

}  // namespace

ClientFleet::ClientFleet(harness::SimCluster& cluster, FleetOptions opt)
    : cluster_(cluster),
      opt_(opt),
      daemons_(static_cast<size_t>(cluster.size())),
      node_crashed_(static_cast<size_t>(cluster.size()), false),
      node_excluded_(static_cast<size_t>(cluster.size()), false) {
  for (int node = 0; node < cluster_.size(); ++node) {
    daemons_[static_cast<size_t>(node)] = std::make_unique<daemon::Daemon>(
        static_cast<protocol::ProcessId>(node), cluster_.engine(node),
        opt_.daemon);
  }
  // Route each node's engine stream into whatever daemon currently serves
  // that node (none while it is crashed).
  cluster_.add_on_deliver(
      [this](int node, const protocol::Delivery& d, Nanos) {
        if (auto& daemon = daemons_[static_cast<size_t>(node)]) {
          daemon->on_delivery(d);
        }
      });
  cluster_.add_on_config(
      [this](int node, const protocol::ConfigurationChange& change) {
        if (!change.transitional) {
          for (int n = 0; n < cluster_.size(); ++n) {
            const auto pid = static_cast<protocol::ProcessId>(n);
            bool member = false;
            for (const auto m : change.config.members) {
              member = member || m == pid;
            }
            if (!member) node_excluded_[static_cast<size_t>(n)] = true;
          }
        }
        if (auto& daemon = daemons_[static_cast<size_t>(node)]) {
          daemon->on_configuration(change);
        }
      });

  util::Rng seeder(opt_.seed);
  for (int node = 0; node < cluster_.size(); ++node) {
    for (int k = 0; k < opt_.clients_per_node; ++k) {
      auto rec = std::make_unique<ClientRec>();
      rec->node = node;
      rec->uuid = (static_cast<uint64_t>(node + 1) << 16) |
                  static_cast<uint64_t>(k + 1);
      ClientRec* raw = rec.get();
      rec->client = std::make_unique<daemon::FailoverClient>(
          [this, node]() { return daemons_[static_cast<size_t>(node)].get(); },
          [this](Nanos delay, std::function<void()> fn) {
            cluster_.eq().schedule_after(delay, std::move(fn));
          },
          "c" + std::to_string(node) + "." + std::to_string(k), rec->uuid,
          util::Backoff(kBackoffBase, kBackoffCap, seeder.next()),
          [raw](const std::string&, const std::string&, daemon::Service,
                std::span<const std::byte> payload) {
            uint64_t uuid = 0;
            uint64_t index = 0;
            if (read_stamp(payload, uuid, index)) {
              ++raw->seen[{uuid, index}];
            }
          });
      clients_.push_back(std::move(rec));
    }
  }
}

void ClientFleet::start(Nanos horizon) {
  simnet::EventQueue& eq = cluster_.eq();
  for (auto& rec : clients_) {
    daemon::FailoverClient* client = rec->client.get();
    eq.schedule_after(0, [client] {
      client->connect();
      client->join("load");
    });
  }
  const int total = static_cast<int>(clients_.size());
  const int64_t shots = (horizon - kWorkloadStart) / kSendInterval;
  for (int c = 0; c < total; ++c) {
    ClientRec* rec = clients_[static_cast<size_t>(c)].get();
    const Nanos phase = kSendInterval * c / std::max(total, 1);
    for (int64_t k = 0; k < shots; ++k) {
      eq.schedule_after(kWorkloadStart + kSendInterval * k + phase,
                        [this, rec] { send_one(*rec); });
    }
  }
}

void ClientFleet::send_one(ClientRec& rec) {
  const uint64_t index = rec.next_index;
  const auto payload = stamp_payload(rec.uuid, index, opt_.payload_size);
  if (rec.client->send("load", daemon::Service::kAgreed, payload)) {
    // Accepted sends are numbered 1,2,3... by the client library, so our
    // index tracks the session-frame seq exactly.
    accepted_[rec.uuid].insert(index);
    ++rec.next_index;
  } else {
    ++dropped_;
  }
}

void ClientFleet::on_crash(int node) {
  node_crashed_[static_cast<size_t>(node)] = true;
  if (auto& daemon = daemons_[static_cast<size_t>(node)]) {
    daemon_slowdowns_ += daemon->stats().slowdowns;
    daemon.reset();
  }
  for (auto& rec : clients_) {
    if (rec->node == node) rec->client->notify_disconnect();
  }
}

void ClientFleet::on_restart(int node) {
  daemons_[static_cast<size_t>(node)] = std::make_unique<daemon::Daemon>(
      static_cast<protocol::ProcessId>(node), cluster_.engine(node),
      opt_.daemon);
}

void ClientFleet::burst(int node, uint32_t count) {
  std::vector<ClientRec*> local;
  for (auto& rec : clients_) {
    if (rec->node == node) local.push_back(rec.get());
  }
  if (local.empty()) return;
  for (uint32_t i = 0; i < count; ++i) {
    send_one(*local[i % local.size()]);
  }
}

FleetReport ClientFleet::finalize() {
  FleetReport report;
  report.dropped = dropped_;
  report.slowdowns = daemon_slowdowns_;
  for (const auto& daemon : daemons_) {
    if (daemon) report.slowdowns += daemon->stats().slowdowns;
  }

  auto fail = [&report](std::string what) {
    report.violations.push_back({std::move(what)});
  };

  for (const auto& rec : clients_) {
    const auto& stats = rec->client->stats();
    report.reconnects += stats.reconnects;
    report.duplicates_suppressed += stats.duplicates_suppressed;
    for (const auto& [key, copies] : rec->seen) {
      report.delivered += static_cast<uint64_t>(copies);
      if (copies > 1) {
        fail("client " + rec->client->name() + " saw uuid=" +
             std::to_string(key.first) + " seq=" +
             std::to_string(key.second) + " " + std::to_string(copies) +
             " times (duplicate delivery)");
      }
    }
  }

  auto exempt = [this](int node) {
    return node_crashed_[static_cast<size_t>(node)] ||
           node_excluded_[static_cast<size_t>(node)];
  };
  for (const auto& rec : clients_) {
    // A node whose daemon is down at the end (crash never restarted, e.g.
    // in a shrunk schedule) legitimately strands its clients' outboxes.
    if (daemons_[static_cast<size_t>(rec->node)] == nullptr) continue;
    if (!rec->client->connected()) {
      fail("client " + rec->client->name() +
           " not reconnected although its daemon is up");
      continue;
    }
    if (rec->client->unacked() != 0) {
      fail("client " + rec->client->name() + " ended with " +
           std::to_string(rec->client->unacked()) + " unacked sends");
      continue;
    }
    // A sender whose node dropped out of a view may have had sends ordered
    // (and acked) in a minority configuration; no global obligation then.
    if (exempt(rec->node)) continue;
    // Everything this client had accepted is acked: each of those messages
    // must have reached every client on a node that stayed in the ring,
    // exactly once.
    const auto it = accepted_.find(rec->uuid);
    if (it == accepted_.end()) continue;
    for (const auto& receiver : clients_) {
      if (exempt(receiver->node)) continue;
      for (const uint64_t seq : it->second) {
        const auto seen = receiver->seen.find({rec->uuid, seq});
        if (seen == receiver->seen.end()) {
          fail("client " + receiver->client->name() + " never saw uuid=" +
               std::to_string(rec->uuid) + " seq=" + std::to_string(seq) +
               " acked by " + rec->client->name() + " (lost delivery)");
        }
      }
    }
  }

  for (const auto& [uuid, seqs] : accepted_) {
    report.sent += static_cast<uint64_t>(seqs.size());
  }
  report.ok = report.violations.empty();
  return report;
}

}  // namespace accelring::check
