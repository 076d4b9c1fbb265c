// Client fleet for client-level fault campaigns.
//
// Builds the full deployment stack on top of a SimCluster: one Daemon per
// node (bounded ingress queues, SLOWDOWN/RESUME), and N FailoverClients per
// node driving the workload through group "load". Crashing a node destroys
// its daemon; restarting builds a fresh one over the replacement engine, and
// the clients find it again through their jittered-backoff reconnect loop.
//
// Every client send is stamped with the client's session uuid and its
// accepted-send index (which, because FailoverClient numbers accepted sends
// 1,2,3..., equals the session-frame seq). finalize() then checks the
// end-to-end failover contract at the *application* callback, after the
// client library's duplicate filter has done its work:
//
//  * zero duplicates: no client observes the same (uuid, seq) twice,
//  * zero loss: every send accepted by a client whose daemon is alive at
//    the end was delivered to every client on a node that stayed in the
//    ring, exactly once,
//  * drained: those same clients end reconnected with an empty outbox.
//
// The completeness obligation is scoped the way EVS scopes it: a node that
// crashed, or that was excluded from any regular configuration installed
// during the run (a reformation transient), may legitimately have missed
// messages ordered while it was outside the view — and its own acked sends
// may have been ordered in a minority view. Such nodes' clients are exempt
// from the zero-loss check on both sides but still participate in the
// duplicate check, which holds unconditionally.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "check/oracle.hpp"
#include "daemon/daemon.hpp"
#include "daemon/failover_client.hpp"
#include "harness/cluster.hpp"

namespace accelring::check {

struct FleetOptions {
  int clients_per_node = 2;
  daemon::DaemonConfig daemon;
  uint64_t seed = 1;  ///< jitter seeds (per client)
  size_t payload_size = 48;
};

struct FleetReport {
  bool ok = true;
  std::vector<Violation> violations;
  uint64_t sent = 0;        ///< sends accepted into client outboxes
  uint64_t dropped = 0;     ///< sends shed by a full outbox
  uint64_t delivered = 0;   ///< application-level deliveries, all clients
  uint64_t reconnects = 0;  ///< successful client (re)connections
  uint64_t slowdowns = 0;   ///< SLOWDOWN notifications daemons issued
  uint64_t duplicates_suppressed = 0;  ///< caught by the client-side filter
};

class ClientFleet {
 public:
  /// Wires delivery/configuration observers into `cluster`; construct before
  /// start_static() so the initial configuration reaches the daemons too.
  ClientFleet(harness::SimCluster& cluster, FleetOptions opt);

  /// Connect and join every client now, then arm the per-client send chains
  /// from 20 ms (after the joins order) until `horizon`. Call once, before
  /// the run.
  void start(Nanos horizon);

  /// `node` was crashed: tear down its daemon, tell its clients.
  void on_crash(int node);
  /// `node` was cold-restarted: build a daemon over the fresh engine (the
  /// clients' reconnect loop finds it on its next attempt).
  void on_restart(int node);
  /// Overload injection: `count` extra sends from `node`'s clients at once.
  void burst(int node, uint32_t count);

  /// End-of-run verdict; call after the drain.
  [[nodiscard]] FleetReport finalize();

  [[nodiscard]] const daemon::FailoverClient& client(int node, int k) const {
    return *clients_[static_cast<size_t>(node * opt_.clients_per_node + k)]
                ->client;
  }

 private:
  struct ClientRec {
    int node = -1;
    uint64_t uuid = 0;
    uint64_t next_index = 1;  ///< == the FailoverClient's next frame seq
    std::unique_ptr<daemon::FailoverClient> client;
    /// (uuid, seq) -> copies observed at this client's application callback.
    std::map<std::pair<uint64_t, uint64_t>, int> seen;
  };

  void send_one(ClientRec& rec);

  harness::SimCluster& cluster_;
  FleetOptions opt_;
  std::vector<std::unique_ptr<daemon::Daemon>> daemons_;
  std::vector<std::unique_ptr<ClientRec>> clients_;
  std::vector<bool> node_crashed_;   ///< ever crashed during the run
  /// Ever missing from a regular configuration anyone installed (EVS: such a
  /// node may have missed deliveries, and its sends may have been ordered in
  /// a minority view).
  std::vector<bool> node_excluded_;
  /// uuid -> accepted send seqs (what "zero loss" is checked against).
  std::map<uint64_t, std::set<uint64_t>> accepted_;
  uint64_t dropped_ = 0;
  uint64_t daemon_slowdowns_ = 0;  ///< carried over from destroyed daemons
};

}  // namespace accelring::check
