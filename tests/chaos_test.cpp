// Chaos scheduling: the simulator's links are FIFO, but real UDP may
// reorder arbitrarily. This harness wires engines together through a
// scheduler that delivers every in-flight datagram in RANDOM order (no
// loss, unbounded reordering) and checks that safety — total order,
// gap-free delivery, completeness — survives any interleaving, as the paper
// asserts ("decisions about when to process messages of different types can
// impact performance but do not affect the correctness of the protocol").
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <tuple>

#include "check/campaign.hpp"
#include "check/client_fleet.hpp"
#include "check/oracle.hpp"
#include "delivery_order.hpp"
#include "harness/cluster.hpp"
#include "membership/membership.hpp"
#include "protocol/engine.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace accelring::protocol {
namespace {

/// In-flight datagram in the chaos network, or an idle hold's timer.
struct Flight {
  ProcessId to = 0;
  SocketId sock = 0;
  std::vector<std::byte> bytes;
  bool hold_timer = false;
};

class ChaosNet;

/// Host that forwards all sends into the chaos network. With zero loss
/// nothing depends on timers for safety, so they are inert, except that an
/// idle token hold ends as one more event in the random schedule.
class ChaosHost final : public Host {
 public:
  ChaosHost(ProcessId self, ChaosNet& net) : self_(self), net_(net) {}

  void multicast(SocketId sock, std::span<const std::byte> data) override;
  void unicast(ProcessId to, SocketId sock, std::span<const std::byte> data,
               Nanos delay) override;
  void deliver(const Delivery& delivery) override {
    delivered.emplace_back(delivery.sender, delivery.seq, delivery.part);
    payloads.push_back(delivery.payload);
  }
  void on_configuration(const ConfigurationChange&) override {}
  void set_timer(TimerKind kind, Nanos) override;
  void cancel_timer(TimerKind) override {}
  Nanos now() override { return ++clock_; }

  std::vector<std::tuple<ProcessId, SeqNum, uint32_t>> delivered;
  std::vector<std::vector<std::byte>> payloads;

 private:
  ProcessId self_;
  ChaosNet& net_;
  Nanos clock_ = 0;
};

class ChaosNet {
 public:
  explicit ChaosNet(int n, uint64_t seed) : rng_(seed) {
    RingConfig ring;
    ring.ring_id = membership::make_ring_id(1, 0);
    for (int i = 0; i < n; ++i) {
      ring.members.push_back(static_cast<ProcessId>(i));
    }
    ProtocolConfig cfg;
    cfg.accelerated_window = 5;
    cfg.personal_window = 8;
    for (int i = 0; i < n; ++i) {
      hosts.push_back(std::make_unique<ChaosHost>(
          static_cast<ProcessId>(i), *this));
      engines.push_back(std::make_unique<Engine>(static_cast<ProcessId>(i),
                                                 cfg, *hosts[i]));
    }
    for (int i = n - 1; i >= 0; --i) engines[i]->start_with_ring(ring);
  }

  void post(ProcessId to, SocketId sock, std::span<const std::byte> data) {
    in_flight.push_back(Flight{to, sock, util::to_vector(data)});
  }

  /// Deliver one randomly chosen in-flight datagram. Returns false if none.
  bool step() {
    if (in_flight.empty()) return false;
    const size_t pick = rng_.below(in_flight.size());
    Flight flight = std::move(in_flight[pick]);
    in_flight.erase(in_flight.begin() + static_cast<long>(pick));
    if (flight.hold_timer) {
      engines[flight.to]->on_timer(kTimerTokenHold);  // no-op once released
    } else {
      engines[flight.to]->on_packet(flight.sock, flight.bytes);
    }
    return true;
  }

  std::vector<std::unique_ptr<ChaosHost>> hosts;
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<Flight> in_flight;
  util::Rng rng_;
};

void ChaosHost::multicast(SocketId sock, std::span<const std::byte> data) {
  for (size_t i = 0; i < net_.engines.size(); ++i) {
    if (static_cast<ProcessId>(i) == self_) continue;
    net_.post(static_cast<ProcessId>(i), sock, data);
  }
}

void ChaosHost::unicast(ProcessId to, SocketId sock,
                        std::span<const std::byte> data, Nanos) {
  net_.post(to, sock, data);
}

void ChaosHost::set_timer(TimerKind kind, Nanos) {
  if (kind == kTimerTokenHold) {
    net_.in_flight.push_back(Flight{self_, 0, {}, /*hold_timer=*/true});
  }
}

class ChaosSchedule : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSchedule, SafetyUnderArbitraryReordering) {
  const uint64_t seed = GetParam();
  const int kNodes = 3;
  const int kMessages = 60;
  ChaosNet net(kNodes, seed);

  // Submit everything up front (mixed services); the chaos scheduler then
  // interleaves every packet delivery at random.
  util::Rng traffic_rng(seed * 31 + 7);
  for (int i = 0; i < kMessages; ++i) {
    const int sender = static_cast<int>(traffic_rng.below(kNodes));
    const Service service =
        traffic_rng.chance(0.3) ? Service::kSafe : Service::kAgreed;
    net.engines[sender]->submit(
        service, util::to_vector(util::as_bytes("m" + std::to_string(i))));
  }

  // Run until everyone delivered everything (or a generous step bound).
  for (int steps = 0; steps < 2'000'000; ++steps) {
    if (!net.step()) break;
    bool done = true;
    for (int i = 0; i < kNodes; ++i) {
      done = done && net.hosts[i]->delivered.size() >=
                         static_cast<size_t>(kMessages);
    }
    if (done) break;
  }

  for (int i = 0; i < kNodes; ++i) {
    ASSERT_GE(net.hosts[i]->delivered.size(), static_cast<size_t>(kMessages))
        << "node " << i << " starved, seed " << seed;
  }
  // Total order: common prefix of length kMessages is identical, gap-free
  // over (seq, part).
  for (int i = 0; i < kNodes; ++i) {
    std::vector<SeqPart> order;
    for (int k = 0; k < kMessages; ++k) {
      EXPECT_EQ(net.hosts[i]->delivered[k], net.hosts[0]->delivered[k])
          << "node " << i << " position " << k << " seed " << seed;
      EXPECT_EQ(net.hosts[i]->payloads[k], net.hosts[0]->payloads[k]);
      order.emplace_back(std::get<1>(net.hosts[i]->delivered[k]),
                         std::get<2>(net.hosts[i]->delivered[k]));
    }
    EXPECT_TRUE(gap_free(order)) << "node " << i << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSchedule,
                         ::testing::Range<uint64_t>(1, 26),
                         [](const ::testing::TestParamInfo<uint64_t>& param) {
                           return "seed" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace accelring::protocol

namespace accelring::check {
namespace {

/// Reconnect storm: a large client fleet rides through two daemons crashing
/// and cold-restarting back to back. Every client on the crashed nodes must
/// find its replacement daemon through the jittered backoff loop, resend its
/// outbox, and the fleet as a whole must end with zero duplicate and zero
/// lost delivered messages (scoped per EVS, see ClientFleet).
class ReconnectStorm : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReconnectStorm, ManyClientsThroughDaemonCrashRestart) {
  const uint64_t seed = GetParam();
  protocol::ProtocolConfig proto = fast_proto_config();
  harness::SimCluster cluster(5, simnet::FabricParams::one_gig(), proto,
                              harness::ImplProfile::kLibrary, seed);
  ClusterOracle oracle(5);
  oracle.attach(cluster);

  FleetOptions fopt;
  fopt.clients_per_node = 4;  // 20 clients: a storm, not a trickle
  fopt.seed = seed;
  ClientFleet fleet(cluster, fopt);
  cluster.start_static();
  const Nanos horizon = util::msec(300);
  fleet.start(horizon);

  auto crash = [&](int node, Nanos at, Nanos back_at) {
    cluster.eq().schedule_after(at, [&cluster, &oracle, &fleet, node] {
      cluster.crash_node(node);
      oracle.note_crash(node);
      fleet.on_crash(node);
    });
    cluster.eq().schedule_after(back_at, [&cluster, &oracle, &fleet, node] {
      cluster.restart_node(node);
      oracle.note_restart(node);
      fleet.on_restart(node);
    });
  };
  crash(1, util::msec(70), util::msec(120));
  crash(3, util::msec(150), util::msec(200));

  cluster.run_until(horizon + util::msec(400));
  const harness::ClusterStats stats = cluster.stats();
  oracle.finalize(&stats);
  EXPECT_TRUE(oracle.ok()) << oracle.report();

  const FleetReport report = fleet.finalize();
  EXPECT_TRUE(report.ok)
      << "seed " << seed << ": "
      << (report.violations.empty() ? "" : report.violations.front().what);
  // 20 initial connections plus a reconnect for each of the 8 clients that
  // lost their daemon.
  EXPECT_GE(report.reconnects, 28u) << "seed " << seed;
  EXPECT_GT(report.sent, 0u);
  EXPECT_GT(report.delivered, report.sent);  // fan-out across the fleet
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconnectStorm,
                         ::testing::Range<uint64_t>(1, 6),
                         [](const ::testing::TestParamInfo<uint64_t>& param) {
                           return "seed" + std::to_string(param.param);
                         });

/// Two members turn into CPU stragglers at once. The gray-failure detector
/// works against the ring *median*, so with 2-of-5 degraded the majority
/// still anchors the baseline; both stragglers must be quarantined (one
/// membership change at a time), safety must hold throughout, and the
/// healthy-member audit inside run_schedule must stay clean.
class TwoStragglers : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TwoStragglers, BothAreQuarantinedAndSafetyHolds) {
  const uint64_t seed = GetParam();
  RunOptions opt;  // 5 nodes, 250 ms horizon, gray detection on
  Schedule schedule;
  schedule.scenario = "two_stragglers";
  for (const int node : {1, 3}) {
    FaultEvent e;
    e.at = util::msec(40);
    e.kind = FaultKind::kCpuMultiplier;
    e.node = node;
    e.rate = 10.0;
    schedule.events.push_back(e);
  }
  const RunResult res = run_schedule(opt, schedule, seed);
  EXPECT_TRUE(res.ok) << "seed " << seed << ": " << res.report;
  EXPECT_GE(res.quarantines, 2u) << "seed " << seed;
  EXPECT_GT(res.delivered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoStragglers,
                         ::testing::Range<uint64_t>(1, 6),
                         [](const ::testing::TestParamInfo<uint64_t>& param) {
                           return "seed" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace accelring::check
