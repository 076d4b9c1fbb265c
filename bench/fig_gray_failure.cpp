// Gray-failure A/B: what quarantine buys when a member is slow, not dead.
//
// Three runs of the same seeded 5-node cluster and workload:
//   A  fault-free baseline
//   B  node 3 at 10x CPU from t=200ms, gray-failure detection DISABLED —
//      the straggler stays in the ring and throttles every rotation
//   C  same fault, detection ENABLED — the ring evicts the straggler into
//      quarantine and recovers
// Reported: agreed deliveries observed at node 0 inside the steady
// post-fault window [1s, 2s), plus quarantine/readmit counters. The
// acceptance bar (EXPERIMENTS.md): C >= 0.80 * A; B sits well below.
#include <cstdio>
#include <vector>

#include "harness/cluster.hpp"
#include "protocol/types.hpp"
#include "simnet/network.hpp"
#include "util/time.hpp"

namespace accelring {
namespace {

using harness::ImplProfile;
using harness::SimCluster;

constexpr uint64_t kSeed = 21;
constexpr util::Nanos kHorizon = util::sec(2);
constexpr util::Nanos kFaultAt = util::msec(200);
constexpr util::Nanos kFrom = util::sec(1);
constexpr util::Nanos kTo = util::sec(2);
constexpr int kNodes = 5;
// ~100k msgs/s offered ring-wide: far under a healthy member's capacity
// (~2 µs CPU per message) but ~2x what the 10x straggler can process, so
// the ring visibly throttles to the slowest member unless it is evicted.
constexpr util::Nanos kSubmitEvery = util::usec(50);
constexpr size_t kPayload = 256;

protocol::ProtocolConfig proto_config(bool gray) {
  protocol::ProtocolConfig cfg;
  cfg.timeouts.token_loss = util::msec(30);
  cfg.timeouts.join = util::msec(5);
  cfg.timeouts.consensus = util::msec(60);
  cfg.gray.enabled = gray;
  // The premise is per-message CPU on the straggler; packing would let it
  // keep up with the offered load and hide the slowdown.
  cfg.enable_packing = false;
  return cfg;
}

struct RunOutcome {
  uint64_t window_delivered = 0;
  uint64_t quarantines = 0;
  uint64_t readmits = 0;
};

RunOutcome run_once(bool gray, bool straggler) {
  SimCluster cluster(kNodes, simnet::FabricParams::one_gig(),
                     proto_config(gray), ImplProfile::kLibrary, kSeed);
  RunOutcome out;
  cluster.add_on_deliver([&out](int node, const protocol::Delivery&,
                                util::Nanos at) {
    if (node == 0 && at >= kFrom && at < kTo) ++out.window_delivered;
  });
  const int64_t shots = kHorizon / kSubmitEvery;
  for (int node = 0; node < kNodes; ++node) {
    for (int64_t k = 0; k < shots; ++k) {
      const util::Nanos at =
          kSubmitEvery * k + util::usec(90) * node + util::usec(50);
      cluster.eq().schedule(at, [&cluster, node] {
        if (cluster.net().host_down(node)) return;
        cluster.submit(node, protocol::Service::kAgreed,
                       std::vector<std::byte>(kPayload));
      });
    }
  }
  if (straggler) {
    cluster.eq().schedule(kFaultAt, [&cluster] {
      cluster.process(3).set_cpu_multiplier(10.0);
    });
  }
  cluster.start_static();
  cluster.run_until(kHorizon);
  const harness::ClusterStats stats = cluster.stats();
  out.quarantines = stats.quarantines();
  out.readmits = stats.readmits();
  return out;
}

}  // namespace
}  // namespace accelring

int main() {
  using namespace accelring;
  std::printf("==== gray failure: 10x CPU straggler at %lld ms, window "
              "[%lld, %lld) ms, seed %llu ====\n\n",
              static_cast<long long>(kFaultAt / util::msec(1)),
              static_cast<long long>(kFrom / util::msec(1)),
              static_cast<long long>(kTo / util::msec(1)),
              static_cast<unsigned long long>(kSeed));

  const RunOutcome a = run_once(/*gray=*/true, /*straggler=*/false);
  const RunOutcome b = run_once(/*gray=*/false, /*straggler=*/true);
  const RunOutcome c = run_once(/*gray=*/true, /*straggler=*/true);

  const auto ratio = [&](const RunOutcome& r) {
    return a.window_delivered == 0
               ? 0.0
               : static_cast<double>(r.window_delivered) /
                     static_cast<double>(a.window_delivered);
  };
  std::printf("%-34s %12s %8s %12s %9s\n", "run", "delivered", "vs A",
              "quarantines", "readmits");
  std::printf("%-34s %12llu %8s %12llu %9llu\n", "A fault-free",
              static_cast<unsigned long long>(a.window_delivered), "1.00",
              static_cast<unsigned long long>(a.quarantines),
              static_cast<unsigned long long>(a.readmits));
  std::printf("%-34s %12llu %8.2f %12llu %9llu\n",
              "B straggler, detection disabled",
              static_cast<unsigned long long>(b.window_delivered), ratio(b),
              static_cast<unsigned long long>(b.quarantines),
              static_cast<unsigned long long>(b.readmits));
  std::printf("%-34s %12llu %8.2f %12llu %9llu\n",
              "C straggler, quarantine enabled",
              static_cast<unsigned long long>(c.window_delivered), ratio(c),
              static_cast<unsigned long long>(c.quarantines),
              static_cast<unsigned long long>(c.readmits));
  std::printf("\nacceptance: C/A >= 0.80 -> %s\n",
              ratio(c) >= 0.80 ? "PASS" : "FAIL");
  return ratio(c) >= 0.80 ? 0 : 1;
}
