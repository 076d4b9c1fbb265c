// Side-by-side comparison of every total ordering protocol in this repo:
// the original Totem ring, the Accelerated Ring, a fixed-sequencer, and a
// U-Ring-Paxos-style protocol, all on the identical simulated 1GbE fabric.
//
//   $ ./ordering_comparison [offered_mbps]
#include <cstdio>
#include <cstdlib>

#include "baselines/baseline_cluster.hpp"
#include "baselines/sequencer.hpp"
#include "baselines/uring_paxos.hpp"
#include "harness/sweep.hpp"

using namespace accelring;

namespace {

harness::PointResult run_ring(protocol::Variant variant, double offered) {
  harness::PointConfig pc;
  pc.proto = harness::bench_protocol(variant);
  pc.offered_mbps = offered;
  return harness::run_point(pc);
}

void print_row(const char* name, const harness::PointResult& r) {
  std::printf("%-28s %12.1f %12.1f %12.1f\n", name, r.achieved_mbps,
              util::to_usec(r.mean_latency), util::to_usec(r.p99_latency));
}

}  // namespace

int main(int argc, char** argv) {
  const double offered = argc > 1 ? std::atof(argv[1]) : 600.0;
  std::printf("total ordering protocols, 8 nodes, simulated 1GbE, "
              "1350B payloads, %.0f Mbps offered:\n\n",
              offered);
  std::printf("%-28s %12s %12s %12s\n", "protocol", "achieved", "mean_us",
              "p99_us");

  const simnet::FabricParams fabric = simnet::FabricParams::one_gig();
  print_row("totem single-ring (1993)",
            run_ring(protocol::Variant::kOriginal, offered));
  print_row("accelerated ring (paper)",
            run_ring(protocol::Variant::kAccelerated, offered));
  print_row("fixed sequencer (JGroups)",
            baselines::run_baseline_point<baselines::SequencerProtocol,
                                          baselines::SequencerConfig>(
                fabric, offered));
  print_row("u-ring paxos (batching)",
            baselines::run_baseline_point<baselines::URingProtocol,
                                          baselines::URingConfig>(fabric,
                                                                  offered));
  std::printf("\nthe accelerated ring keeps the token-protocol feature set "
              "(Safe delivery, EVS partitionable membership, multi-group "
              "ordering)\nwhile matching or beating the centralized "
              "alternatives on throughput at data-center loads.\n");
  return 0;
}
