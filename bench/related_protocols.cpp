// Related-work comparison (paper §V): the Accelerated Ring protocol versus
// a fixed-sequencer protocol (JGroups SEQUENCER style) and a
// U-Ring-Paxos-style protocol, all on the identical simulated fabric.
//
// Paper reference points (same 8-machine setup as the main evaluation):
//  * JGroups total ordering: ~650 Mbps at 1GbE with 1350-byte messages,
//    up to ~3 Gbps at 10GbE.
//  * U-Ring Paxos: >750 Mbps at 1GbE with 1350-byte messages (with
//    batching), latency profile similar to the original Ring protocol's
//    Safe delivery; close to 1.5 Gbps at 10GbE.
//  * Accelerated Ring: >920 Mbps at 1GbE; 2.3-4.6 Gbps at 10GbE.
//
// The JVM-era per-message processing overheads of JGroups and the
// (un-modelled) Paxos bookkeeping are approximated with a heavier CPU cost
// profile; see DESIGN.md §1.
#include "bench_common.hpp"

#include "baselines/baseline_cluster.hpp"
#include "baselines/sequencer.hpp"
#include "baselines/uring_paxos.hpp"

namespace {

using namespace accelring;
using namespace accelring::bench;

/// Heavier per-message costs for the managed-runtime baselines (calibrated
/// so the sequencer's 10GbE ceiling lands near JGroups' measured ~3 Gbps).
transport::HostCosts baseline_costs() {
  transport::HostCosts costs;
  costs.data_process = 1'000;
  costs.delivery = 800;
  costs.send_syscall = 1'400;
  return costs;
}

template <typename Protocol, typename Config>
void run_baseline_curve(const char* label, bool ten_gig,
                        const std::vector<double>& loads) {
  harness::Curve curve;
  curve.label = label;
  const simnet::FabricParams fabric = ten_gig
                                          ? simnet::FabricParams::ten_gig()
                                          : simnet::FabricParams::one_gig();
  for (double mbps : loads) {
    curve.points.push_back(baselines::run_baseline_point<Protocol, Config>(
        fabric, mbps, baseline_costs()));
  }
  harness::print_curve(curve);
}

}  // namespace

int main() {
  std::printf("==== Related protocols (paper SectionV), 1350B payloads ====\n\n");

  const std::vector<double> one_gig = {100, 300, 500, 650, 800, 900};
  const std::vector<double> ten_gig = {500, 1000, 1500, 2000, 2500, 3000};

  // Our protocol, same grid, for reference.
  PointConfig ring = base_point(/*ten_gig=*/false);
  ring.proto = accelring::harness::bench_protocol(Variant::kAccelerated);
  accelring::harness::print_curve(accelring::harness::run_curve(
      "accelerated ring / library / 1GbE", ring, one_gig));

  run_baseline_curve<baselines::SequencerProtocol, baselines::SequencerConfig>(
      "sequencer (JGroups-style) / 1GbE", false, one_gig);
  run_baseline_curve<baselines::URingProtocol, baselines::URingConfig>(
      "u-ring paxos (batching) / 1GbE", false, one_gig);

  ring = base_point(/*ten_gig=*/true);
  ring.proto = accelring::harness::bench_protocol(Variant::kAccelerated);
  accelring::harness::print_curve(accelring::harness::run_curve(
      "accelerated ring / library / 10GbE", ring, ten_gig));

  run_baseline_curve<baselines::SequencerProtocol, baselines::SequencerConfig>(
      "sequencer (JGroups-style) / 10GbE", true, ten_gig);
  run_baseline_curve<baselines::URingProtocol, baselines::URingConfig>(
      "u-ring paxos (batching) / 10GbE", true, ten_gig);

  std::printf(
      "expected shape: the ring saturates 1GbE; the sequencer tops out "
      "earlier (coordinator CPU + double traversal of the sender link); "
      "u-ring paxos pays ring-traversal latency similar to original-ring "
      "Safe delivery and caps lowest at 10GbE\n");
  return 0;
}
