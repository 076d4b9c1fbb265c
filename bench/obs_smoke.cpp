// Observability smoke bench: one quick single-ring point and one quick
// K=4 multi-ring point, each emitted as BENCH_obs_smoke_*.{json,csv}, plus
// an on-demand flight-recorder dump of the single-ring run. This is the
// binary tools/ci.sh's `obs` stage runs and feeds through
// tools/validate_bench_json.py — it exists to fail CI when instrumentation
// regresses (empty histograms, missing quantiles, unserializable registry),
// without paying a full figure sweep.
#include "bench_common.hpp"
#include "obs/flight.hpp"

namespace {

using namespace accelring::bench;

PointConfig smoke_point() {
  PointConfig pc = base_point(/*ten_gig=*/false);
  pc.proto = accelring::harness::bench_protocol(Variant::kAccelerated);
  pc.service = Service::kAgreed;
  pc.offered_mbps = 300;
  pc.warmup = accelring::util::msec(50);
  pc.measure = accelring::util::msec(100);
  return pc;
}

/// On-demand (healthy-run) flight dump: re-run the smoke point's cluster
/// shape briefly and write its black box next to the bench artifacts.
void dump_healthy_flight() {
  using accelring::harness::SimCluster;
  const PointConfig pc = smoke_point();
  SimCluster cluster(pc.nodes, pc.fabric, pc.proto, pc.profile, pc.seed);
  cluster.enable_metrics();
  cluster.start_static();
  cluster.run_until(accelring::util::msec(20));

  const accelring::obs::MetricsRegistry merged = cluster.merged_metrics();
  accelring::obs::FlightRecord record;
  record.scenario = "obs_smoke_healthy";
  record.seed = pc.seed;
  record.captured_at = accelring::util::msec(20);
  record.metrics = &merged;
  for (int i = 0; i < cluster.size(); ++i) {
    accelring::obs::FlightNode node;
    node.name = "node" + std::to_string(i);
    node.events = cluster.tracer(i).snapshot();
    record.nodes.push_back(std::move(node));
  }
  const std::string path =
      accelring::obs::dump_flight(record, bench_output_dir());
  if (path.empty()) {
    std::fprintf(stderr, "warning: flight dump failed\n");
  } else {
    std::fprintf(stderr, "flight record: %s\n", path.c_str());
  }
}

}  // namespace

int main() {
  std::printf("==== Observability smoke: 1-ring + 4-ring points ====\n\n");

  Curve single;
  single.label = "library / accelerated / agreed / 1350B";
  single.points.push_back(accelring::harness::run_point(smoke_point()));
  print_curve(single);
  emit_bench_artifacts("obs_smoke_1ring", {single});

  PointConfig mc;
  mc.rings = 4;
  mc.nodes = 8;
  mc.fabric = accelring::simnet::FabricParams::ten_gig();
  mc.proto = accelring::harness::bench_protocol(Variant::kAccelerated);
  mc.profile = ImplProfile::kLibrary;
  mc.service = Service::kAgreed;
  mc.offered_mbps = 2000;
  mc.streams_per_node = 64;
  mc.warmup = accelring::util::msec(50);
  mc.measure = accelring::util::msec(100);
  Curve multi;
  multi.label = "K=4 multiring / library / accelerated / agreed / 1350B";
  multi.points.push_back(accelring::harness::run_point(mc));
  print_curve(multi);
  emit_bench_artifacts("obs_smoke_4ring", {multi});

  dump_healthy_flight();
  return 0;
}
