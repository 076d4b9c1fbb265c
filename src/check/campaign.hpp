// Fault-injection campaign runner.
//
// run_schedule() drives one seeded simulation — a RingSet of `rings` rings,
// one ring included — under a fault Schedule with the safety oracles
// attached, heals every fault at the horizon, drains, and returns the oracle
// verdict.
// run_campaign() sweeps every applicable scenario across N seeds, prints
// each failure's seed and schedule (a failure reproduces from those alone),
// and greedily shrinks the failing schedule to a minimal reproducer.
//
// The `inject_merge_bug` option deliberately reorders node 1's merged
// stream (adjacent-pair swap) before it reaches the MergedOracle — a
// mutation used by the tests to prove the oracles catch ordering bugs and
// the shrinker converges.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "harness/cluster.hpp"
#include "protocol/types.hpp"
#include "simnet/network.hpp"

namespace accelring::check {

/// Membership timeouts tight enough that view changes complete well inside a
/// few-hundred-millisecond run.
[[nodiscard]] protocol::ProtocolConfig fast_proto_config();

/// fast_proto_config() plus gray-failure detection. The campaign default:
/// every scenario — fault-free and loss-only included — doubles as the
/// detector's zero-false-positive regression via the healthy-member
/// quarantine audit. Kept separate from fast_proto_config() so experiments
/// that borrow the fast timeouts (e.g. the failure-detector A/B) vary one
/// variable at a time and keep seed-identical packet sizes.
[[nodiscard]] protocol::ProtocolConfig campaign_proto_config();

/// campaign_proto_config() rescaled for the multi-datacenter campaign
/// topology: a token rotation crosses several 3 ms WAN links, so the static
/// membership timeouts (the cold failure detector's values) stretch
/// accordingly. Applied automatically by run_schedule for scenarios with
/// Scenario::wan set, together with a longer drain.
[[nodiscard]] protocol::ProtocolConfig wan_proto_config();

struct RunOptions {
  int nodes = 5;
  /// K, the ring set's ring count. K = 1 runs every stack and fault; K > 1
  /// runs the raw stack with the MergedOracle (see stack_applies()).
  int rings = 1;
  Nanos horizon = util::msec(250);     ///< workload + fault window
  Nanos drain = util::msec(300);       ///< heal-all, then quiesce
  size_t payload_size = 64;
  simnet::FabricParams fabric = simnet::FabricParams::one_gig();
  harness::ImplProfile profile = harness::ImplProfile::kLibrary;
  protocol::ProtocolConfig proto = campaign_proto_config();
  uint32_t merge_batch = 4;                ///< multi-ring only
  Nanos skip_interval = util::usec(300);   ///< multi-ring only
  bool inject_merge_bug = false;           ///< mutation (multi-ring only)
  /// When non-empty, a failing run (oracle violation or healthy-member
  /// quarantine) writes a flight-recorder artifact —
  /// `<artifact_dir>/<scenario>_<seed>.json` with the violations, each
  /// node's recent trace events, and a metric snapshot — so a CI failure
  /// ships its own black box. Metrics are enabled for the run iff this is
  /// set (recording is perturbation-free, so the verdict cannot change).
  /// shrink() always runs its candidates with dumping off.
  std::string artifact_dir;
};

struct RunResult {
  bool ok = false;
  std::vector<Violation> violations;
  uint64_t delivered = 0;  ///< deliveries the oracles observed
  /// Distinct regular configurations, on any ring of the set, that excluded
  /// a live node, counted only when the schedule held no
  /// partition/crash/restart (then no ejection is justified). Not a safety
  /// violation — EVS permits spurious view changes — but the liveness
  /// regression the token-loss failure detector exists to prevent.
  uint64_t false_ejections = 0;
  /// Gray-failure quarantine evictions initiated / probations completed
  /// across all engines. A quarantine of a node no fault degraded is a
  /// Violation ("healthy member quarantined"), not just a counter.
  uint64_t quarantines = 0;
  uint64_t readmits = 0;
  uint64_t client_delivered = 0;  ///< client-level runs: app deliveries
  /// Simulator events executed (EventQueue::events_executed() at the end
  /// of the run): the cheapest fingerprint that two runs were identical.
  uint64_t events = 0;
  std::string report;      ///< violations joined, "" when ok
  /// Flight-recorder artifact written for this run ("" when the run passed,
  /// artifact_dir was empty, or the write failed).
  std::string artifact_path;
};

[[nodiscard]] RunResult run_schedule(const RunOptions& opt,
                                     const Schedule& schedule, uint64_t seed);

/// Whether a run of `stack` on `rings` rings acts on a fault of `kind`.
/// run_schedule skips any other event (a hand-written schedule may hold
/// one); every catalogue scenario emits only faults its stack applies at
/// each ring count it runs at.
[[nodiscard]] bool stack_applies(Stack stack, int rings, FaultKind kind);

/// The schedule run_campaign() runs for `scenario` (an entry of scenarios())
/// at `seed`: a function of the pair (plus opt.nodes and opt.horizon)
/// alone, so a printed failure reproduces from it.
[[nodiscard]] Schedule campaign_schedule(const Scenario& scenario,
                                         uint64_t seed, const RunOptions& opt);

/// Greedy shrink: repeatedly drop any single event whose removal keeps the
/// run failing, until no event is removable. Deterministic given the seed.
[[nodiscard]] Schedule shrink(const RunOptions& opt, const Schedule& schedule,
                              uint64_t seed);

struct CampaignOptions {
  RunOptions run;
  int seeds_per_scenario = 20;
  uint64_t seed_base = 1;
  bool shrink_failures = true;
  bool verbose = false;  ///< print per-scenario progress to stderr
  /// Restrict to these scenario names (empty = all applicable to run.rings).
  std::vector<std::string> only;
  /// Extra seeds replayed for every scenario (the tests/seeds corpus).
  std::vector<uint64_t> extra_seeds;
};

struct FailureCase {
  std::string scenario;
  uint64_t seed = 0;
  Schedule schedule;
  Schedule shrunk;  ///< == schedule when shrinking is off
  std::string report;
};

struct CampaignResult {
  int runs = 0;
  int failures = 0;
  uint64_t delivered = 0;            ///< across all runs
  uint64_t false_ejections = 0;      ///< across all runs (see RunResult)
  uint64_t quarantines = 0;          ///< across all runs (see RunResult)
  uint64_t readmits = 0;             ///< across all runs (see RunResult)
  std::vector<FailureCase> cases;    ///< detail for the first failures
  [[nodiscard]] bool ok() const { return failures == 0; }
};

[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& opt);

/// Read a seed corpus file (tests/seeds/README.md): one integer seed per
/// line, decimal or 0x hex, `#` starting a comment. Empty when the file
/// cannot be read or holds no seeds.
[[nodiscard]] std::vector<uint64_t> load_seed_corpus(const std::string& path);

}  // namespace accelring::check
