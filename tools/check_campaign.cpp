// Fault-injection campaign driver for long soak runs.
//
// Runs every scenario in the catalogue across a seed range, single-ring and
// (for the fault kinds that keep one merged total order) multi-ring, with
// the safety oracles attached. Any failure prints the scenario, seed, and
// schedule — rerun with --seed-base to reproduce — plus a greedily shrunk
// minimal schedule.
//
// Usage:
//   check_campaign [--seeds N] [--seed-base S] [--nodes N] [--rings K]
//                  [--horizon-ms M] [--drain-ms M] [--scenario NAME]
//                  [--seed-file PATH] [--no-shrink] [--quiet]
//                  [--artifact-dir DIR | --no-artifacts]
//
// Failing runs write a flight-recorder artifact (violations + per-node trace
// rings + metric snapshot) to --artifact-dir (default: campaign_artifacts).
//
// --seed-file points at a corpus file (one integer seed per line, '#'
// comments) replayed for every scenario in addition to the sweep; see
// tests/seeds/README.md.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/campaign.hpp"

int main(int argc, char** argv) {
  using namespace accelring;

  check::CampaignOptions opt;
  opt.seeds_per_scenario = 200;
  opt.verbose = true;
  opt.run.artifact_dir = "campaign_artifacts";
  int rings = 0;  // 0 = both single-ring and K=4

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "check_campaign: %s needs a value\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      opt.seeds_per_scenario = std::atoi(next());
    } else if (arg == "--seed-base") {
      opt.seed_base = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--nodes") {
      opt.run.nodes = std::atoi(next());
    } else if (arg == "--rings") {
      rings = std::atoi(next());
    } else if (arg == "--horizon-ms") {
      opt.run.horizon = util::msec(std::atoi(next()));
    } else if (arg == "--drain-ms") {
      opt.run.drain = util::msec(std::atoi(next()));
    } else if (arg == "--scenario") {
      opt.only.push_back(next());
    } else if (arg == "--seed-file") {
      const char* path = next();
      opt.extra_seeds = check::load_seed_corpus(path);
      if (opt.extra_seeds.empty()) {
        std::fprintf(stderr, "check_campaign: no seeds read from %s\n", path);
        return 2;
      }
    } else if (arg == "--artifact-dir") {
      opt.run.artifact_dir = next();
    } else if (arg == "--no-artifacts") {
      opt.run.artifact_dir.clear();
    } else if (arg == "--no-shrink") {
      opt.shrink_failures = false;
    } else if (arg == "--quiet") {
      opt.verbose = false;
    } else {
      std::fprintf(stderr, "check_campaign: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  for (const std::string& name : opt.only) {
    if (check::find_scenario(name) == nullptr) {
      std::fprintf(stderr, "check_campaign: unknown scenario %s\n",
                   name.c_str());
      return 2;
    }
  }

  int failures = 0;
  int runs = 0;
  uint64_t delivered = 0;
  uint64_t quarantines = 0;
  uint64_t readmits = 0;
  uint64_t false_ejections = 0;
  std::vector<int> ring_counts =
      rings > 0 ? std::vector<int>{rings} : std::vector<int>{1, 4};
  for (int k : ring_counts) {
    opt.run.rings = k;
    const check::CampaignResult result = check::run_campaign(opt);
    failures += result.failures;
    runs += result.runs;
    delivered += result.delivered;
    quarantines += result.quarantines;
    readmits += result.readmits;
    false_ejections += result.false_ejections;
  }

  std::fprintf(stderr,
               "check_campaign: %d runs, %llu deliveries, %llu quarantines "
               "(%llu readmitted), %llu false ejections, %d failures\n",
               runs, static_cast<unsigned long long>(delivered),
               static_cast<unsigned long long>(quarantines),
               static_cast<unsigned long long>(readmits),
               static_cast<unsigned long long>(false_ejections), failures);
  return failures == 0 ? 0 : 1;
}
