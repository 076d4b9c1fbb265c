// accel_bench: the one binary of the wall-clock benchmark suite.
//
//   accel_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//               [--out <dir>]
//
// Runs one workload in this process, so peak_rss_mb belongs to that workload
// alone. Prints every metric by name with its unit, writes the result to
// <out>/<workload>.seed<n>.json (.trace.json for a traced run), and ends
// stdout with the same result as one JSON line. Exits 1 when a correctness
// check fails and 2 on a usage error.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <string>

#include "obs/json.hpp"
#include "suite.hpp"

namespace accelring::suite {

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

const double* Result::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m.value;
  }
  return nullptr;
}

int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t thread_cpu_ns() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so under a Python launcher it read the launcher's 14 MB, not the
  // workload's 4 MB. VmHWM belongs to this program's address space alone.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

namespace {

struct Workload {
  const char* name;
  void (*run)(const Options&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"ring_agreed_1350", run_ring},
    {"ring_safe_200", run_ring},
    {"sim_kv_k4", run_kv},
    {"sim_campaign", run_campaign},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "accel_bench: %s\nusage: accel_bench --workload <name> --seed "
               "<n> [--seconds <s>] [--trace 0|1] [--out <dir>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

uint64_t parse_uint(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

std::string to_json(const Options& opt, const Result& result) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", opt.workload);
  w.kv("seed", opt.seed);
  w.kv("seconds", opt.seconds);
  w.kv("trace", opt.trace);
  w.kv("correct", result.correct);
  w.kv("attempted", result.attempted);
  w.kv("failed", result.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : result.metrics) {
    w.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("errors").begin_array();
  for (const std::string& e : result.errors) w.value(e);
  w.end_array();
  w.end_object();
  return std::move(w).take();
}

}  // namespace
}  // namespace accelring::suite

int main(int argc, char** argv) {
  using namespace accelring::suite;

  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = parse_uint(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      const uint64_t s = parse_uint(value, "--seconds");
      if (s < 1 || s > 60) usage("--seconds must be 1..60");
      opt.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      const uint64_t t = parse_uint(value, "--trace");
      if (t > 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown or missing --workload");

  std::printf("%s seed=%llu seconds=%d trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::fflush(stdout);
  Result result;
  try {
    workload->run(opt, result);
  } catch (const std::exception& e) {
    result.fail(std::string("workload aborted: ") + e.what());
  }
  if (!opt.trace) result.set("peak_rss_mb", peak_rss_mb(), "MB");

  for (const Metric& m : result.metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : result.errors) {
    std::printf("  CORRECTNESS: %s\n", e.c_str());
  }
  std::printf("correct=%s attempted=%llu failed=%llu\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));

  const std::string json = to_json(opt, result);
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + opt.workload + ".seed" +
                             std::to_string(opt.seed) +
                             (opt.trace ? ".trace" : "") + ".json";
    if (!accelring::obs::write_text_file(path, json + "\n")) {
      std::fprintf(stderr, "accel_bench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
