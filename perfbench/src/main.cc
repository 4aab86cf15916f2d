// perfbench: the pagedsm benchmark program (see ../README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out FILE] [--commit REV]
//   perfbench --workload NAME --dump-pins
//   perfbench --list
//
// Prints a provenance header, every metric by name with its unit, and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  Exits 0 when every execution's output checked out.
#include <sched.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "measure.h"

namespace {

using perfbench::Metric;
using perfbench::Report;
using perfbench::Workload;

struct Args {
  std::string workload;
  bool seed_given = false;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;
  std::string commit = "unknown";
  bool dump_pins = false;
  bool list = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--commit REV] "
               "[--dump-pins]\n       perfbench --list\nworkloads:",
               why);
  for (const Workload& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--dump-pins") {
      a.dump_pins = true;
      continue;
    }
    if (flag == "--list") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 0);
      a.seed_given = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (a.seconds < 0.0) Usage("--seconds must not be negative");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.traced = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      Usage(("bad number for " + flag + ": " + value).c_str());
    }
  }
  if (!a.list && perfbench::FindWorkload(a.workload) == nullptr) {
    Usage(("unknown workload '" + a.workload + "'").c_str());
  }
  return a;
}

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

int DumpPins(const Workload& w) {
  const perfbench::Execution e =
      perfbench::RunOnce(w, w.default_seed, w.config.backend, nullptr);
  if (!e.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", e.error.c_str());
    return 1;
  }
  std::printf("// %s: result %.17g, exec %.9f s\n", w.name.c_str(), e.result,
              e.stats.exec_seconds());
  for (const perfbench::Counter& c : perfbench::ModelledCounters(e.stats)) {
    std::printf("      {\"%s\", %" PRIu64 "u},\n", c.name.c_str(), c.value);
  }
  return 0;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("  %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("    %-34s %18.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.list) {
    for (const Workload& w : perfbench::Workloads()) {
      std::printf("%s\n", w.name.c_str());
    }
    return 0;
  }
  const Workload& w = *perfbench::FindWorkload(args.workload);
  if (args.dump_pins) return DumpPins(w);

  perfbench::Options opt;
  opt.seed = args.seed_given ? args.seed : w.default_seed;
  opt.seconds = args.seconds;
  opt.traced = args.traced;
  std::printf("# perfbench commit=%s compiler=\"%s\" build_type=%s\n",
              args.commit.c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("# host nproc=%d hardware_concurrency=%u num_procs=%d\n",
              HostCpus(), std::thread::hardware_concurrency(),
              perfbench::kNumProcs);
  if (HostCpus() < perfbench::kNumProcs) {
    std::printf("# warning: fewer host CPUs than simulated processors; "
                "host times include oversubscription\n");
  }
  std::fflush(stdout);

  const Report r = perfbench::RunWorkload(w, opt);
  std::printf("# workload=%s seed=%" PRIu64 "%s seconds=%g trace=%d "
              "warm_up=1 repeats=%d\n",
              w.name.c_str(), opt.seed,
              w.seeded ? "" : " (inputs fixed by the app)", opt.seconds,
              opt.traced ? 1 : 0, r.timed);
  std::printf("[%s] %s\n", w.name.c_str(), w.why.c_str());
  for (const std::string& e : r.errors) std::printf("  FAILED: %s\n", e.c_str());
  PrintMetrics(opt.traced ? "per-layer (medians over traced executions)"
                          : "end-to-end (medians over executions)",
               r.metrics);
  PrintMetrics("notes", r.notes);
  if (opt.traced && !args.trace_out.empty()) {
    if (r.trace.WriteJson(args.trace_out)) {
      std::printf("  trace: %zu spans written to %s\n", r.trace.spans().size(),
                  args.trace_out.c_str());
    } else {
      std::printf("  trace: could not write %s\n", args.trace_out.c_str());
    }
  }
  PrintJson(r);
  return r.correct ? 0 : 1;
}
