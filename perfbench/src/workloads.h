// The benchmark's workloads: one application input at one consistency-unit
// configuration each, plus the pins its every execution is checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/app_common.h"
#include "core/runtime.h"

namespace perfbench {

// Simulated processors of every workload.  A constant, not the host's core
// count: modelled state depends on it, and 4 keeps the simulator's threads
// (one per processor) within a 4-core host.  The paper's 8-processor
// figures stay with bench_fig* / bench_table1.
inline constexpr int kNumProcs = 4;

// One exactly comparable modelled quantity of a RunStats.
struct Counter {
  std::string name;
  std::uint64_t value = 0;
  bool operator==(const Counter&) const = default;
};
using Counters = std::vector<Counter>;

// Every modelled quantity of `stats` as named counters: execution and
// per-node virtual times, each CommBreakdown counter and signature bucket,
// and each NetStats message kind.  Host-side telemetry (`mem`, races,
// recovery wall time) is left out.
Counters ModelledCounters(const dsm::RunStats& stats);

struct Workload {
  std::string name;
  std::string why;
  std::string app;      // registry name ("MGS", "KV", "ILINK")
  std::string dataset;  // registry dataset
  dsm::RuntimeConfig config;
  // True when --seed drives the input (KV's request stream through
  // KvParams::seed).  MGS and ILINK inputs are fixed by the apps.
  bool seeded = false;
  std::uint64_t default_seed = 0;
  // result() at default_seed, compared bit for bit.
  double pinned_result = 0.0;
  // True when the modelled state repeats bit for bit (barrier-only apps).
  // KV's lock grants follow host scheduling, so only its checksum repeats.
  bool modelled_stable = false;
  // Exact ModelledCounters of every execution; empty when not stable.
  Counters pinned_counters;

  // The application instance for `seed` (ignored unless `seeded`).
  std::unique_ptr<dsm::apps::Application> MakeApp(std::uint64_t seed) const;
};

const std::vector<Workload>& Workloads();
// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

// Why an execution's output is wrong, or "" when it passes: the data-byte
// identity useful + useless == delivered, the result against `expected`,
// and the pinned counters of a stable workload.
std::string CheckOutput(const Workload& w, double expected, double result,
                        const dsm::RunStats& stats);

}  // namespace perfbench
