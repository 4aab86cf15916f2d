// Split-phase execution of a workload through the library's public calls
// (the steps of apps::Execute, each timed), the optional span trace, and
// the per-workload measurement loop that turns executions into metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

// One recorded interval.  Times are steady-clock nanoseconds since the
// trace began; `parent` indexes Trace::spans() (-1 for a root).
struct Span {
  std::string name;
  int parent = -1;
  int exec = 0;   // execution id; spans of one execution share it
  int proc = -1;  // simulated processor, core.proc_body only
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = -1;  // thread CPU time, core.proc_body only
};

// Spans held in memory, written out once at the end of a run.  Add takes
// absolute steady-clock times and stores them relative to the trace's
// start.  Not thread-safe: only the measuring thread appends.
class Trace {
 public:
  Trace();
  int NewExecution() { return next_exec_++; }
  int Add(Span span);
  const std::vector<Span>& spans() const { return spans_; }
  // JSON array of span objects; false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t origin_ns_ = 0;
  int next_exec_ = 0;
  std::vector<Span> spans_;
};

// Host time of one simulated processor's Body.
struct ProcTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // the thread's CPU time
};

// One execution: MakeApp, the Runtime constructor, Setup, Run and
// CollectStats.
struct Execution {
  double make_s = 0.0;
  double runtime_init_s = 0.0;
  double app_setup_s = 0.0;
  double core_run_s = 0.0;
  double collect_s = 0.0;
  double run_self_s = 0.0;  // core.run not covered by any proc body (traced)
  // Process rusage deltas over Run + CollectStats.
  double cpu_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;  // voluntary
  std::vector<ProcTime> procs;  // one per processor, traced executions only
  dsm::RunStats stats;
  double result = 0.0;
  std::string error;  // what() of an exception; "" when it completed

  double setup_s() const { return make_s + runtime_init_s + app_setup_s; }
  double run_s() const { return core_run_s + collect_s; }
};

// The configuration RunOnce runs `app` under: the workload's, with
// `backend` and apps::Execute's heap sizing.
dsm::RuntimeConfig ExecutionConfig(const Workload& w,
                                   const dsm::apps::Application& app,
                                   dsm::BackendKind backend);

// Run `w` once under `backend`.  With a trace, records the span tree of
// this execution and wraps the application to time every Body.  Throws
// nothing: a failure is returned in Execution::error.
Execution RunOnce(const Workload& w, std::uint64_t seed,
                  dsm::BackendKind backend, Trace* trace);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The per-layer metrics of one traced execution.
std::vector<Metric> LayerMetrics(const Execution& e);

struct Options {
  std::uint64_t seed = 0;
  double seconds = 10.0;  // length of the timed loop
  bool traced = false;
};

struct Report {
  bool correct = true;
  int attempted = 0;
  int failed = 0;
  int timed = 0;  // executions inside the timed loop
  std::vector<std::string> errors;  // first few failure descriptions
  std::vector<Metric> metrics;
  std::vector<Metric> notes;  // printed for people, not in the JSON
  Trace trace;
};

// The workload's measurement: a discarded warm-up execution, then
// executions until `seconds` have passed, each output checked.
// Untraced, the metrics are the end-to-end ones; traced, executions
// alternate untraced/traced and the metrics are the per-layer ones.
Report RunWorkload(const Workload& w, const Options& opt);

// The expected result() at `seed`: the pin at the default seed, otherwise
// that of one untimed reference-backend execution of the same inputs.
// Sets `error` when the reference execution fails.
double ExpectedResult(const Workload& w, std::uint64_t seed,
                      std::string& error);

}  // namespace perfbench
