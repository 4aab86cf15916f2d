// Self-tests of the benchmark: it must measure the same executions
// apps::Execute runs, tracing must not move modelled state, the per-proc
// time split must add up, and a wrong pin must fail every execution.
#include <gtest/gtest.h>

#include <cstring>
#include <ctime>

#include "measure.h"

namespace perfbench {
namespace {

const Workload& Get(const std::string& name) {
  const Workload* w = FindWorkload(name);
  if (w == nullptr) throw std::invalid_argument("no workload " + name);
  return *w;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double MetricValue(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::invalid_argument("no metric " + name);
}

// Delegating application that records the heap Execute gives it.
class HeapProbe final : public dsm::apps::Application {
 public:
  explicit HeapProbe(std::unique_ptr<dsm::apps::Application> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  std::string dataset() const override { return inner_->dataset(); }
  std::size_t heap_bytes() const override { return inner_->heap_bytes(); }
  void Setup(dsm::Runtime& rt) override {
    heap_ = rt.config().heap_bytes;
    inner_->Setup(rt);
  }
  void Body(dsm::Proc& p) override { inner_->Body(p); }
  double result() const override { return inner_->result(); }

  std::size_t heap() const { return heap_; }

 private:
  std::unique_ptr<dsm::apps::Application> inner_;
  std::size_t heap_ = 0;
};

TEST(PerfbenchSelfTest, SplitPhaseRunMatchesExecute) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    HeapProbe probe(w.MakeApp(w.default_seed));
    const dsm::apps::AppRun run = dsm::apps::Execute(probe, w.config);
    const Execution e =
        RunOnce(w, w.default_seed, w.config.backend, nullptr);
    ASSERT_EQ(e.error, "");
    EXPECT_EQ(ExecutionConfig(w, probe, w.config.backend).heap_bytes,
              probe.heap());
    EXPECT_TRUE(SameBits(e.result, run.result));
    EXPECT_EQ(CheckOutput(w, w.pinned_result, e.result, e.stats), "");
    // KV's lock grants follow host scheduling: only its result repeats.
    if (w.modelled_stable) {
      EXPECT_EQ(ModelledCounters(e.stats), ModelledCounters(run.stats));
    }
  }
}

TEST(PerfbenchSelfTest, TracingLeavesModelledStateBitIdentical) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    Trace trace;
    const Execution plain =
        RunOnce(w, w.default_seed, w.config.backend, nullptr);
    const Execution traced =
        RunOnce(w, w.default_seed, w.config.backend, &trace);
    ASSERT_EQ(plain.error, "");
    ASSERT_EQ(traced.error, "");
    EXPECT_TRUE(SameBits(plain.result, traced.result));
    if (w.modelled_stable) {
      EXPECT_EQ(ModelledCounters(plain.stats), ModelledCounters(traced.stats));
    }
    // exec, its five children, and one core.proc_body per processor.
    EXPECT_EQ(trace.spans().size(), 6u + kNumProcs);
  }
}

TEST(PerfbenchSelfTest, ProcBusyPlusBlockedIsBodyWallClock) {
  const Workload& w = Get("ilink-dyn-hlrc");
  Trace trace;
  const Execution e = RunOnce(w, w.default_seed, w.config.backend, &trace);
  ASSERT_EQ(e.error, "");
  ASSERT_EQ(e.procs.size(), static_cast<std::size_t>(kNumProcs));

  timespec res{};
  clock_getres(CLOCK_THREAD_CPUTIME_ID, &res);
  const double tick = 2e-9 + static_cast<double>(res.tv_nsec) * 1e-9;
  double body_wall = 0.0;
  int run_span = -1;
  for (std::size_t i = 0; i < trace.spans().size(); ++i) {
    const Span& s = trace.spans()[i];
    if (s.name == "core.run") run_span = static_cast<int>(i);
    if (s.name != "core.proc_body") continue;
    EXPECT_EQ(s.parent, run_span);
    const ProcTime& p = e.procs[static_cast<std::size_t>(s.proc)];
    const double span_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    EXPECT_NEAR(p.wall_s, span_s, 1e-9);
    // A thread cannot be busy for longer than its Body lasted.
    EXPECT_LE(p.cpu_s, p.wall_s + tick);
    body_wall += span_s;
  }
  const std::vector<Metric> layers = LayerMetrics(e);
  const double busy = MetricValue(layers, "core.proc_busy_s");
  const double blocked = MetricValue(layers, "core.proc_blocked_s");
  EXPECT_GT(busy, 0.0);
  EXPECT_GE(blocked, -kNumProcs * tick);
  EXPECT_NEAR(busy + blocked, body_wall, kNumProcs * tick);
  EXPECT_GE(MetricValue(layers, "core.run_self_s"), 0.0);
  EXPECT_LE(MetricValue(layers, "core.run_self_s"), e.core_run_s);
}

TEST(PerfbenchSelfTest, WrongPinFailsEveryExecution) {
  Workload wrong_result = Get("ilink-dyn-hlrc");
  wrong_result.pinned_result += 1.0;
  Workload wrong_counter = Get("ilink-dyn-hlrc");
  wrong_counter.pinned_counters.back().value += 1;
  for (const Workload* w : {&wrong_result, &wrong_counter}) {
    Options opt;
    opt.seed = w->default_seed;
    opt.seconds = 0.0;
    const Report r = RunWorkload(*w, opt);
    EXPECT_FALSE(r.correct);
    EXPECT_GT(r.attempted, 0);
    EXPECT_EQ(r.failed, r.attempted);
    EXPECT_EQ(MetricValue(r.notes, "error_rate"), 1.0);
    EXPECT_EQ(MetricValue(r.metrics, "success_rate"), 0.0);
  }
}

TEST(PerfbenchSelfTest, OtherSeedsAreCheckedAgainstTheReferenceBackend) {
  const Workload& kv = Get("kv-hot-lrc");
  const std::uint64_t seed = 3;
  std::string error;
  const double expected = ExpectedResult(kv, seed, error);
  EXPECT_EQ(error, "");
  EXPECT_FALSE(SameBits(expected, kv.pinned_result));
  const Execution e = RunOnce(kv, seed, kv.config.backend, nullptr);
  ASSERT_EQ(e.error, "");
  EXPECT_EQ(CheckOutput(kv, expected, e.result, e.stats), "");
}

}  // namespace
}  // namespace perfbench
