#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <exception>
#include <memory>

namespace perfbench {
namespace {

// Fewest executions a timed loop takes, however short --seconds is.
constexpr int kMinTimed = 3;
// Failure descriptions kept for the report.
constexpr std::size_t kMaxErrors = 4;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double TvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double nvcsw = 0.0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {TvSeconds(ru.ru_utime), TvSeconds(ru.ru_stime),
            static_cast<double>(ru.ru_nvcsw)};
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Delegating application that times every processor's Body: wall-clock
// and the thread's CPU time.  Each thread writes only its own slot, and
// Runtime::Run joins the threads before they are read.
class TracedApp final : public dsm::apps::Application {
 public:
  struct BodyTime {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t cpu_ns = 0;
  };

  explicit TracedApp(std::unique_ptr<dsm::apps::Application> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  std::string dataset() const override { return inner_->dataset(); }
  std::size_t heap_bytes() const override { return inner_->heap_bytes(); }
  void Setup(dsm::Runtime& rt) override {
    bodies_.assign(static_cast<std::size_t>(rt.config().num_procs), {});
    inner_->Setup(rt);
  }
  void Body(dsm::Proc& p) override {
    const std::int64_t start = NowNs();
    const std::int64_t cpu0 = ThreadCpuNs();
    inner_->Body(p);
    const std::int64_t cpu1 = ThreadCpuNs();
    bodies_[static_cast<std::size_t>(p.id())] = {start, NowNs(), cpu1 - cpu0};
  }
  double result() const override { return inner_->result(); }

  const std::vector<BodyTime>& bodies() const { return bodies_; }

 private:
  std::unique_ptr<dsm::apps::Application> inner_;
  std::vector<BodyTime> bodies_;
};

// Part of [begin, end) that no body interval covers.
std::int64_t Uncovered(std::int64_t begin, std::int64_t end,
                       std::vector<TracedApp::BodyTime> bodies) {
  std::sort(bodies.begin(), bodies.end(),
            [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0;
  std::int64_t reach = begin;
  for (const auto& b : bodies) {
    const std::int64_t s = std::max(b.start_ns, reach);
    const std::int64_t e = std::min(b.end_ns, end);
    if (e > s) covered += e - s;
    reach = std::max(reach, std::min(b.end_ns, end));
  }
  return (end - begin) - covered;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// max / mean of `v` (1 when all equal; 0 for an empty or all-zero list).
double Skew(const std::vector<double>& v) {
  double sum = 0.0;
  double max = 0.0;
  for (double x : v) {
    sum += x;
    max = std::max(max, x);
  }
  return v.empty() ? 0.0 : Ratio(max, sum / static_cast<double>(v.size()));
}

}  // namespace

std::vector<Metric> LayerMetrics(const Execution& e) {
  const dsm::CommBreakdown& c = e.stats.comm;
  const dsm::MemoryFootprint& m = e.stats.mem;
  double busy = 0.0;
  double blocked = 0.0;
  std::vector<double> busy_per_proc;
  for (const ProcTime& p : e.procs) {
    busy += p.cpu_s;
    blocked += p.wall_s - p.cpu_s;
    busy_per_proc.push_back(p.cpu_s);
  }
  std::vector<double> node_times;
  for (dsm::VirtualNanos t : e.stats.node_times) {
    node_times.push_back(static_cast<double>(t));
  }
  const auto n = [](std::uint64_t x) { return static_cast<double>(x); };
  const double faults = n(c.read_faults + c.write_faults);
  return {
      {"apps.make_s", e.make_s, "s"},
      {"apps.setup_s", e.app_setup_s, "s"},
      {"core.runtime_init_s", e.runtime_init_s, "s"},
      {"core.run_s", e.core_run_s, "s"},
      {"core.run_self_s", e.run_self_s, "s"},
      {"core.collect_s", e.collect_s, "s"},
      {"core.proc_busy_s", busy, "s"},
      {"core.proc_blocked_s", blocked, "s"},
      {"core.proc_busy_skew", Skew(busy_per_proc), "ratio"},
      {"core.read_faults", n(c.read_faults), "count"},
      {"core.write_faults", n(c.write_faults), "count"},
      {"core.silent_validations", n(c.silent_validations), "count"},
      {"core.units_invalidated", n(c.units_invalidated), "count"},
      {"core.twins_created", n(c.twins_created), "count"},
      {"core.host_us_per_fault", Ratio(busy * 1e6, faults), "us"},
      {"sync.messages", n(c.sync_messages), "count"},
      {"sync.host_ctx_switches", e.ctx_switches, "count"},
      {"sync.host_sys_s", e.sys_s, "s"},
      {"aggregation.group_prefetch_units", n(c.group_prefetch_units), "count"},
      {"home.fetches", n(c.home_fetches), "count"},
      {"home.fetch_bytes", n(c.home_fetch_bytes), "bytes"},
      {"home.flushes", n(c.home_flushes), "count"},
      {"home.flush_bytes", n(c.home_flush_bytes), "bytes"},
      {"gc.passes", n(m.gc_passes), "count"},
      {"gc.peak_live_intervals", n(m.peak_live_intervals), "count"},
      {"gc.peak_archive_bytes", n(m.peak_archive_bytes), "bytes"},
      {"gc.reclaimed_intervals", n(m.reclaimed_intervals), "count"},
      {"gc.canonical_base_bytes", n(m.canonical_base_peak_bytes), "bytes"},
      {"gc.chains_built", n(m.chains_built), "count"},
      {"gc.chains_shared", n(m.chains_shared), "count"},
      {"gc.records_elided", n(m.records_elided), "count"},
      {"mem.diffs_created", n(c.diffs_created), "count"},
      {"mem.diffs_applied", n(c.diffs_applied), "count"},
      {"mem.delivered_bytes", n(c.delivered_data_bytes), "bytes"},
      {"mem.useful_data_ratio",
       Ratio(n(c.useful_data_bytes), n(c.delivered_data_bytes)), "ratio"},
      {"net.messages", n(e.stats.net.total_messages()), "count"},
      {"net.useless_messages", n(c.useless_messages), "count"},
      {"net.data_bytes", n(e.stats.net.data_bytes()), "bytes"},
      {"net.useless_data_bytes", n(c.useless_data_bytes()), "bytes"},
      {"net.useful_msg_ratio",
       Ratio(n(c.useful_messages), n(c.useful_messages + c.useless_messages)),
       "ratio"},
      {"sim.node_time_skew", Skew(node_times), "ratio"},
  };
}

namespace {

// Per-name medians of a list of same-shaped metric lists.
std::vector<Metric> MedianMetrics(const std::vector<std::vector<Metric>>& all) {
  std::vector<Metric> out;
  if (all.empty()) return out;
  for (std::size_t i = 0; i < all.front().size(); ++i) {
    std::vector<double> values;
    for (const auto& one : all) values.push_back(one[i].value);
    out.push_back({all.front()[i].name, Median(values), all.front()[i].unit});
  }
  return out;
}

template <typename F>
std::vector<double> Collect(const std::vector<Execution>& execs, F field) {
  std::vector<double> out;
  for (const Execution& e : execs) {
    if (e.error.empty()) out.push_back(field(e));
  }
  return out;
}

void Fail(Report& r, const std::string& why) {
  r.failed += 1;
  if (r.errors.size() < kMaxErrors) r.errors.push_back(why);
}

// Checks one execution's output and counts it as attempted.
void Check(Report& r, const Workload& w, double expected, const Execution& e) {
  r.attempted += 1;
  if (!e.error.empty()) {
    Fail(r, "threw: " + e.error);
    return;
  }
  const std::string why = CheckOutput(w, expected, e.result, e.stats);
  if (!why.empty()) Fail(r, why);
}

}  // namespace

Trace::Trace() : origin_ns_(NowNs()) {}

// apps::Execute's heap sizing, which Execute does not expose: the app's
// bytes rounded up to whole consistency units.  Execute adds per-processor
// slack only past 8 processors.
static_assert(kNumProcs <= 8, "mirror apps::Execute's slack past 8 procs");
dsm::RuntimeConfig ExecutionConfig(const Workload& w,
                                   const dsm::apps::Application& app,
                                   dsm::BackendKind backend) {
  dsm::RuntimeConfig cfg = w.config;
  cfg.backend = backend;
  const std::size_t unit = cfg.unit_bytes();
  cfg.heap_bytes = (app.heap_bytes() + unit - 1) / unit * unit;
  return cfg;
}

int Trace::Add(Span span) {
  span.start_ns -= origin_ns_;
  span.end_ns -= origin_ns_;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

bool Trace::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"exec\": %d, \"proc\": %d, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"cpu_ns\": %lld}%s\n",
                 i, s.name.c_str(), s.parent, s.exec, s.proc,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.cpu_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

Execution RunOnce(const Workload& w, std::uint64_t seed,
                  dsm::BackendKind backend, Trace* trace) {
  Execution e;
  try {
    const std::int64_t t0 = NowNs();
    std::unique_ptr<dsm::apps::Application> app = w.MakeApp(seed);
    TracedApp* traced = nullptr;
    if (trace != nullptr) {
      auto wrapper = std::make_unique<TracedApp>(std::move(app));
      traced = wrapper.get();
      app = std::move(wrapper);
    }
    const std::int64_t t1 = NowNs();
    dsm::Runtime rt(ExecutionConfig(w, *app, backend));
    const std::int64_t t2 = NowNs();
    app->Setup(rt);
    const std::int64_t t3 = NowNs();
    e.make_s = Seconds(t1 - t0);
    e.runtime_init_s = Seconds(t2 - t1);
    e.app_setup_s = Seconds(t3 - t2);

    const Usage u0 = Usage::Now();
    const std::int64_t t4_begin = NowNs();
    rt.Run([&](dsm::Proc& p) { app->Body(p); });
    const std::int64_t t4 = NowNs();
    e.stats = rt.CollectStats();
    const std::int64_t t5 = NowNs();
    const Usage u1 = Usage::Now();
    e.result = app->result();
    e.core_run_s = Seconds(t4 - t4_begin);
    e.collect_s = Seconds(t5 - t4);
    e.cpu_s = (u1.user_s + u1.sys_s) - (u0.user_s + u0.sys_s);
    e.sys_s = u1.sys_s - u0.sys_s;
    e.ctx_switches = u1.nvcsw - u0.nvcsw;

    if (trace != nullptr) {
      const auto& bodies = traced->bodies();
      for (const auto& b : bodies) {
        e.procs.push_back({Seconds(b.end_ns - b.start_ns), Seconds(b.cpu_ns)});
      }
      e.run_self_s = Seconds(Uncovered(t4_begin, t4, bodies));
      const int exec = trace->NewExecution();
      const int root = trace->Add({"exec", -1, exec, -1, t0, t5});
      trace->Add({"apps.make", root, exec, -1, t0, t1});
      trace->Add({"core.runtime_init", root, exec, -1, t1, t2});
      trace->Add({"apps.setup", root, exec, -1, t2, t3});
      const int run = trace->Add({"core.run", root, exec, -1, t4_begin, t4});
      trace->Add({"core.collect", root, exec, -1, t4, t5});
      for (std::size_t p = 0; p < bodies.size(); ++p) {
        trace->Add({"core.proc_body", run, exec, static_cast<int>(p),
                    bodies[p].start_ns, bodies[p].end_ns, bodies[p].cpu_ns});
      }
    }
  } catch (const std::exception& ex) {
    e.error = ex.what();
  }
  return e;
}

double ExpectedResult(const Workload& w, std::uint64_t seed,
                      std::string& error) {
  if (!w.seeded || seed == w.default_seed) return w.pinned_result;
  const Execution ref =
      RunOnce(w, seed, dsm::BackendKind::kReference, nullptr);
  if (!ref.error.empty()) error = "reference execution threw: " + ref.error;
  return ref.result;
}

Report RunWorkload(const Workload& w, const Options& opt) {
  Report r;
  const dsm::BackendKind backend = w.config.backend;
  const Execution warm_up = RunOnce(w, opt.seed, backend, nullptr);

  std::vector<Execution> plain;
  std::vector<Execution> traced;
  const std::int64_t start = NowNs();
  while (Seconds(NowNs() - start) < opt.seconds ||
         static_cast<int>(plain.size()) < kMinTimed) {
    plain.push_back(RunOnce(w, opt.seed, backend, nullptr));
    if (opt.traced) traced.push_back(RunOnce(w, opt.seed, backend, &r.trace));
  }
  r.timed = static_cast<int>(plain.size() + traced.size());
  // Read before the reference execution, so the high-water mark is this
  // workload's own (warm-up and timed executions only).
  const double peak_rss_mb = PeakRssMb();

  std::string ref_error;
  const double expected = ExpectedResult(w, opt.seed, ref_error);
  if (!ref_error.empty()) {
    r.correct = false;
    r.errors.push_back(ref_error);
  }
  Check(r, w, expected, warm_up);
  for (const Execution& e : plain) Check(r, w, expected, e);
  for (const Execution& e : traced) Check(r, w, expected, e);
  // Tracing must not move modelled state.  Stable workloads already match
  // their pins; this names the traced execution when it alone differs.
  if (w.modelled_stable && !plain.empty()) {
    const Counters untraced = ModelledCounters(plain.front().stats);
    for (const Execution& e : traced) {
      if (e.error.empty() && ModelledCounters(e.stats) != untraced) {
        Fail(r, "traced modelled counters differ from untraced");
      }
    }
  }
  if (r.failed > 0) r.correct = false;

  const double error_rate =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  const auto run_s = [](const Execution& e) { return e.run_s(); };
  const std::vector<double> plain_run = Collect(plain, run_s);
  const auto [fastest, slowest] =
      std::minmax_element(plain_run.begin(), plain_run.end());
  const bool any = !plain_run.empty();
  // Host wall-clock is reported but not gated: it follows the host's
  // thread wake-up latency, which moved one run's median by up to 2x on a
  // shared VM while CPU time held (README.md, "What is gated").
  r.notes = {
      {"error_rate", error_rate, "fraction"},
      {"executions_timed", static_cast<double>(r.timed), "count"},
      {"run_s", Median(plain_run), "s"},
      {"run_s.min", any ? *fastest : 0.0, "s"},
      {"run_s.max", any ? *slowest : 0.0, "s"},
  };

  if (!opt.traced) {
    r.metrics = {
        {"cpu_s", Median(Collect(plain, [](const Execution& e) {
           return e.cpu_s;
         })), "s"},
        {"setup_s", Median(Collect(plain, [](const Execution& e) {
           return e.setup_s();
         })), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"modelled_s", Median(Collect(plain, [](const Execution& e) {
           return e.stats.exec_seconds();
         })), "model_s"},
        {"success_rate", 1.0 - error_rate, "fraction"},
    };
    return r;
  }

  std::vector<std::vector<Metric>> layers;
  for (const Execution& e : traced) {
    if (e.error.empty()) layers.push_back(LayerMetrics(e));
  }
  r.metrics = MedianMetrics(layers);
  r.metrics.push_back(
      {"trace.overhead_s", Median(Collect(traced, run_s)) - Median(plain_run),
       "s"});
  return r;
}

}  // namespace perfbench
