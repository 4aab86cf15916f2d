// Host wall-clock benchmark gate for the simulator's hot paths.
//
// Runs the conformance applications at scaled-up (paper-sized) datasets
// under the three aggregation modes of the sweep, for both protocol
// backends ({4 K, 16 K, Dyn} × {LRC, HLRC}; filter with --backend=), and
// reports, per row:
//
//   * host wall-clock (what engine optimizations are allowed to change),
//   * modelled execution time (what they must NOT change),
//   * a 64-bit FNV-1a fingerprint over the full modelled state — result
//     checksum bits, per-node virtual times, every CommBreakdown counter,
//     and the per-kind NetStats tallies.
//
// Rows whose application is bit-deterministic at a fixed configuration
// (every conformance scenario with rel_tol == 0) are marked "stable": their
// fingerprint must be bit-identical across engine changes, making this
// binary a before/after gate for performance work.  Results land in
// BENCH_wallclock.json at the repository root (override with --out=PATH)
// so the perf trajectory is tracked from PR to PR.
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/kvstore.h"
#include "apps/registry.h"

namespace dsm::bench {
namespace {

// FNV-1a, 64-bit: stable, dependency-free fingerprint accumulator.
class Fingerprint {
 public:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void MixDouble(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t ModelledFingerprint(double result, const RunStats& stats) {
  Fingerprint fp;
  fp.MixDouble(result);
  fp.Mix(static_cast<std::uint64_t>(stats.exec_time));
  for (VirtualNanos t : stats.node_times) {
    fp.Mix(static_cast<std::uint64_t>(t));
  }
  const CommBreakdown& c = stats.comm;
  for (std::uint64_t v :
       {c.useful_messages, c.useless_messages, c.sync_messages,
        c.useful_data_bytes, c.piggyback_useless_bytes,
        c.useless_msg_data_bytes, c.delivered_data_bytes, c.read_faults,
        c.write_faults, c.silent_validations, c.twins_created,
        c.diffs_created, c.diffs_applied, c.units_invalidated,
        c.group_prefetch_units}) {
    fp.Mix(v);
  }
  // HLRC home counters, mixed only when engaged: they are always zero
  // under the LRC backend, and unconditionally mixing the new fields
  // would have changed every fingerprint committed before the HLRC
  // backend existed.
  if (c.home_flush_messages + c.home_flushes + c.home_fetches > 0) {
    for (std::uint64_t v : {c.home_flush_messages, c.home_flushes,
                            c.home_flush_bytes, c.home_fetches,
                            c.home_fetch_bytes}) {
      fp.Mix(v);
    }
  }
  // Crash-recovery counters (DESIGN.md §9), same zero-entry skip rule:
  // a run with no fired fault hashes exactly as before the subsystem
  // existed; a faulted row pins the full recovery trajectory (messages,
  // bytes, rebuilt units, replayed records, modelled latency).
  if (c.recoveries > 0) {
    for (std::uint64_t v : {c.recoveries, c.recovery_messages,
                            c.recovery_data_bytes, c.recovery_units,
                            c.recovery_records, c.recovery_retransmits,
                            c.recovery_retransmit_bytes}) {
      fp.Mix(v);
    }
    fp.Mix(static_cast<std::uint64_t>(stats.recovery_modelled_ns));
  }
  for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    const std::uint64_t msgs = stats.net.messages(kind);
    const std::uint64_t bytes = stats.net.bytes(kind);
    // Same back-compat rule for the message kinds appended for HLRC:
    // zero entries of the new kinds are skipped so pre-HLRC rows hash
    // exactly as before.
    if (k >= kFirstHomeMessageKind && msgs == 0 && bytes == 0) continue;
    fp.Mix(msgs);
    fp.Mix(bytes);
  }
  return fp.value();
}

struct ModePoint {
  const char* label;
  AggregationMode mode;
  int pages_per_unit;
};

// The conformance sweep's aggregation modes (tests/test_conformance.cc).
const ModePoint kModes[] = {
    {"4K", AggregationMode::kStatic, 1},
    {"16K", AggregationMode::kStatic, 4},
    {"Dyn", AggregationMode::kDynamic, 1},
};

struct BenchScenario {
  const char* app;
  const char* dataset;  // scaled-up counterpart of the "tiny" scenario
  bool stable;          // rel_tol == 0 in the conformance catalogue
};

// One row per conformance application, at the smallest paper-sized dataset
// (the "tiny" conformance inputs finish in microseconds and would measure
// only startup).  Water and TSP synchronize through locks, whose grant
// order depends on host scheduling — their modelled state is not
// bit-reproducible run to run, so they are benchmarked but not gated.
const BenchScenario kScenarios[] = {
    {"Jacobi", "1Kx1K", true},    {"MGS", "1Kx1K", true},
    {"3D-FFT", "64x64x32", true}, {"Shallow", "1Kx0.5K", true},
    {"Barnes", "16K", true},      {"ILINK", "CLP", true},
    {"Water", "512", false},      {"TSP", "11-city", false},
};

// Protocol backends benched side by side: the paper's LRC and the
// home-based counterpart (DESIGN.md §7).  The reference oracle is a
// correctness tool, not a performance point, so it is not swept here.
struct BackendPoint {
  const char* label;
  BackendKind backend;
};

const BackendPoint kBackends[] = {
    {"LRC", BackendKind::kLrc},
    {"HLRC", BackendKind::kHlrc},
};

struct Row {
  std::string app, dataset, mode, backend;
  std::string fault;  // crash-schedule spec, "" = failure-free row
  int procs = 8;
  int gc_lag = 0;  // non-default gc_lag_barriers for fault-sweep rows
  bool stable = false;
  // --race=on: the happens-before checker ran; `races` is its report
  // count.  Host-side observation only — excluded from the fingerprint
  // (like mem), which must stay bit-identical to a --race=off sweep.
  bool race_checked = false;
  std::uint64_t races = 0;
  double wall_ms = 0;
  double modelled_ms = 0;
  double result = 0;
  std::uint64_t fingerprint = 0;
  // Recovery-cost axis (fault rows only): modelled recovery latency and
  // the bytes/retransmits the rebuilds put on the books.
  double recovery_ms = 0;
  std::uint64_t recovery_bytes = 0;
  std::uint64_t recovery_retransmits = 0;
  // KV rows only: modelled request count and throughput
  // (requests / modelled execution time).  Derived from modelled numbers
  // but — like the mem telemetry — excluded from the fingerprint: KV is
  // lock-scheduled, so its modelled time is not bit-stable anyway.
  std::uint64_t kv_requests = 0;
  double kv_rps = 0;
  MemoryFootprint mem;
};

void Usage(std::FILE* f) {
  std::fprintf(
      f,
      "usage: bench_wallclock [--procs=N[,N...]] [--gc=N] [--app=SUBSTR]\n"
      "                       [--mode=SUBSTR] [--backend=LRC|HLRC]\n"
      "                       [--fault=EVENT[+EVENT...]|seed:S]\n"
      "                       [--fault-sweep] [--kv-sweep] [--race=on|off] "
      "[--out=PATH] [--baseline=PATH]\n"
      "  EVENT is barrier:V@N (kill proc V at its N-th barrier) or\n"
      "  release:V@M (kill proc V after its M-th interval close); '+'\n"
      "  chains events into an ordered multi-fault schedule.  Any victim\n"
      "  is legal, proc 0 included.  seed:S derives the whole schedule\n"
      "  from the 64-bit seed S.  --fault-sweep runs the recovery-cost\n"
      "  slice: a proc-0 + home-crash schedule across gc_lag_barriers\n"
      "  in {1,2,4,8} on both backends.  --kv-sweep runs the KV request\n"
      "  slice: the three KV mixes (read-mostly / write-heavy / hot, each\n"
      "  >= 1M modelled requests) on both backends, reporting modelled\n"
      "  requests/sec per row.  --race=on runs the sweep under\n"
      "  the happens-before race checker (DESIGN.md §10): host wall-clock\n"
      "  pays for the shadow analysis, modelled numbers and fingerprints\n"
      "  are bit-identical to --race=off.\n");
}

// --race takes exactly "on" or "off" — the same whole-token strictness as
// ParseCount: a typo ('--race=On', '--race=1') must not silently run an
// unchecked sweep that is then read as a clean race report.
bool ParseRaceFlag(const char* s) {
  if (std::strcmp(s, "on") == 0) return true;
  if (std::strcmp(s, "off") == 0) return false;
  std::fprintf(stderr, "--race: invalid value '%s' (want on|off)\n", s);
  Usage(stderr);
  std::exit(2);
}

// Validated numeric flag parsing: the whole token must be a base-10
// integer >= min_value.  std::atoi silently turned garbage ('--procs=8x',
// '--gc=') into 0 and ran a nonsense sweep; reject with a usage error.
int ParseCount(const char* flag, const char* s, int min_value) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < min_value ||
      v > 1 << 20) {
    std::fprintf(stderr, "%s: invalid value '%s' (integer >= %d required)\n",
                 flag, s, min_value);
    Usage(stderr);
    std::exit(2);
  }
  return static_cast<int>(v);
}

// A crash schedule plus the row tag it is reported under.  Default = inert.
struct FaultSpec {
  std::string label;  // "" = no fault
  dsm::FaultSchedule schedule;
};

// --fault accepts an ordered '+'-separated schedule of crash events —
// "barrier:V@N" (kill proc V at its N-th barrier) and "release:V@M"
// (kill proc V after its M-th interval close), any victim including
// proc 0, e.g. "barrier:0@4+release:2@6" — or "seed:S" (1–3 events fully
// derived from the 64-bit seed S).  Anything else is a usage error
// (exit 2) — a silently ignored crash spec would report failure-free
// numbers as a fault row.
FaultSpec ParseFaultSpec(const char* s) {
  auto fail = [s]() -> FaultSpec {
    std::fprintf(stderr,
                 "--fault: invalid spec '%s' (want barrier:V@N or "
                 "release:V@M, '+'-chained, or seed:S)\n",
                 s);
    Usage(stderr);
    std::exit(2);
  };
  FaultSpec spec;
  spec.label = s;
  if (std::strncmp(s, "seed:", 5) == 0) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long seed = std::strtoull(s + 5, &end, 10);
    if (errno != 0 || end == s + 5 || *end != '\0') return fail();
    spec.schedule = dsm::FaultSchedule::FromSeed(seed);
    return spec;
  }
  const char* p = s;
  while (true) {
    const char* plus = std::strchr(p, '+');
    const std::string tok =
        plus != nullptr ? std::string(p, plus) : std::string(p);
    const bool at_barrier = tok.compare(0, 8, "barrier:") == 0;
    const bool after_release = tok.compare(0, 8, "release:") == 0;
    if (!at_barrier && !after_release) return fail();
    const std::size_t at = tok.find('@', 8);
    if (at == std::string::npos || at == 8 || at + 1 == tok.size()) {
      return fail();
    }
    const int victim =
        ParseCount("--fault victim", tok.substr(8, at - 8).c_str(), 0);
    const int point = ParseCount("--fault point", tok.c_str() + at + 1,
                                 at_barrier ? 0 : 1);
    spec.schedule.events.push_back(
        at_barrier ? dsm::FaultPlan::AtBarrier(victim, point)
                   : dsm::FaultPlan::AfterRelease(victim, point));
    if (plus == nullptr) break;
    p = plus + 1;
  }
  return spec;
}

// --procs accepts a comma-separated sweep list ("--procs=8,16,64").
std::vector<int> ParseProcsList(const char* s) {
  std::vector<int> list;
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p != '\0' && *p != ',') {
      token.push_back(*p);
      continue;
    }
    list.push_back(ParseCount("--procs", token.c_str(), 1));
    token.clear();
    if (*p == '\0') break;
  }
  return list;
}

Row RunCell(const BenchScenario& s, const ModePoint& mode,
            const BackendPoint& backend, int num_procs, int gc_interval,
            const FaultSpec& fault, int gc_lag = 0,
            bool race_check = false) {
  RuntimeConfig cfg;
  cfg.num_procs = num_procs;
  cfg.aggregation = mode.mode;
  cfg.pages_per_unit = mode.pages_per_unit;
  cfg.backend = backend.backend;
  cfg.gc_interval_barriers = gc_interval;
  cfg.fault = fault.schedule;
  cfg.race_check = race_check;
  if (gc_lag > 0) cfg.gc_lag_barriers = gc_lag;

  auto app = apps::MakeApp(s.app, s.dataset);
  const auto t0 = std::chrono::steady_clock::now();
  const apps::AppRun run = apps::Execute(*app, cfg);
  const auto t1 = std::chrono::steady_clock::now();

  Row row;
  row.app = s.app;
  row.dataset = s.dataset;
  row.mode = mode.label;
  row.backend = backend.label;
  row.fault = fault.label;
  row.procs = num_procs;
  row.gc_lag = gc_lag;
  row.stable = s.stable;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.modelled_ms = run.stats.exec_seconds() * 1e3;
  row.result = run.result;
  row.fingerprint = ModelledFingerprint(run.result, run.stats);
  row.recovery_ms =
      static_cast<double>(run.stats.recovery_modelled_ns) / 1e6;
  row.recovery_bytes = run.stats.comm.recovery_data_bytes;
  row.recovery_retransmits = run.stats.comm.recovery_retransmits;
  row.race_checked = run.stats.races.checked;
  row.races = run.stats.races.reports.size() + run.stats.races.dropped;
  if (const auto* kv = dynamic_cast<const apps::KvStore*>(app.get())) {
    row.kv_requests = kv->ModelledRequests(num_procs);
    const double modelled_s = run.stats.exec_seconds();
    if (modelled_s > 0) {
      row.kv_rps = static_cast<double>(row.kv_requests) / modelled_s;
    }
  }
  row.mem = run.stats.mem;
  return row;
}

// Minimal reader for the JSON this binary itself writes (one row object
// per line): extracts (app, dataset, mode, stable, wall_ms) per row.
struct BaselineRow {
  std::string app, dataset, mode, backend;
  std::string fault;  // absent in pre-fault baselines → ""
  int procs = 8;
  int gc_lag = 0;  // absent outside fault-sweep rows → 0
  bool stable = false;
  double wall_ms = 0;
  // Result checksum, %.17g-round-tripped (exact for doubles).  KV rows
  // gate on this instead of wall-clock: their host time is lock-schedule
  // noisy, but the commuting checksum must never move.
  double result = 0;
  bool has_result = false;
};

std::vector<BaselineRow> ReadBaseline(const std::string& path) {
  std::vector<BaselineRow> rows;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    return rows;
  }
  char line[2048];
  auto field = [](const char* s, const char* key) -> std::string {
    const char* p = std::strstr(s, key);
    if (p == nullptr) return {};
    p += std::strlen(key);
    const char* e = std::strchr(p, '"');
    return e != nullptr ? std::string(p, e) : std::string();
  };
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strstr(line, "\"app\"") == nullptr) continue;
    BaselineRow r;
    r.app = field(line, "\"app\": \"");
    r.dataset = field(line, "\"dataset\": \"");
    r.mode = field(line, "\"mode\": \"");
    // Baselines written before the backend dimension existed are all LRC.
    r.backend = field(line, "\"backend\": \"");
    if (r.backend.empty()) r.backend = "LRC";
    // Rows written before the fault dimension (or failure-free rows, which
    // omit the field) are all failure-free.
    r.fault = field(line, "\"fault\": \"");
    // Baselines written before the procs dimension are all 8-processor.
    const char* pp = std::strstr(line, "\"procs\": ");
    if (pp != nullptr) r.procs = std::atoi(pp + 9);
    const char* gl = std::strstr(line, "\"gc_lag\": ");
    if (gl != nullptr) r.gc_lag = std::atoi(gl + 10);
    r.stable = std::strstr(line, "\"stable\": true") != nullptr;
    const char* w = std::strstr(line, "\"wall_ms\": ");
    if (w != nullptr) r.wall_ms = std::atof(w + 11);
    const char* res = std::strstr(line, "\"result\": ");
    if (res != nullptr) {
      r.result = std::atof(res + 10);
      r.has_result = true;
    }
    if (!r.app.empty()) rows.push_back(std::move(r));
  }
  std::fclose(f);
  return rows;
}

// Gate: every stable row's host wall-clock must stay within
// `tolerance` (fractional) of the committed baseline.  Unstable rows
// (lock programs) and rows missing from the baseline are reported but
// never gate on wall-clock — but KV rows gate on their CHECKSUM instead:
// the commuting-checksum construction makes the result exact under any
// lock schedule, so a moved KV result is a correctness regression even
// though the row's host time is free to drift.  Returns the number of
// regressions.
int CompareToBaseline(const std::vector<Row>& rows,
                      const std::vector<BaselineRow>& baseline,
                      double tolerance) {
  int regressions = 0;
  for (const Row& r : rows) {
    const BaselineRow* base = nullptr;
    for (const BaselineRow& b : baseline) {
      if (b.app == r.app && b.dataset == r.dataset && b.mode == r.mode &&
          b.backend == r.backend && b.fault == r.fault &&
          b.procs == r.procs && b.gc_lag == r.gc_lag) {
        base = &b;
        break;
      }
    }
    if (base == nullptr) {
      std::printf("baseline: %s/%s/%s/%s/p%d not in baseline (new row?)\n",
                  r.app.c_str(), r.dataset.c_str(), r.mode.c_str(),
                  r.backend.c_str(), r.procs);
      continue;
    }
    if (r.app == "KV" && base->has_result && r.result != base->result) {
      ++regressions;
      std::printf(
          "baseline: %-8s %-10s %-4s %-4s p%-3d checksum %.17g -> %.17g"
          "  CHECKSUM REGRESSION\n",
          r.app.c_str(), r.dataset.c_str(), r.mode.c_str(),
          r.backend.c_str(), r.procs, base->result, r.result);
      continue;
    }
    const double ratio = base->wall_ms > 0 ? r.wall_ms / base->wall_ms : 1.0;
    const bool gated = r.stable && base->stable;
    const bool regressed = gated && ratio > 1.0 + tolerance;
    if (regressed) ++regressions;
    if (regressed || ratio > 1.0 + tolerance) {
      std::printf(
          "baseline: %-8s %-10s %-4s %-4s p%-3d %8.1f -> %8.1f ms "
          "(%+.0f%%)%s\n",
          r.app.c_str(), r.dataset.c_str(), r.mode.c_str(),
          r.backend.c_str(), r.procs, base->wall_ms, r.wall_ms,
          (ratio - 1.0) * 100,
          regressed ? "  REGRESSION" : "  (unstable, not gated)");
    }
  }
  if (regressions > 0) {
    std::printf("baseline gate FAILED: %d stable row(s) regressed >%.0f%%\n",
                regressions, tolerance * 100);
  } else {
    std::printf("baseline gate passed (tolerance %.0f%%)\n",
                tolerance * 100);
  }
  return regressions;
}

void WriteJson(const std::vector<Row>& rows, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    // Failure-free rows omit the fault/recovery fields entirely
    // (zero-entry skip rule): a pre-fault baseline and a regenerated one
    // stay line-for-line comparable on every pre-existing row.  Fault
    // rows carry the full schedule spec plus the recovery-cost axis
    // (modelled recovery latency, recovery bytes, retransmits), and
    // fault-sweep rows add the gc_lag point they were run at.
    std::string fault_field =
        r.fault.empty() ? "" : "\"fault\": \"" + r.fault + "\", ";
    // Race column, keyed on the flag (not the count): a checked row with
    // zero races records "certified clean", an unchecked row omits the
    // field so --race=off output is line-for-line the pre-detector shape.
    if (r.race_checked) {
      fault_field += "\"races\": " + std::to_string(r.races) + ", ";
    }
    if (!r.fault.empty() && r.gc_lag > 0) {
      fault_field += "\"gc_lag\": " + std::to_string(r.gc_lag) + ", ";
    }
    if (!r.fault.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"recovery_ms\": %.6f, \"recovery_bytes\": %llu, "
                    "\"recovery_retransmits\": %llu, ",
                    r.recovery_ms,
                    static_cast<unsigned long long>(r.recovery_bytes),
                    static_cast<unsigned long long>(r.recovery_retransmits));
      fault_field += buf;
    }
    // KV request-throughput axis, same zero-entry skip rule: non-KV rows
    // are byte-identical to a build without the column.
    if (r.kv_requests > 0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "\"requests\": %llu, "
                    "\"modelled_requests_per_sec\": %.3f, ",
                    static_cast<unsigned long long>(r.kv_requests), r.kv_rps);
      fault_field += buf;
    }
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"dataset\": \"%s\", \"mode\": "
        "\"%s\", \"backend\": \"%s\", %s\"procs\": %d, \"stable\": %s, "
        "\"wall_ms\": %.3f, "
        "\"modelled_ms\": %.6f, \"result\": %.17g, "
        "\"fingerprint\": \"%016llx\", "
        "\"peak_live_intervals\": %llu, \"peak_archive_bytes\": %llu, "
        "\"reclaimed_intervals\": %llu, \"canonical_base_bytes\": %llu, "
        "\"gc_passes\": %llu, \"chains_built\": %llu, "
        "\"chains_shared\": %llu}%s\n",
        r.app.c_str(), r.dataset.c_str(), r.mode.c_str(), r.backend.c_str(),
        fault_field.c_str(), r.procs, r.stable ? "true" : "false", r.wall_ms,
        r.modelled_ms,
        r.result,
        static_cast<unsigned long long>(r.fingerprint),
        static_cast<unsigned long long>(r.mem.peak_live_intervals),
        static_cast<unsigned long long>(r.mem.peak_archive_bytes),
        static_cast<unsigned long long>(r.mem.reclaimed_intervals),
        static_cast<unsigned long long>(r.mem.canonical_base_peak_bytes),
        static_cast<unsigned long long>(r.mem.gc_passes),
        static_cast<unsigned long long>(r.mem.chains_built),
        static_cast<unsigned long long>(r.mem.chains_shared),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace dsm::bench

int main(int argc, char** argv) {
  using namespace dsm::bench;
#ifdef PAGEDSM_SOURCE_DIR
  std::string out = std::string(PAGEDSM_SOURCE_DIR) + "/BENCH_wallclock.json";
#else
  std::string out = "BENCH_wallclock.json";
#endif
  std::vector<int> procs_list;
  int gc_interval = dsm::RuntimeConfig{}.gc_interval_barriers;
  std::string app_filter, mode_filter, backend_filter, baseline_path;
  FaultSpec fault_spec;  // inert unless --fault= is given
  bool fault_sweep_only = false;
  bool kv_sweep_only = false;
  bool race_check = false;
  bool explicit_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
      explicit_out = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      // CI gate (see .github/workflows/ci.yml Release job): compare this
      // sweep's host wall-clock against the committed BENCH_wallclock.json
      // and exit non-zero if any STABLE row regressed more than 25% — the
      // Water-class "GC quietly costs half the wall-clock" regressions get
      // caught by the unstable-row report lines even though locks keep
      // those rows from gating hard.
      baseline_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--procs=", 8) == 0) {
      procs_list = ParseProcsList(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--gc=", 5) == 0) {
      gc_interval = ParseCount("--gc", argv[i] + 5, 0);
    } else if (std::strncmp(argv[i], "--app=", 6) == 0) {
      // Row filters for local iteration (case-sensitive substring match,
      // so the full sweep is not the only way to time one app):
      //   --app=MGS --mode=16K
      app_filter = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      mode_filter = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      // Backend filter is an exact label ("LRC" / "HLRC"): substring
      // matching would make --backend=LRC select both trajectories.
      backend_filter = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--fault=", 8) == 0) {
      // Run every selected row under this crash schedule (DESIGN.md §9).
      fault_spec = ParseFaultSpec(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--fault-sweep") == 0) {
      fault_sweep_only = true;
    } else if (std::strcmp(argv[i], "--kv-sweep") == 0) {
      kv_sweep_only = true;
    } else if (std::strncmp(argv[i], "--race=", 7) == 0) {
      race_check = ParseRaceFlag(argv[i] + 7);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      Usage(stderr);
      return 2;
    }
  }
  const bool default_procs = procs_list.empty();
  if (default_procs) procs_list.push_back(8);
  auto matches = [](const std::string& filter, const char* value) {
    return filter.empty() || std::string(value).find(filter) !=
                                 std::string::npos;
  };

  std::vector<Row> rows;
  std::printf("%-8s %-10s %-4s %-4s %5s %10s %14s  %-16s %-6s %12s %14s\n",
              "app", "dataset", "cfg", "bknd", "procs", "wall(ms)",
              "modelled(ms)", "fingerprint", "stable", "peak_ivals",
              "peak_arch_KB");
  auto run_and_print = [&](const BenchScenario& s, const ModePoint& mode,
                           const BackendPoint& backend, int np,
                           const FaultSpec& fault, int gc_lag = 0) {
    Row row = RunCell(s, mode, backend, np, gc_interval, fault, gc_lag,
                      race_check);
    std::printf(
        "%-8s %-10s %-4s %-4s %5d %10.1f %14.3f  %016llx %-6s %12llu "
        "%14llu%s%s",
        row.app.c_str(), row.dataset.c_str(), row.mode.c_str(),
        row.backend.c_str(), row.procs, row.wall_ms, row.modelled_ms,
        static_cast<unsigned long long>(row.fingerprint),
        row.stable ? "yes" : "no",
        static_cast<unsigned long long>(row.mem.peak_live_intervals),
        static_cast<unsigned long long>(row.mem.peak_archive_bytes / 1024),
        row.fault.empty() ? "" : "  fault=", row.fault.c_str());
    if (row.race_checked) {
      std::printf("  races=%llu", static_cast<unsigned long long>(row.races));
    }
    if (!row.fault.empty()) {
      std::printf("  lag=%d recovery=%.3fms/%lluB/%llu rexmit", row.gc_lag,
                  row.recovery_ms,
                  static_cast<unsigned long long>(row.recovery_bytes),
                  static_cast<unsigned long long>(row.recovery_retransmits));
    }
    if (row.kv_requests > 0) {
      std::printf("  req=%llu modelled_req/s=%.0f",
                  static_cast<unsigned long long>(row.kv_requests),
                  row.kv_rps);
    }
    std::printf("\n");
    rows.push_back(std::move(row));
  };
  // Recovery-cost slice (DESIGN.md §9): a three-event schedule covering a
  // proc-0 coordinator failover and — under HLRC, where every victim is
  // also a home — two home crashes, swept across the GC lag (which sets
  // how much log tail an LRC rebuild must replay above the checkpoint)
  // on both backends.  Part of the full default sweep so the rows are
  // tracked in BENCH_wallclock.json; --fault-sweep runs just this slice.
  auto run_fault_sweep = [&]() {
    const BenchScenario jacobi{"Jacobi", "1Kx1K", true};
    FaultSpec sched;
    sched.label = "barrier:0@4+release:2@6";
    sched.schedule.events = {dsm::FaultPlan::AtBarrier(0, 4),
                             dsm::FaultPlan::AfterRelease(2, 6)};
    for (const BackendPoint& backend : kBackends) {
      for (int lag : {1, 2, 4, 8}) {
        run_and_print(jacobi, kModes[0], backend, 8, sched, lag);
      }
    }
  };
  // KV request slice (ROADMAP "serve real traffic"): the three bench
  // mixes — each >= 1M modelled requests at the default 8 processors —
  // on both protocol backends at the 4 K base unit, reporting modelled
  // requests/sec.  Rows are unstable (lock-scheduled wall-clock and
  // modelled time) but their checksums are pinned by the --baseline
  // gate: the commuting-checksum result must never move.  Rides the full
  // default sweep; --kv-sweep runs just this slice.
  auto run_kv_sweep = [&]() {
    const BenchScenario kKvMixes[] = {
        {"KV", "read-mostly", false},
        {"KV", "write-heavy", false},
        {"KV", "hot", false},
    };
    for (const BackendPoint& backend : kBackends) {
      for (const BenchScenario& s : kKvMixes) {
        run_and_print(s, kModes[0], backend, 8, FaultSpec{});
      }
    }
  };
  if (fault_sweep_only || kv_sweep_only) {
    if (fault_sweep_only) run_fault_sweep();
    if (kv_sweep_only) run_kv_sweep();
  } else {
    for (const BackendPoint& backend : kBackends) {
      if (!backend_filter.empty() && backend_filter != backend.label) {
        continue;
      }
      for (const BenchScenario& s : kScenarios) {
        if (!matches(app_filter, s.app)) continue;
        for (const ModePoint& mode : kModes) {
          if (!matches(mode_filter, mode.label)) continue;
          for (int np : procs_list) {
            run_and_print(s, mode, backend, np, fault_spec);
          }
        }
      }
    }
  }
  // A filtered (or non-default-GC, non-default-procs, explicitly faulted)
  // run is a partial sweep: never let it silently clobber the tracked
  // full-sweep baseline at the default path.
  // --race=on is partial too: modelled numbers and fingerprints are
  // bit-identical either way, but the host wall-clock pays for the shadow
  // analysis and must not overwrite the tracked unchecked trajectory.
  const bool partial = !app_filter.empty() || !mode_filter.empty() ||
                       !backend_filter.empty() || !default_procs ||
                       !fault_spec.label.empty() || fault_sweep_only ||
                       kv_sweep_only || race_check ||
                       gc_interval !=
                           dsm::RuntimeConfig{}.gc_interval_barriers;
  // Cluster-scaling trajectory (DESIGN.md §8): the full default sweep also
  // times one bit-deterministic app with the processor count doubling past
  // the paper's native 8, on both backends, so the sparse-clock and
  // sharer-directory work is gated at scale from PR to PR.
  if (!partial) {
    const BenchScenario jacobi{"Jacobi", "1Kx1K", true};
    for (const BackendPoint& backend : kBackends) {
      for (int np : {16, 32, 64, 128}) {
        run_and_print(jacobi, kModes[0], backend, np, FaultSpec{});
      }
    }
    // Crash-recovery trajectory (DESIGN.md §9): one barrier app under a
    // kill-at-barrier and a kill-mid-interval plan, on both backends.
    // Barrier apps recover bit-deterministically, so these rows are
    // stable: the fingerprint pins the post-recovery result AND the full
    // recovery telemetry from PR to PR.
    const FaultSpec kFaultSlice[] = {
        {"barrier:1@4", dsm::FaultPlan::AtBarrier(1, 4)},
        {"release:1@8", dsm::FaultPlan::AfterRelease(1, 8)},
    };
    for (const BackendPoint& backend : kBackends) {
      for (const FaultSpec& fault : kFaultSlice) {
        run_and_print(jacobi, kModes[0], backend, 8, fault);
      }
    }
    // Recovery-cost axis: the multi-fault gc_lag sweep rides the full
    // default sweep too, so its recovery_ms / recovery_bytes rows are
    // tracked in the committed baseline.
    run_fault_sweep();
    // Request-throughput axis: the KV mixes ride the default sweep so
    // their modelled_requests_per_sec trajectory and pinned checksums
    // are tracked in the committed baseline.
    run_kv_sweep();
  }
  // Read the baseline BEFORE writing results (--out may point at the
  // same file; CI reuses the committed baseline path for the artifact),
  // but always write the fresh sweep before gating — the regressed
  // numbers are the diagnostic.
  std::vector<BaselineRow> baseline;
  if (!baseline_path.empty()) baseline = ReadBaseline(baseline_path);
  if (partial && !explicit_out) {
    std::printf("partial sweep: not writing %s (pass --out= to force)\n",
                out.c_str());
  } else {
    WriteJson(rows, out);
  }
  if (!baseline_path.empty()) {
    if (baseline.empty()) {
      std::fprintf(stderr, "baseline %s empty or unreadable\n",
                   baseline_path.c_str());
      return 2;
    }
    if (CompareToBaseline(rows, baseline, 0.25) > 0) return 1;
  }
  return 0;
}
