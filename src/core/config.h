// Runtime configuration: consistency-unit size, aggregation mode, cost and
// network models.  One RuntimeConfig fully determines a run; every figure
// bench is a sweep over these fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/types.h"
#include "net/network_model.h"
#include "sim/cost_model.h"

namespace dsm {

enum class AggregationMode {
  kStatic,   // consistency unit = pages_per_unit × 4 KB (paper §3)
  kDynamic,  // unit = 4 KB page + runtime page grouping (paper §4)
};

enum class BackendKind {
  // Full lazy release consistency + multiple-writer protocol (the paper).
  kLrc,
  // Conformance oracle: every processor reads and writes one shared image
  // directly (plain sequential consistency — no twins, no diffs, no write
  // notices).  Barriers and locks still rendezvous, so any program that is
  // data-race-free under LRC computes the same answer here; divergence
  // between the two backends indicates a protocol bug.
  kReference,
  // Home-based LRC (DESIGN.md §7): every consistency unit has a home node
  // that eagerly absorbs diffs at release time and serves whole-unit
  // copies on fault.  Write notices and invalidate-on-acquire are shared
  // with kLrc, but no diff archive accumulates — released payloads live
  // at the home, so the interval-archive GC is bypassed entirely.  The
  // classic counterpart design to the paper's distributed LRC: one extra
  // hop per release, whole-unit data motion per fault.
  kHlrc,
};

// Archive-GC pass sizing policy: dominated-record count at or below which
// a pass runs serially on proc 0 instead of striping across the idle
// nodes (see Node::Barrier).  Striping conserves work — it only buys
// wall-clock when the stripe workers run on real cores — so the threshold
// scales inversely with host parallelism: on a single core striping is
// pure rendezvous overhead (forced serial), with unknown concurrency (0)
// the historical fixed threshold is kept, and on wide hosts even light
// passes are worth spreading.  Pure function of the argument so tests pin
// the policy; modelled state is bit-identical either way (DESIGN.md §6),
// which is what makes a host-dependent switch legal at all.
std::size_t GcSerialPassLimit(unsigned hardware_threads);

// Archive-GC pass execution mode.  kAuto applies GcSerialPassLimit to
// the host's hardware concurrency; the force modes exist so the
// serial/striped bit-equivalence can be exercised on ANY host (a test
// that only runs whichever mode the local core count selects would let
// a divergence ship undetected).
enum class GcPassMode {
  kAuto,
  kForceSerial,
  kForceStriped,
};

// ---------------------------------------------------------------------------
// Deterministic fault injection (DESIGN.md §9).
// ---------------------------------------------------------------------------

enum class FaultKind : std::uint8_t {
  kNone = 0,
  // Kill the victim at its `barrier`-th global barrier (0-based), inside the
  // barrier idle window — after its interval closed and its notices are
  // published, before the release.  Recovery rebuilds the victim to the
  // merged global clock of that barrier.
  kAtBarrier,
  // Kill the victim mid-interval, immediately after its `release`-th
  // interval close (1-based count over ALL CloseInterval calls — barrier
  // and lock-release alike).  Recovery rebuilds the victim to the frozen
  // vector clock of that archived interval.
  kAfterRelease,
};

// One seeded, fully deterministic crash event.  An armed event
// (kind != kNone) is one entry of a FaultSchedule; a default-constructed
// event is inert and leaves every modelled number and fingerprint
// bit-identical to a build without the subsystem.
struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  // Victim processor id.  Negative → derived deterministically from `seed`
  // at Runtime construction, uniform over ALL processors — proc 0
  // included; a proc-0 crash migrates the coordinator roles (serial GC,
  // HLRC watermark prune, barrier-manager cost asymmetry) to the lowest
  // surviving rank for the crash barrier and back on rebuild.
  int victim = -1;
  // kAtBarrier: 0-based global barrier index at which the victim dies.
  int barrier = 0;
  // kAfterRelease: 1-based count of interval closes after which it dies.
  int release = 1;
  // Seed for derived choices (victim when victim < 0).  Two runs with the
  // same plan — seed included — inject at the identical modelled point.
  std::uint64_t seed = 0;

  bool armed() const { return kind != FaultKind::kNone; }

  static FaultPlan AtBarrier(int victim, int barrier,
                             std::uint64_t seed = 0) {
    FaultPlan p;
    p.kind = FaultKind::kAtBarrier;
    p.victim = victim;
    p.barrier = barrier;
    p.seed = seed;
    return p;
  }
  static FaultPlan AfterRelease(int victim, int release,
                                std::uint64_t seed = 0) {
    FaultPlan p;
    p.kind = FaultKind::kAfterRelease;
    p.victim = victim;
    p.release = release;
    p.seed = seed;
    return p;
  }
  // Fully seeded plan: kind, victim and trigger point all derived from
  // `seed` (used by the fuzz-style determinism tests).
  static FaultPlan FromSeed(std::uint64_t seed);

  // "barrier:V@N" / "release:V@M" (bench_wallclock's --fault syntax;
  // "V" is "?" while a seeded victim is still unresolved).
  std::string Label() const;
};

// An ordered list of seeded crash events (DESIGN.md §9).  Events may name
// different victims or the same victim more than once — a repeat victim
// fires again only after its earlier recovery, which is automatic because
// every trigger point is served on the victim's own thread in program
// order.  No processor is excluded: the schedule may kill proc 0 (the
// coordinator roles migrate for the crash barrier) or an HLRC home node
// (the home's units are re-homed and surviving flushes retransmit).  Each
// event's trigger point is an absolute victim-local count from the start
// of the run, which is what keeps multi-fault runs bit-reproducible: no
// event's firing depends on cross-thread timing, only on its own victim's
// deterministic progress.  A default-constructed schedule is inert.
struct FaultSchedule {
  std::vector<FaultPlan> events;
  // Seed for derived choices (per-event victims when victim < 0).
  std::uint64_t seed = 0;

  FaultSchedule() = default;
  // Single-event schedule; keeps FaultPlan call sites source-compatible.
  FaultSchedule(const FaultPlan& plan) {  // NOLINT(runtime/explicit)
    if (plan.armed()) events.push_back(plan);
    seed = plan.seed;
  }

  bool armed() const { return !events.empty(); }

  // Fully seeded schedule: 1–3 events whose kinds, trigger points and
  // victims (any processor, proc 0 included) all derive from `seed`.
  static FaultSchedule FromSeed(std::uint64_t seed);

  // "+"-joined event labels: "barrier:1@2+release:0@4".
  std::string Label() const;
};

struct RuntimeConfig {
  int num_procs = 8;
  std::size_t heap_bytes = 8u << 20;

  BackendKind backend = BackendKind::kLrc;

  AggregationMode aggregation = AggregationMode::kStatic;
  // Static aggregation factor: 1 → 4 KB units, 2 → 8 KB, 4 → 16 KB.
  int pages_per_unit = 1;
  // Dynamic aggregation: maximum pages per page group.  Default 4 mirrors
  // the largest static unit the paper studies (16 KB).
  int max_group_pages = 4;

  // Archive garbage collection (DESIGN.md §6): every N-th global barrier,
  // flatten all intervals dominated by the flatten target (below) into
  // canonical base images and reclaim the records.  A host-side
  // optimization — modelled times, statistics, and results are
  // bit-identical for any setting, for every program at a fixed
  // lock-grant order.  0 disables GC (the archive-everything behavior,
  // kept reachable for A/B testing).
  int gc_interval_barriers = 1;

  // Archive-GC pass sizing: auto (hardware-concurrency-scaled serial
  // threshold) or forced serial/striped — see GcPassMode.
  GcPassMode gc_pass_mode = GcPassMode::kAuto;

  // Flatten target age: collect only intervals dominated by the global
  // vector clock from this many barriers ago (minimum 1 — the youngest
  // clock every node is guaranteed to have fully processed).  Most
  // pending notices are consumed within a barrier or two of arriving;
  // lagging the target lets them die in the fault path for free and
  // reserves the flattening work for genuinely cold chains, whose length
  // stays bounded by interval × lag barriers either way.
  int gc_lag_barriers = 2;

  // Home-based LRC only: homes are assigned to consistency units
  // round-robin over processors in blocks of this many units (1 =
  // unit-interleaved; larger blocks give each node contiguous home
  // ranges, trading hot-home risk for fewer homes per multi-unit fetch).
  int hlrc_home_block_units = 1;

  // Home-based LRC only: track a per-unit clean-twin flag (no byte of the
  // unit changed since the twin was taken) and skip the release-time
  // eager diff SCAN over units whose flag is still clean.  Host-side
  // optimization only — the modelled diff-create cost and every modelled
  // counter (diffs_created, home flush messages/bytes) are charged as if
  // the scan ran, so modelled state is bit-identical under either
  // setting.  Programs that rewrite values in place (empty diffs) skip
  // the full twin comparison at every release.
  bool hlrc_skip_clean_diff_scan = true;

  // Number of DSM lock ids available to the application.
  int num_locks = 4096;

  // On-line happens-before race detection (DESIGN.md §10): shadow every
  // shared word with FastTrack-style access epochs ordered by the same
  // acquire/release/barrier events the protocol orders on, and report
  // any unordered conflicting pair through RunStats.  Purely
  // observational — host-only cost; every modelled time, counter, and
  // fingerprint is bit-identical with the checker on or off, and with it
  // off the access hot path pays nothing.
  bool race_check = false;

  // Deterministic crash schedule (DESIGN.md §9).  Default-constructed =
  // no fault; armed schedules require a checkpoint source only under LRC
  // (gc_interval_barriers > 0, see Validate()) — HLRC recovery rebuilds
  // from home images and needs no checkpoints.
  FaultSchedule fault;

  // A DSM with one processor is degenerate (no sharing, no protocol) and
  // almost always a mis-filled config — Validate() rejects num_procs < 2
  // unless this flag is set.  The sequential-oracle paths
  // (apps::ExecuteSequential, single-proc unit tests) opt in explicitly.
  bool allow_sequential = false;

  NetworkConfig net;
  CostModel cost;

  // Rejects malformed configurations with std::invalid_argument (clear,
  // field-naming messages).  Called by the Runtime constructor before any
  // state is built; benches/tests may call it directly to probe a config.
  void Validate() const;

  std::size_t unit_bytes() const {
    return aggregation == AggregationMode::kDynamic
               ? kBasePageBytes
               : kBasePageBytes * static_cast<std::size_t>(pages_per_unit);
  }

  // Human-readable label for tables: "4K", "8K", "16K", or "Dyn".
  const char* UnitLabel() const;

  // "LRC", "HLRC", or "Ref".
  const char* BackendLabel() const;
};

}  // namespace dsm
