// Archive GC equivalence harness (DESIGN.md §6).
//
// The collector is a host-side optimization: for ANY
// gc_interval_barriers setting, results, modelled times, and every
// communication statistic must be bit-identical to the archive-everything
// run — the flattened chains replay the exact coalescing, wire sizes,
// lazy-diffing charges, and word deliveries of the records they replace.
// This suite sweeps the conformance catalogue over gc ∈ {0, 1, 4},
// drives a targeted base-plus-tail fault, and checks that the live
// archive stays bounded instead of scaling with barrier count.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "apps/registry.h"

namespace dsm::apps {
namespace {

struct AggPoint {
  const char* label;
  AggregationMode mode;
  int ppu;
};

const AggPoint kAggs[] = {
    {"4K", AggregationMode::kStatic, 1},
    {"16K", AggregationMode::kStatic, 4},
    {"Dyn", AggregationMode::kDynamic, 1},
};

RuntimeConfig GcConfig(const AggPoint& agg, int num_procs, int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = num_procs;
  cfg.aggregation = agg.mode;
  cfg.pages_per_unit = agg.ppu;
  cfg.gc_interval_barriers = gc_interval;
  return cfg;
}

// Every modelled quantity, bit for bit.  MemoryFootprint is deliberately
// NOT compared: it is host-side telemetry and legitimately changes with
// the GC setting.
void ExpectModelledStateEqual(const RunStats& a, const RunStats& b,
                              const std::string& where) {
  EXPECT_EQ(a.exec_time, b.exec_time) << where;
  EXPECT_EQ(a.node_times, b.node_times) << where;

  const CommBreakdown& ca = a.comm;
  const CommBreakdown& cb = b.comm;
  EXPECT_EQ(ca.useful_messages, cb.useful_messages) << where;
  EXPECT_EQ(ca.useless_messages, cb.useless_messages) << where;
  EXPECT_EQ(ca.sync_messages, cb.sync_messages) << where;
  EXPECT_EQ(ca.useful_data_bytes, cb.useful_data_bytes) << where;
  EXPECT_EQ(ca.piggyback_useless_bytes, cb.piggyback_useless_bytes) << where;
  EXPECT_EQ(ca.useless_msg_data_bytes, cb.useless_msg_data_bytes) << where;
  EXPECT_EQ(ca.delivered_data_bytes, cb.delivered_data_bytes) << where;
  EXPECT_EQ(ca.read_faults, cb.read_faults) << where;
  EXPECT_EQ(ca.write_faults, cb.write_faults) << where;
  EXPECT_EQ(ca.silent_validations, cb.silent_validations) << where;
  EXPECT_EQ(ca.twins_created, cb.twins_created) << where;
  EXPECT_EQ(ca.diffs_created, cb.diffs_created) << where;
  EXPECT_EQ(ca.diffs_applied, cb.diffs_applied) << where;
  EXPECT_EQ(ca.units_invalidated, cb.units_invalidated) << where;
  EXPECT_EQ(ca.group_prefetch_units, cb.group_prefetch_units) << where;
  EXPECT_EQ(ca.home_flush_messages, cb.home_flush_messages) << where;
  EXPECT_EQ(ca.home_flushes, cb.home_flushes) << where;
  EXPECT_EQ(ca.home_flush_bytes, cb.home_flush_bytes) << where;
  EXPECT_EQ(ca.home_fetches, cb.home_fetches) << where;
  EXPECT_EQ(ca.home_fetch_bytes, cb.home_fetch_bytes) << where;
  EXPECT_EQ(ca.signature.ToString(), cb.signature.ToString()) << where;

  for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    EXPECT_EQ(a.net.messages(kind), b.net.messages(kind)) << where;
    EXPECT_EQ(a.net.bytes(kind), b.net.bytes(kind)) << where;
  }
}

class GcEquivalenceTest
    : public ::testing::TestWithParam<ConformanceScenario> {};

TEST_P(GcEquivalenceTest, CollectedRunsMatchArchiveEverything) {
  const ConformanceScenario& s = GetParam();
  for (const AggPoint& agg : kAggs) {
    AppRun baseline;  // gc off
    for (int gc : {0, 1, 4}) {
      const std::string where = s.app + " @ " + agg.label +
                                " gc=" + std::to_string(gc);
      auto app = MakeApp(s.app, s.dataset);
      const AppRun run =
          Execute(*app, GcConfig(agg, s.num_procs, gc));
      if (gc == 0) {
        baseline = run;
        continue;
      }
      if (s.modelled_stable) {
        // Bit-deterministic apps: GC must be perfectly invisible.
        EXPECT_EQ(run.result, baseline.result) << where;
        ExpectModelledStateEqual(run.stats, baseline.stats, where);
      } else if (s.rel_tol == 0.0) {
        // Lock-scheduled statistics but an exact (commuting-sums)
        // checksum: Fuzz.  The result must still match bit for bit.
        EXPECT_EQ(run.result, baseline.result) << where;
      } else {
        // Lock-ordered apps are not bit-reproducible run to run under ANY
        // setting; the checksum tolerance is the strongest portable check.
        EXPECT_NEAR(run.result / baseline.result, 1.0, s.rel_tol) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, GcEquivalenceTest,
    ::testing::ValuesIn(ConformanceScenarios()),
    [](const ::testing::TestParamInfo<ConformanceScenario>& info) {
      std::string name = info.param.app;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- targeted base-plus-tail fault ------------------------------------------
//
// Proc 0 rewrites a unit every epoch for many barriers while proc 1 never
// touches it, so proc 1's pending chain spans the whole history; proc 2
// writes disjoint words late (the live tail).  With GC on, the old epochs
// are flattened into the canonical base and reclaimed long before proc 1
// finally reads — the fault must resolve from base + tail to exactly the
// bytes (and exactly the stats) of the archive-everything run.
struct LateReaderOutcome {
  std::vector<int> values;
  RunStats stats;
  std::uint64_t reclaimed = 0;
  std::uint64_t live_intervals_peak = 0;
};

LateReaderOutcome RunLateReader(int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.heap_bytes = 1u << 20;
  cfg.gc_interval_barriers = gc_interval;
  constexpr int kEpochs = 12;
  constexpr std::size_t kWords = 16;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  LateReaderOutcome out;
  std::mutex mu;
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      if (p.id() == 0) {
        // Overlapping rewrites: only the newest value may survive.
        for (std::size_t i = 0; i < kWords; ++i) {
          p.Write(data, i, 1000 * (e + 1) + static_cast<int>(i));
        }
      }
      if (p.id() == 2 && e >= kEpochs - 2) {
        // Live tail: recent epochs, disjoint words.
        for (std::size_t i = 0; i < kWords; ++i) {
          p.Write(data, 64 + i, 7000 + 10 * e + static_cast<int>(i));
        }
      }
      p.Barrier();
    }
    if (p.id() == 1) {
      // First and only access: the fault walks the full covered history.
      std::vector<int> got;
      for (std::size_t i = 0; i < kWords; ++i) got.push_back(p.Read(data, i));
      for (std::size_t i = 0; i < kWords; ++i) {
        got.push_back(p.Read(data, 64 + i));
      }
      std::lock_guard lock(mu);
      out.values = std::move(got);
    }
    p.Barrier();
  });
  out.stats = rt.CollectStats();
  out.reclaimed = out.stats.mem.reclaimed_intervals;
  out.live_intervals_peak = out.stats.mem.peak_live_intervals;
  return out;
}

TEST(GcBasePlusTail, LateFaultMatchesFullHistoryBitForBit) {
  const LateReaderOutcome off = RunLateReader(0);
  const LateReaderOutcome on = RunLateReader(1);

  // Procs 1 and 3 never touch the unit, so their pending sets (and
  // pre-existing chains) are identical every pass: the GC's intern cache
  // must build their chains once and share the bodies.
  EXPECT_GT(on.stats.mem.chains_built, 0u);
  EXPECT_GT(on.stats.mem.chains_shared, 0u);

  // GC actually ran and reclaimed the old epochs out from under the
  // pending chain.
  EXPECT_EQ(off.reclaimed, 0u);
  EXPECT_GT(on.reclaimed, 0u);
  EXPECT_LT(on.live_intervals_peak, off.live_intervals_peak);

  // The late reader saw the newest value of every word.
  ASSERT_EQ(on.values.size(), 32u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(on.values[i], 12000 + static_cast<int>(i)) << "word " << i;
    EXPECT_EQ(on.values[16 + i], 7110 + static_cast<int>(i))
        << "tail word " << i;
  }
  EXPECT_EQ(off.values, on.values);

  // And paid exactly the modelled costs of the full-history resolution.
  ExpectModelledStateEqual(on.stats, off.stats, "late reader");
}

// --- lock-release history ----------------------------------------------------
//
// Proc 0 rewrites words 0..15 under an uncontended lock for the first
// half of the run and word 100 (same unit) outside it every epoch; proc 1
// reads only word 100, once early and once at the end.  Every lock-release
// delivery of words 0..15 is therefore useless data (paper §5.3) — exactly
// the false-sharing traffic the model counts — and the GC must replay it
// all: with a single lock holder the grant order is fixed, so the
// collected run must match the archive-everything run bit for bit.
struct LockReleaseOutcome {
  int early = 0;
  int late = 0;
  RunStats stats;
};

LockReleaseOutcome RunNeverReadLockHistory(int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = 2;
  cfg.heap_bytes = 1u << 20;
  cfg.gc_interval_barriers = gc_interval;
  constexpr int kEpochs = 12;
  constexpr int kLockedEpochs = 6;
  constexpr std::size_t kWords = 16;
  constexpr std::size_t kShared = 100;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  LockReleaseOutcome out;
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      if (p.id() == 0) {
        if (e < kLockedEpochs) {
          p.Lock(0);
          for (std::size_t i = 0; i < kWords; ++i) {
            p.Write(data, i, 100 * (e + 1) + static_cast<int>(i));
          }
          p.Unlock(0);
        }
        p.Write(data, kShared, e + 1);
      }
      if (p.id() == 1 && e == 1) out.early = p.Read(data, kShared);
      p.Barrier();
    }
    if (p.id() == 1) out.late = p.Read(data, kShared);
  });
  out.stats = rt.CollectStats();
  return out;
}

TEST(GcLockRelease, NeverReadLockHistoryIsModelledInvisible) {
  const LockReleaseOutcome off = RunNeverReadLockHistory(0);
  const LockReleaseOutcome on = RunNeverReadLockHistory(1);

  EXPECT_EQ(off.early, 1);  // epoch 0's write, published by its barrier
  EXPECT_EQ(off.late, 12);  // the last epoch's write
  EXPECT_EQ(on.early, off.early);
  EXPECT_EQ(on.late, off.late);
  // The collector ran and reclaimed the lock-release intervals.
  EXPECT_GT(on.stats.mem.reclaimed_intervals, 0u);
  ExpectModelledStateEqual(on.stats, off.stats, "never-read lock history");
}

// --- virgin store: chain headers live only on sharers ------------------------
//
// One writer rewrites a unit for many epochs while the rest of the
// cluster never touches it.  The per-unit sharer directory must keep
// every never-faulting processor on the single shared virgin image
// (DESIGN.md §8): chain bodies built are a property of the write history
// and must not move when the cluster grows, while the shared-header
// count grows with the virgin population.  And the whole mechanism stays
// modelled-invisible at the scaled size.
struct VirginOutcome {
  std::vector<int> values;
  RunStats stats;
};

VirginOutcome RunVirgin(int nprocs, int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = nprocs;
  cfg.heap_bytes = 1u << 20;
  cfg.gc_interval_barriers = gc_interval;
  constexpr int kEpochs = 10;
  constexpr std::size_t kWords = 16;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  VirginOutcome out;
  std::mutex mu;
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      if (p.id() == 0) {
        for (std::size_t i = 0; i < kWords; ++i) {
          p.Write(data, i, 100 * (e + 1) + static_cast<int>(i));
        }
      }
      p.Barrier();
    }
    // Proc 1 faults only after the last collection: during every GC pass
    // all processors but the writer are virgin.
    if (p.id() == 1) {
      std::vector<int> got;
      for (std::size_t i = 0; i < kWords; ++i) got.push_back(p.Read(data, i));
      std::lock_guard lock(mu);
      out.values = std::move(got);
    }
    p.Barrier();
  });
  out.stats = rt.CollectStats();
  return out;
}

TEST(GcVirginStore, ChainHeadersStayOffNonSharers) {
  const VirginOutcome off = RunVirgin(16, 0);
  const VirginOutcome small = RunVirgin(4, 1);
  const VirginOutcome big = RunVirgin(16, 1);

  // The late reader saw the final epoch, and GC stayed bit-invisible at
  // the scaled cluster size.
  ASSERT_EQ(big.values.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(big.values[i], 1000 + static_cast<int>(i)) << "word " << i;
  }
  EXPECT_EQ(big.values, off.values);
  ExpectModelledStateEqual(big.stats, off.stats, "virgin 16p");

  // Chain bodies track the write history, not the cluster: the 12 extra
  // never-faulting processors ride the shared virgin image instead of
  // getting per-node headers (the old per-node residual would make this
  // scale linearly in nprocs).
  EXPECT_GT(small.stats.mem.chains_built, 0u);
  EXPECT_EQ(big.stats.mem.chains_built, small.stats.mem.chains_built);
  // ...while each extra virgin consumer is accounted as a shared header.
  EXPECT_GT(big.stats.mem.chains_shared, small.stats.mem.chains_shared);
}

// --- lock-heavy sweeps -------------------------------------------------------
//
// Water and TSP synchronize through locks, whose grant order is host
// scheduled: their modelled state is not bit-reproducible under ANY
// setting (the stable apps' bit-identity is covered by GcEquivalenceTest
// above), so these sweeps assert the strongest portable properties —
// result tolerance across gc ∈ {0, 1, 4}, archive memory bounded by
// collection, and the lock-specific GC machinery actually engaging:
// shared flattened chains (DESIGN.md §6).
struct LockSweepOutcome {
  double result = 0;
  MemoryFootprint mem;
};

LockSweepOutcome RunLockApp(const char* app, const char* dataset,
                            int num_procs, int gc_interval) {
  RuntimeConfig cfg;
  cfg.num_procs = num_procs;
  cfg.gc_interval_barriers = gc_interval;
  auto a = MakeApp(app, dataset);
  const AppRun run = Execute(*a, cfg);
  return {run.result, run.stats.mem};
}

TEST(GcLockHeavy, WaterSweepRecoversMemory) {
  const LockSweepOutcome off = RunLockApp("Water", "512", 8, 0);
  EXPECT_EQ(off.mem.reclaimed_intervals, 0u);
  for (int gc : {1, 4}) {
    const LockSweepOutcome on = RunLockApp("Water", "512", 8, gc);
    const std::string where = "Water gc=" + std::to_string(gc);
    // Force accumulation is lock-ordered: same checksum up to fp
    // tolerance (the conformance catalogue's bound for Water).
    EXPECT_NEAR(on.result / off.result, 1.0, 1e-3) << where;
    // Collection actually ran; at every-barrier cadence it roughly
    // halves the peak archive (gc=4 fires too rarely within Water's
    // handful of barriers to dent the peak — it still reclaims).
    EXPECT_GT(on.mem.reclaimed_intervals, 0u) << where;
    EXPECT_LE(on.mem.peak_live_intervals, off.mem.peak_live_intervals)
        << where;
    if (gc == 1) {
      EXPECT_LT(on.mem.peak_live_intervals,
                off.mem.peak_live_intervals * 3 / 5)
          << where;
    }
    // The lock-heavy machinery engaged: chains were built and some were
    // adopted from the intern cache.
    EXPECT_GT(on.mem.chains_built, 0u) << where;
    EXPECT_GT(on.mem.chains_shared, 0u) << where;
  }
}

TEST(GcLockHeavy, TspSweepKeepsResultAndBoundsArchive) {
  const LockSweepOutcome off = RunLockApp("TSP", "tiny", 4, 0);
  for (int gc : {1, 4}) {
    const LockSweepOutcome on = RunLockApp("TSP", "tiny", 4, gc);
    const std::string where = "TSP gc=" + std::to_string(gc);
    // Branch-and-bound pruning races, but the best tour it converges to
    // is stable to the conformance tolerance.
    EXPECT_NEAR(on.result / off.result, 1.0, 1e-6) << where;
    // TSP's interval population follows host lock-grant order, so the
    // two runs' peaks carry a little scheduling noise each; under TSan's
    // timing distortion the raw <= comparison sat exactly on the margin
    // (observed 611 vs 610).  A 2% allowance keeps the real claim — GC
    // bounds the archive instead of letting it grow monotonically —
    // while tolerating grant-order jitter.
    EXPECT_LE(on.mem.peak_live_intervals,
              off.mem.peak_live_intervals + off.mem.peak_live_intervals / 50)
        << where;
  }
}

// --- HLRC: no archive, no GC -------------------------------------------------
//
// The home-based backend absorbs diffs at the homes and keeps only
// notice-metadata records, so the interval-archive GC must never engage:
// no passes, no canonical bases, no chains, no reclaim counts — even with
// collection nominally enabled and even for a lock-heavy mixed workload.
// Guards against the GC hooks firing on a backend that has no archive.
TEST(HlrcNoArchive, GcHooksStayOffForTheHomeBackend) {
  for (const char* app : {"Jacobi", "Fuzz"}) {
    for (int gc : {0, 1}) {
      RuntimeConfig cfg;
      cfg.num_procs = 4;
      cfg.backend = BackendKind::kHlrc;
      cfg.gc_interval_barriers = gc;
      auto a = MakeApp(app, "tiny");
      const AppRun run = Execute(*a, cfg);
      const std::string where =
          std::string(app) + " gc=" + std::to_string(gc);
      const MemoryFootprint& mem = run.stats.mem;
      EXPECT_EQ(mem.gc_passes, 0u) << where;
      EXPECT_EQ(mem.reclaimed_intervals, 0u) << where;
      EXPECT_EQ(mem.peak_live_intervals, 0u) << where;
      EXPECT_EQ(mem.peak_archive_bytes, 0u) << where;
      EXPECT_EQ(mem.canonical_base_peak_bytes, 0u) << where;
      EXPECT_EQ(mem.chains_built, 0u) << where;
      EXPECT_EQ(mem.chains_shared, 0u) << where;
      // The backend actually moved data through the homes.
      EXPECT_GT(run.stats.comm.home_flushes, 0u) << where;
      EXPECT_GT(run.stats.comm.home_fetches, 0u) << where;
    }
  }
}

// HLRC's memory story is the notice-log watermark prune, not the archive
// GC — so bound it directly: after many barrier epochs, each node's
// archive must hold only the last few notice records (everything every
// consumer has seen is pruned), not one per interval ever closed.  A
// broken HlrcPruneNotices is an unbounded host-memory leak that the
// telemetry counters (deliberately unhooked for HLRC) would never show.
TEST(HlrcNoArchive, NoticeLogIsWatermarkPruned) {
  RuntimeConfig cfg;
  cfg.num_procs = 4;
  cfg.backend = BackendKind::kHlrc;
  cfg.heap_bytes = 1u << 20;
  constexpr int kEpochs = 40;

  Runtime rt(cfg);
  auto data = rt.Alloc<int>(1024, "data");
  rt.Run([&](Proc& p) {
    for (int e = 0; e < kEpochs; ++e) {
      // Every proc closes a non-empty interval every epoch.
      p.Write(data, static_cast<std::size_t>(p.id()) * 64,
              e * 10 + p.id());
      p.Barrier();
      // And consumes the notices (reads a peer's word) so the watermark
      // advances.
      (void)p.Read(data,
                   static_cast<std::size_t>((p.id() + 1) % 4) * 64);
      p.Barrier();
    }
  });
  for (ProcId pr = 0; pr < cfg.num_procs; ++pr) {
    const IntervalArchive& a = *rt.shared().archives[pr];
    // One interval per epoch was closed; all but the last barrier-or-two
    // of them must be gone (the prune lags one barrier behind the
    // consumers' merges; min_retained_seq() is 0 when everything was
    // pruned).
    EXPECT_LE(a.size(), 4u) << "proc " << pr;
    if (a.size() > 0) {
      EXPECT_GT(a.min_retained_seq(), static_cast<Seq>(kEpochs / 2))
          << "proc " << pr;
    }
  }
}

// --- serial-vs-striped pass sizing -------------------------------------------
//
// GcSerialPassLimit is the (pure) policy behind the GC's execution-mode
// switch; modelled state is identical either way, so the policy is free
// to depend on the host — pin its shape so a refactor cannot silently
// turn every pass striped on a laptop or serial on a server.
TEST(GcPolicy, SerialLimitScalesWithHardwareConcurrency) {
  // Unknown concurrency: the historical fixed threshold.
  EXPECT_EQ(GcSerialPassLimit(0), 1024u);
  // Single core: striping conserves work but buys no parallelism — every
  // pass stays serial.
  EXPECT_EQ(GcSerialPassLimit(1), std::numeric_limits<std::size_t>::max());
  // The 4-thread point reproduces the historical default; wider hosts
  // stripe progressively lighter passes, down to a floor.
  EXPECT_EQ(GcSerialPassLimit(2), 2048u);
  EXPECT_EQ(GcSerialPassLimit(4), 1024u);
  EXPECT_EQ(GcSerialPassLimit(8), 512u);
  EXPECT_EQ(GcSerialPassLimit(64), 64u);
  EXPECT_EQ(GcSerialPassLimit(256), 64u);
  for (unsigned hw = 2; hw < 128; ++hw) {
    EXPECT_GE(GcSerialPassLimit(hw), GcSerialPassLimit(hw + 1)) << hw;
  }
}

// The switch is only legal because both execution modes are bit-identical
// to the model — force each mode explicitly (the auto policy would pick
// whichever one this host's core count selects, leaving the other
// untested) and compare everything.
TEST(GcPolicy, SerialAndStripedPassesAreBitIdentical) {
  auto run_mode = [](GcPassMode mode) {
    RuntimeConfig cfg;
    cfg.num_procs = 4;
    cfg.gc_pass_mode = mode;
    auto app = MakeApp("MGS", "tiny");
    return Execute(*app, cfg);
  };
  const AppRun serial = run_mode(GcPassMode::kForceSerial);
  const AppRun striped = run_mode(GcPassMode::kForceStriped);
  // Both modes actually collected (MGS reclaims every barrier).
  EXPECT_GT(serial.stats.mem.reclaimed_intervals, 0u);
  EXPECT_GT(striped.stats.mem.reclaimed_intervals, 0u);
  EXPECT_EQ(striped.result, serial.result);
  ExpectModelledStateEqual(striped.stats, serial.stats,
                           "serial vs striped");
  // Host-side chain economics are deterministic too: each unit has one
  // worker in either mode, walking nodes in the same fixed order.
  EXPECT_EQ(striped.stats.mem.reclaimed_intervals,
            serial.stats.mem.reclaimed_intervals);
  EXPECT_EQ(striped.stats.mem.chains_built, serial.stats.mem.chains_built);
  EXPECT_EQ(striped.stats.mem.chains_shared,
            serial.stats.mem.chains_shared);
}

// --- bounded archive ---------------------------------------------------------
//
// MGS is the archive-growth worst case: every vector is rewritten at every
// step, so without GC the live archive scales with the barrier count.
// With GC on, the peak must be a small constant independent of it.
TEST(GcBoundedArchive, MgsPeakLiveIntervalsDoNotScaleWithBarriers) {
  auto run_mgs = [](int gc_interval) {
    RuntimeConfig cfg;
    cfg.num_procs = 4;
    cfg.gc_interval_barriers = gc_interval;
    auto app = MakeApp("MGS", "tiny");
    return Execute(*app, cfg).stats.mem;
  };
  const MemoryFootprint off = run_mgs(0);
  const MemoryFootprint on = run_mgs(1);

  // MGS "tiny" runs 32 vectors → 60+ barriers; without GC the archive
  // holds hundreds of live intervals at peak.
  EXPECT_GT(off.peak_live_intervals, 100u);
  EXPECT_EQ(off.reclaimed_intervals, 0u);
  // With GC the peak is bounded by interval × lag epochs of production —
  // far below the barrier count, not proportional to it.
  EXPECT_LT(on.peak_live_intervals, 32u);
  EXPECT_GT(on.gc_passes, 10u);
  EXPECT_GT(on.reclaimed_intervals, 100u);
  EXPECT_LT(on.peak_archive_bytes, off.peak_archive_bytes / 4);
}

// --- HLRC clean-twin skip ----------------------------------------------------
//
// hlrc_skip_clean_diff_scan is a host-side fast path: when a twin is
// known clean (every write since TwinUnit restored the twin's value),
// the flush and fetch paths skip the word-by-word diff scan but must
// still charge the exact modelled costs of the scan they skipped.  A/B
// the knob on a program that mixes value-identical rewrites (unit 0 —
// clean twin every epoch after the first) with genuinely-changing writes
// (unit 1): results and every modelled quantity must be bit-identical.
TEST(HlrcCleanTwin, SkipKnobIsBitInvisible) {
  auto run = [](bool skip) {
    RuntimeConfig cfg;
    cfg.num_procs = 4;
    cfg.backend = BackendKind::kHlrc;
    cfg.heap_bytes = 1u << 20;
    cfg.hlrc_skip_clean_diff_scan = skip;
    constexpr int kEpochs = 8;

    Runtime rt(cfg);
    auto data = rt.AllocUnitAligned<int>(2048, "data");  // two 4K units
    std::vector<int> seen;
    std::mutex mu;
    rt.Run([&](Proc& p) {
      std::vector<int> got;
      for (int e = 0; e < kEpochs; ++e) {
        if (p.id() == 0) {
          // Unit 0: value-identical rewrites — the twin ends each epoch
          // clean, yet the flush must charge the full scan accounting.
          for (std::size_t i = 0; i < 8; ++i) {
            p.Write(data, i, 7 * static_cast<int>(i));
          }
          // Unit 1: a word that really changes — the dirty path.
          p.Write(data, 1024, e * 10);
        }
        p.Barrier();
        if (p.id() == 1) {
          got.push_back(p.Read(data, 0));
          got.push_back(p.Read(data, 1024));
        }
        p.Barrier();
      }
      if (p.id() == 1) {
        std::lock_guard lock(mu);
        seen = std::move(got);
      }
    });
    return std::make_pair(std::move(seen), rt.CollectStats());
  };

  const auto [values_on, stats_on] = run(true);
  const auto [values_off, stats_off] = run(false);
  ASSERT_EQ(values_on.size(), 16u);
  EXPECT_EQ(values_on, values_off);
  EXPECT_EQ(values_on[1], 0);
  EXPECT_EQ(values_on[15], 70);
  ExpectModelledStateEqual(stats_on, stats_off, "clean-twin skip");
}

// --- recovery telemetry back-compat ------------------------------------------
//
// The crash-recovery counters (DESIGN.md §9) follow the zero-entry skip
// rule: on a run with no fault plan they stay zero and appear NOWHERE in
// the textual stats, so existing goldens, fingerprints, and parsers are
// untouched by the subsystem's existence.
TEST(GcTelemetry, NoFaultRunEmitsNoRecoveryCounters) {
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc}) {
    RuntimeConfig cfg;
    cfg.num_procs = 4;
    cfg.backend = backend;
    auto app = MakeApp("Jacobi", "tiny");
    const AppRun run = Execute(*app, cfg);
    const CommBreakdown& c = run.stats.comm;
    EXPECT_EQ(c.recoveries, 0u);
    EXPECT_EQ(c.recovery_messages, 0u);
    EXPECT_EQ(c.recovery_data_bytes, 0u);
    EXPECT_EQ(c.recovery_units, 0u);
    EXPECT_EQ(c.recovery_records, 0u);
    EXPECT_EQ(run.stats.recovery_modelled_ns, 0);
    EXPECT_EQ(run.stats.recovery_wall_ns, 0u);
    EXPECT_EQ(run.stats.ToString().find("recovery"), std::string::npos);
    EXPECT_EQ(c.ToString().find("recovery"), std::string::npos);
  }
}

}  // namespace
}  // namespace dsm::apps
