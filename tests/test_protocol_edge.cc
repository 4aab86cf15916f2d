// Protocol edge cases: diff chains under lock ordering, coalescing
// correctness, invalidation of dirty units, span access against
// per-element access, stats plumbing, and label / config helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.h"
#include "modelled_state.h"

namespace dsm {
namespace {

RuntimeConfig Config(int nprocs, int ppu = 1) {
  RuntimeConfig cfg;
  cfg.num_procs = nprocs;
  cfg.heap_bytes = 1u << 20;
  cfg.pages_per_unit = ppu;
  return cfg;
}

// Ordered, overlapping diffs through a lock chain: the LAST write in
// happens-before order must win at a third-party reader, even when the
// chain interleaves writers (coalescing must not reorder).
TEST(ProtocolEdge, InterleavedLockChainAppliesInOrder) {
  Runtime rt(Config(3));
  auto a = rt.Alloc<int>(16, "a");
  int seen = -1;
  rt.Run([&](Proc& p) {
    // p0 writes 1, p1 overwrites with 2, p0 overwrites with 3 — all under
    // the same lock, serialized by barriers to fix the order.
    if (p.id() == 0) {
      p.Lock(0);
      p.Write(a, 0, 1);
      p.Unlock(0);
    }
    p.Barrier();
    if (p.id() == 1) {
      p.Lock(0);
      p.Write(a, 0, 2);
      p.Unlock(0);
    }
    p.Barrier();
    if (p.id() == 0) {
      p.Lock(0);
      p.Write(a, 0, 3);
      p.Unlock(0);
    }
    p.Barrier();
    // p2 has seen none of the three intervals; its fetch must deliver the
    // p0(1), p1(2), p0(3) chain in happens-before order.
    if (p.id() == 2) seen = p.Read(a, 0);
  });
  EXPECT_EQ(seen, 3);
}

// Same-writer chain with a foreign interval strictly between: the merge
// guard must keep them separate and the final value correct.
TEST(ProtocolEdge, ForeignIntervalBetweenSameWriterChain) {
  Runtime rt(Config(3));
  auto a = rt.AllocUnitAligned<int>(1024, "page");
  int v0 = -1, v1 = -1;
  rt.Run([&](Proc& p) {
    if (p.id() == 0) p.Write(a, 0, 10);  // p0 interval 1: word 0
    p.Barrier();
    if (p.id() == 1) p.Write(a, 0, 20);  // p1 overwrites word 0 (ordered)
    p.Barrier();
    if (p.id() == 0) p.Write(a, 1, 30);  // p0 interval 2: word 1
    p.Barrier();
    if (p.id() == 2) {
      v0 = p.Read(a, 0);
      v1 = p.Read(a, 1);
    }
  });
  EXPECT_EQ(v0, 20);  // p1's ordered overwrite wins over p0's first write
  EXPECT_EQ(v1, 30);
}

// A unit invalidated while locally dirty keeps local modifications after
// the fetch merges foreign diffs (diffs applied to copy AND twin).
TEST(ProtocolEdge, DirtyUnitSurvivesInvalidationAndMerge) {
  Runtime rt(Config(2));
  auto a = rt.AllocUnitAligned<int>(1024, "page");
  int mine = -1, theirs = -1, final0 = -1, final512 = -1;
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      p.Lock(0);  // acquire before writing, release publishes
      p.Write(a, 0, 100);
      p.Unlock(0);
    } else {
      p.Lock(1);
      p.Write(a, 512, 200);
      p.Unlock(1);
    }
    p.Barrier();
    // Both keep writing their own halves (dirty), then re-sync.
    if (p.id() == 0) {
      mine = p.Read(a, 0);      // own word survived
      theirs = p.Read(a, 512);  // foreign word merged in
      p.Write(a, 1, 101);
    }
    p.Barrier();
    if (p.id() == 1) {
      final0 = p.Read(a, 0);
      final512 = p.Read(a, 512);
    }
  });
  EXPECT_EQ(mine, 100);
  EXPECT_EQ(theirs, 200);
  EXPECT_EQ(final0, 100);
  EXPECT_EQ(final512, 200);
}

// Multi-unit element access: a struct spanning two consistency units is
// read and written coherently.
TEST(ProtocolEdge, AccessSpanningUnits) {
  struct Big {
    int words[2048];  // 8 KB, spans two 4 KB units
  };
  Runtime rt(Config(2));
  auto a = rt.Alloc<Big>(2, "big");
  int lo = 0, hi = 0;
  rt.Run([&](Proc& p) {
    if (p.id() == 0) {
      Big b{};
      b.words[0] = 1;
      b.words[2047] = 2;
      p.Write(a, 1, b);  // element 1 starts mid-unit: definitely straddles
    }
    p.Barrier();
    if (p.id() == 1) {
      const Big b = p.Read(a, 1);
      lo = b.words[0];
      hi = b.words[2047];
    }
  });
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 2);
}

TEST(ProtocolEdge, UnitLabels) {
  RuntimeConfig cfg;
  cfg.pages_per_unit = 1;
  EXPECT_STREQ(cfg.UnitLabel(), "4K");
  cfg.pages_per_unit = 2;
  EXPECT_STREQ(cfg.UnitLabel(), "8K");
  cfg.pages_per_unit = 4;
  EXPECT_STREQ(cfg.UnitLabel(), "16K");
  cfg.aggregation = AggregationMode::kDynamic;
  EXPECT_STREQ(cfg.UnitLabel(), "Dyn");
  EXPECT_EQ(cfg.unit_bytes(), kBasePageBytes);  // dynamic uses 4 K pages
}

TEST(ProtocolEdge, StatsToStringsAreNonEmpty) {
  Runtime rt(Config(2));
  auto a = rt.Alloc<int>(64, "a");
  rt.Run([&](Proc& p) {
    if (p.id() == 0) p.Write(a, 0, 1);
    p.Barrier();
    if (p.id() == 1) (void)p.Read(a, 0);
  });
  RunStats s = rt.CollectStats();
  EXPECT_FALSE(s.ToString().empty());
  EXPECT_FALSE(s.comm.ToString().empty());
  EXPECT_FALSE(s.net.ToString().empty());
}

// Deterministic replay: two identical barrier-program runs produce
// identical statistics and virtual times.
TEST(ProtocolEdge, DeterministicReplay) {
  auto run_once = [] {
    Runtime rt(Config(4, 2));
    auto a = rt.AllocUnitAligned<int>(8192, "a");
    rt.Run([&](Proc& p) {
      for (int it = 0; it < 3; ++it) {
        for (int i = p.id(); i < 8192; i += p.nprocs()) {
          p.Write(a, static_cast<std::size_t>(i), it + i);
        }
        p.Barrier();
        long sum = 0;
        for (int i = 0; i < 512; ++i) {
          sum += p.Read(a, static_cast<std::size_t>(i));
        }
        p.Compute(static_cast<std::uint64_t>(sum % 7));
        p.Barrier();
      }
    });
    return rt.CollectStats();
  };
  RunStats a = run_once();
  RunStats b = run_once();
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.node_times, b.node_times);
  EXPECT_EQ(a.comm.useful_messages, b.comm.useful_messages);
  EXPECT_EQ(a.comm.useless_messages, b.comm.useless_messages);
  EXPECT_EQ(a.comm.useful_data_bytes, b.comm.useful_data_bytes);
  EXPECT_EQ(a.net.total_bytes(), b.net.total_bytes());
}

// --- span access ---------------------------------------------------------------
//
// Proc::Read/Write over a span is one charged access.  It must be
// modelled-identical to the same per-element accesses made in the same
// per-unit first-touch order (DESIGN.md §2).  One barrier program runs
// twice per backend × unit cell, element by element and with spans, and
// every modelled number, every value read and the race reports must match.

struct SpanCell {
  const char* label;
  AggregationMode mode;
  int ppu;
};

const SpanCell kSpanCells[] = {
    {"4K", AggregationMode::kStatic, 1},
    {"16K", AggregationMode::kStatic, 4},
    {"Dyn", AggregationMode::kDynamic, 1},
};

constexpr std::size_t kRegion = 4096;  // words per 16 KB: a unit boundary
constexpr std::size_t kPageWords = 1024;

struct SpanRun {
  RunStats stats;
  std::vector<double> sums;  // per proc: every value it read, in order
  // Probes of the span variant (the element variant leaves them false).
  bool straddle_second_invalid = false;  // proc 0's read-modify-write row
  bool updated_invalid_seen = false;     // proc 2's grouped page
  std::vector<char> empty_spans_inert;   // per proc
};

SpanRun RunSpanProgram(BackendKind backend, const SpanCell& cell,
                       bool spans) {
  RuntimeConfig cfg = Config(4, cell.ppu);
  cfg.backend = backend;
  cfg.aggregation = cell.mode;
  cfg.race_check = true;
  Runtime rt(cfg);
  // Regions 0-4 hold the straddling reads, 5-9 the straddling
  // read-modify-writes, 10 the grouped pages, the 10/11 edge the planted race.
  auto a = rt.AllocUnitAligned<float>(12 * kRegion, "a");
  SpanRun run;
  run.sums.assign(4, 0.0);
  run.empty_spans_inert.assign(4, 0);
  std::mutex race_mu;

  auto read = [&](Proc& p, std::size_t i, std::span<float> out) {
    if (spans) {
      p.Read(a, i, out);
    } else {
      for (std::size_t k = 0; k < out.size(); ++k) out[k] = p.Read(a, i + k);
    }
  };
  auto write = [&](Proc& p, std::size_t i, std::span<const float> in) {
    if (spans) {
      p.Write(a, i, in);
    } else {
      for (std::size_t k = 0; k < in.size(); ++k) p.Write(a, i + k, in[k]);
    }
  };
  auto state_at = [&](Proc& p, std::size_t i) {
    return p.node().page_table().state(rt.heap().UnitOf(a.addr_of(i)));
  };

  rt.Run([&](Proc& p) {
    const auto q = static_cast<std::size_t>(p.id());
    double& sum = run.sums[q];
    std::vector<float> buf(kRegion);
    auto fill = [&](std::size_t region) {
      for (std::size_t k = 0; k < kRegion; ++k) {
        buf[k] = static_cast<float>(region * kRegion + k);
      }
      write(p, region * kRegion, buf);
    };
    fill(q);
    fill(5 + q);
    if (q == 0) {
      fill(4);
      fill(9);
      fill(10);
    }
    p.Barrier();

    // Rows straddling the edge into a region another proc wrote: the
    // first unit is valid here, the second invalid.
    const std::size_t edge = (q + 1) * kRegion;
    const std::size_t rmw_edge = (6 + q) * kRegion;
    if (spans) {
      const VirtualNanos t0 = p.now();
      const CommBreakdown& c = p.node().comm_stats().counters();
      const std::uint64_t faults = c.read_faults + c.write_faults;
      const UnitState s0 = state_at(p, edge);
      p.Read(a, edge, std::span<float>());
      p.Write(a, edge, std::span<const float>());
      p.Read(a, a.size(), std::span<float>());
      run.empty_spans_inert[q] = p.now() == t0 &&
                                 c.read_faults + c.write_faults == faults &&
                                 state_at(p, edge) == s0;
      if (q == 0) {
        run.straddle_second_invalid =
            state_at(p, rmw_edge - 1) != UnitState::kInvalid &&
            state_at(p, rmw_edge) == UnitState::kInvalid;
      }
    }
    std::span<float> row(buf.data(), 128);
    read(p, edge - 64, row);
    for (const float x : row) sum += x;

    // Read-modify-write of a row: read it whole, then write it whole,
    // against interleaved per-word read/write.
    if (spans) {
      p.Read(a, rmw_edge - 64, row);
      for (float& x : row) x = 2.0f * x + 1.0f;
      p.Write(a, rmw_edge - 64, row);
      for (const float x : row) sum += x;
    } else {
      for (std::size_t k = 0; k < row.size(); ++k) {
        const float x = 2.0f * p.Read(a, rmw_edge - 64 + k) + 1.0f;
        p.Write(a, rmw_edge - 64 + k, x);
        sum += x;
      }
    }
    p.Barrier();

    // Proc 2 reads two pages that proc 0 rewrites each round.  Under Dyn
    // the first round groups them, so in the second the first page's
    // fault fetches both and leaves the second kUpdatedInvalid.
    const std::size_t pages = 10 * kRegion;
    for (int round = 0; round < 2; ++round) {
      if (q == 0) {
        std::fill(buf.begin(), buf.begin() + 8, 100.0f + round);
        write(p, pages, std::span<const float>(buf.data(), 8));
        write(p, pages + kPageWords, std::span<const float>(buf.data(), 8));
      }
      p.Barrier();
      if (q == 2) {
        std::span<float> page(buf.data(), kPageWords);
        read(p, pages, page);
        for (const float x : page) sum += x;
        if (spans && round == 1) {
          run.updated_invalid_seen =
              state_at(p, pages + kPageWords) == UnitState::kUpdatedInvalid;
        }
        read(p, pages + kPageWords, page);
        for (const float x : page) sum += x;
      }
      p.Barrier();
    }

    // Planted race across a unit edge: procs 1 and 3 write the same words
    // with no DSM synchronization between them (the host mutex only keeps
    // the reference backend's single image free of host data races).
    if (q == 1 || q == 3) {
      std::fill(buf.begin(), buf.begin() + 8, static_cast<float>(q));
      std::lock_guard<std::mutex> guard(race_mu);
      write(p, 11 * kRegion - 4, std::span<const float>(buf.data(), 8));
    }
    p.Barrier();
  });
  run.stats = rt.CollectStats();
  return run;
}

TEST(SpanAccess, MatchesPerElementAccess) {
  for (BackendKind backend : {BackendKind::kLrc, BackendKind::kHlrc,
                              BackendKind::kReference}) {
    for (const SpanCell& cell : kSpanCells) {
      RuntimeConfig label_cfg;
      label_cfg.backend = backend;
      const std::string where =
          std::string(cell.label) + "/" + label_cfg.BackendLabel();
      const SpanRun elems = RunSpanProgram(backend, cell, /*spans=*/false);
      const SpanRun spans = RunSpanProgram(backend, cell, /*spans=*/true);

      ExpectModelledStateEqual(spans.stats, elems.stats, where);
      EXPECT_EQ(spans.sums, elems.sums) << where;
      ASSERT_TRUE(spans.stats.races.checked) << where;
      EXPECT_FALSE(spans.stats.races.reports.empty()) << where;
      EXPECT_TRUE(spans.stats.races.reports == elems.stats.races.reports)
          << where << "\nspans:\n"
          << spans.stats.races.ToString() << "\nelements:\n"
          << elems.stats.races.ToString();
      EXPECT_EQ(spans.stats.races.dropped, elems.stats.races.dropped)
          << where;

      // The probes: each case the program is built for actually happened.
      EXPECT_EQ(spans.empty_spans_inert, std::vector<char>(4, 1)) << where;
      if (backend == BackendKind::kReference) continue;
      EXPECT_TRUE(spans.straddle_second_invalid) << where;
      const bool dynamic = cell.mode == AggregationMode::kDynamic;
      EXPECT_EQ(spans.updated_invalid_seen, dynamic) << where;
      if (dynamic) {
        EXPECT_GT(spans.stats.comm.silent_validations, 0u) << where;
      }
    }
  }
}

// --- RuntimeConfig validation (fail-fast misuse diagnostics) -----------------
//
// The Runtime constructor validates its config before building any state;
// a malformed field surfaces as std::invalid_argument naming the field,
// never as a deep CHECK abort or a hang.

// Expects Runtime construction to throw and the message to mention `hint`.
void ExpectRejected(const RuntimeConfig& cfg, const std::string& hint) {
  try {
    Runtime rt(cfg);
    FAIL() << "config accepted; expected rejection mentioning '" << hint
           << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ConfigValidation, RejectsBadProcessorCounts) {
  RuntimeConfig cfg = Config(0);
  ExpectRejected(cfg, "num_procs");
  cfg = Config(5000);
  ExpectRejected(cfg, "num_procs");
  // One processor is degenerate and almost always a mis-filled config;
  // the sequential oracle opts in via allow_sequential.
  cfg = Config(1);
  ExpectRejected(cfg, "allow_sequential");
  cfg.allow_sequential = true;
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(ConfigValidation, RejectsBadHeapAndUnitShapes) {
  RuntimeConfig cfg = Config(2);
  cfg.heap_bytes = 0;
  ExpectRejected(cfg, "heap_bytes");

  cfg = Config(2);
  cfg.pages_per_unit = 3;  // not a power of two
  ExpectRejected(cfg, "pages_per_unit");
  cfg.pages_per_unit = 0;
  ExpectRejected(cfg, "pages_per_unit");

  cfg = Config(2);
  cfg.max_group_pages = 0;
  ExpectRejected(cfg, "max_group_pages");
}

TEST(ConfigValidation, RejectsBadServiceKnobs) {
  RuntimeConfig cfg = Config(2);
  cfg.gc_lag_barriers = 0;
  ExpectRejected(cfg, "gc_lag_barriers");

  cfg = Config(2);
  cfg.gc_interval_barriers = -1;
  ExpectRejected(cfg, "gc_interval_barriers");

  cfg = Config(2);
  cfg.num_locks = 0;
  ExpectRejected(cfg, "num_locks");
}

TEST(ConfigValidation, RejectsMalformedFaultPlans) {
  // Victim 0 is legal: its barrier-manager / serial-GC / watermark roles
  // fail over to the lowest surviving rank for the crash barrier
  // (DESIGN.md §9).
  RuntimeConfig cfg = Config(4);
  cfg.fault = FaultPlan::AtBarrier(0, 1);
  EXPECT_NO_THROW(Runtime rt(cfg));

  cfg = Config(4);
  cfg.fault = FaultPlan::AtBarrier(4, 1);  // out of range
  ExpectRejected(cfg, "victim");

  cfg = Config(4);
  cfg.fault = FaultPlan::AtBarrier(1, -1);
  ExpectRejected(cfg, "barrier");

  cfg = Config(4);
  cfg.fault = FaultPlan::AfterRelease(1, 0);
  ExpectRejected(cfg, "release");

  // The reference oracle has no protocol state to crash and rebuild.
  cfg = Config(4);
  cfg.backend = BackendKind::kReference;
  cfg.fault = FaultPlan::AtBarrier(1, 1);
  ExpectRejected(cfg, "reference");

  // LRC recovery needs the archive GC's canonical-base checkpoints.
  cfg = Config(4);
  cfg.gc_interval_barriers = 0;
  cfg.fault = FaultPlan::AtBarrier(1, 1);
  ExpectRejected(cfg, "no checkpoint available");

  // A well-formed plan on a protocol backend is accepted.
  cfg = Config(4);
  cfg.fault = FaultPlan::AfterRelease(1, 2);
  EXPECT_NO_THROW(Runtime rt(cfg));
}

TEST(ConfigValidation, RejectsMalformedFaultSchedules) {
  // A victim dies at most once per trigger point.
  RuntimeConfig cfg = Config(4);
  cfg.fault.events = {FaultPlan::AtBarrier(1, 2), FaultPlan::AtBarrier(1, 2)};
  ExpectRejected(cfg, "at most once");

  // A barrier phase must leave a survivor to run the coordinator roles.
  cfg = Config(2);
  cfg.fault.events = {FaultPlan::AtBarrier(0, 1), FaultPlan::AtBarrier(1, 1)};
  ExpectRejected(cfg, "survive");

  // The same victim may die twice at distinct points — proc 0 included.
  cfg = Config(4);
  cfg.fault.events = {FaultPlan::AtBarrier(0, 1), FaultPlan::AtBarrier(0, 3)};
  EXPECT_NO_THROW(Runtime rt(cfg));
}

}  // namespace
}  // namespace dsm
