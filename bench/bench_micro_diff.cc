// Host-side throughput of the twin/diff machinery (the simulator's hot
// paths): diff creation, application, and merge across unit sizes and
// modification densities, plus the usefulness tracker's delivery of the
// words a diff or home fetch brings in.  The *Row cases take the MGS
// false-sharing shape (a 16K unit holding four 1024-word rows, one per
// proc) and measure what the block summaries save.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "mem/block_mask.h"
#include "mem/diff.h"
#include "mem/word_tracker.h"

namespace dsm {
namespace {

struct Buffers {
  std::vector<std::byte> twin;
  std::vector<std::byte> current;
};

Buffers MakeBuffers(std::size_t bytes, double modified_fraction,
                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Buffers b;
  b.twin.resize(bytes);
  b.current.resize(bytes);
  auto* tw = reinterpret_cast<std::uint32_t*>(b.twin.data());
  auto* cur = reinterpret_cast<std::uint32_t*>(b.current.data());
  for (std::size_t i = 0; i < bytes / kWordBytes; ++i) {
    tw[i] = static_cast<std::uint32_t>(rng.Next());
    cur[i] = rng.UniformDouble() < modified_fraction ? tw[i] + 1 : tw[i];
  }
  return b;
}

void BM_DiffCreate(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const double density = static_cast<double>(state.range(1)) / 100.0;
  Buffers b = MakeBuffers(bytes, density, 42);
  for (auto _ : state) {
    Diff d = Diff::Create(b.twin, b.current);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DiffCreate)
    ->Args({4096, 10})
    ->Args({4096, 50})
    ->Args({4096, 100})
    ->Args({8192, 50})
    ->Args({16384, 50});

// Structured buffers: `num_runs` equally spaced runs of `run_words`
// modified words each, the rest untouched — the shape real applications
// produce (block-partitioned writers touch contiguous stretches).
Buffers MakeRunBuffers(std::size_t bytes, std::size_t num_runs,
                       std::size_t run_words, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Buffers b;
  b.twin.resize(bytes);
  b.current.resize(bytes);
  const std::size_t words = bytes / kWordBytes;
  std::vector<std::uint32_t> tw(words), cur(words);
  for (std::size_t i = 0; i < words; ++i) {
    tw[i] = static_cast<std::uint32_t>(rng.Next());
    cur[i] = tw[i];
  }
  const std::size_t stride = words / num_runs;
  for (std::size_t r = 0; r < num_runs; ++r) {
    for (std::size_t i = 0; i < run_words; ++i) {
      cur[r * stride + i] = tw[r * stride + i] + 1;
    }
  }
  std::memcpy(b.twin.data(), tw.data(), bytes);
  std::memcpy(b.current.data(), cur.data(), bytes);
  return b;
}

// The perf-gate cases (see ISSUE 2 / README "Performance methodology"):
// sparse = a few short runs separated by long equal stretches; dense =
// nearly every word modified in large contiguous runs.
void BM_DiffCreateSparse(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  Buffers b = MakeRunBuffers(bytes, 4, 8, 42);
  for (auto _ : state) {
    Diff d = Diff::Create(b.twin, b.current);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DiffCreateSparse)->Arg(4096)->Arg(16384);

void BM_DiffCreateDense(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t words = bytes / kWordBytes;
  // 8 runs covering ~94% of the unit, short equal gaps between them.
  Buffers b = MakeRunBuffers(bytes, 8, words / 8 - 8, 42);
  for (auto _ : state) {
    Diff d = Diff::Create(b.twin, b.current);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DiffCreateDense)->Arg(4096)->Arg(16384);

void BM_DiffApply(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  Buffers b = MakeBuffers(bytes, 0.5, 42);
  Diff d = Diff::Create(b.twin, b.current);
  std::vector<std::byte> target = b.twin;
  for (auto _ : state) {
    d.Apply(target);
    benchmark::DoNotOptimize(target.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.payload_bytes()));
}
BENCHMARK(BM_DiffApply)->Arg(4096)->Arg(16384);

void BM_DiffMerge(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  Buffers b1 = MakeBuffers(bytes, 0.4, 1);
  Buffers b2 = MakeBuffers(bytes, 0.4, 2);
  Diff d1 = Diff::Create(b1.twin, b1.current);
  Diff d2 = Diff::Create(b2.twin, b2.current);
  for (auto _ : state) {
    Diff m = Diff::Merge(d1, d2, bytes / kWordBytes);
    benchmark::DoNotOptimize(m);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DiffMerge)->Arg(4096)->Arg(16384);

// WordTracker delivery as the fault path drives it: one call for a sparse
// diff's runs (16 runs of 8 words) into one unit, then one whole-unit fill
// of another, as a home fetch does.  Bytes processed = words tagged.
void BM_WordTrackerDeliver(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const auto words = static_cast<std::uint32_t>(bytes / kWordBytes);
  Buffers b = MakeRunBuffers(bytes, 16, 8, 42);
  const Diff d = Diff::Create(b.twin, b.current);
  WordTracker tracker(2, words);
  std::uint32_t msg = 0;
  for (auto _ : state) {
    tracker.DeliverRuns(0, d.runs(), msg);
    tracker.Deliver(1, 0, words, msg);
    benchmark::DoNotOptimize(tracker.fresh_count(0));
    benchmark::DoNotOptimize(tracker.fresh_count(1));
    ++msg;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.payload_bytes() + bytes));
}
BENCHMARK(BM_WordTrackerDeliver)->Arg(4096)->Arg(16384);

constexpr std::uint32_t kMgsUnitWords = 4096;  // 16K unit
constexpr std::uint32_t kMgsRowWords = 1024;   // four rows per unit

// The owner's span read of its own row in a unit whose three foreign rows
// a fault delivered and nobody reads: the tags stay live, so every read
// consults the block summary, which proves the own row tag-free.
void BM_WordTrackerOwnRowRead(benchmark::State& state) {
  WordTracker tracker(1, kMgsUnitWords);
  for (std::uint32_t r = 1; r < 4; ++r) {
    tracker.Deliver(0, r * kMgsRowWords, kMgsRowWords, r);
  }
  std::uint64_t credits = 0;
  for (auto _ : state) {
    tracker.OnRead(0, 0, kMgsRowWords, [&](std::uint32_t) { ++credits; });
    benchmark::DoNotOptimize(credits);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          std::int64_t{kMgsRowWords * kWordBytes});
}
BENCHMARK(BM_WordTrackerOwnRowRead);

// Release-time twin scan of a 16K unit whose writer rewrote one 4K row
// (every word changed): Arg 0 scans the whole unit, Arg 1 only the row's
// written blocks, as CloseInterval does.
void BM_DiffCreateWrittenRow(benchmark::State& state) {
  const bool bounded = state.range(0) != 0;
  Buffers b = MakeRunBuffers(kMgsUnitWords * kWordBytes, 1, kMgsRowWords, 42);
  const std::uint64_t written =
      bounded ? BlockMask(0, kMgsRowWords, BlockShift(kMgsUnitWords))
              : kAllBlocks;
  state.SetLabel(bounded ? "bounded" : "full");
  for (auto _ : state) {
    Diff d = Diff::Create(b.twin, b.current, written);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          std::int64_t{kMgsUnitWords * kWordBytes});
}
BENCHMARK(BM_DiffCreateWrittenRow)->Arg(0)->Arg(1);

}  // namespace
}  // namespace dsm

