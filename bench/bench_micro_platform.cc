// Microbenchmarks of the modelled platform primitives against the paper's
// §5.1 measurements (these are google-benchmark wall-clock measurements of
// the *simulator*, with the modelled virtual costs reported as counters —
// the counters are the reproduction target):
//   1-byte UDP round trip: 296 µs     lock acquire: 374–574 µs
//   8-processor barrier:   861 µs     diff fetch:   579–1746 µs
// BM_SharedRowRead measures the simulator's own shared-access path (host
// ns per word), which has no paper counterpart.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/runtime.h"

namespace dsm {
namespace {

void BM_RoundTrip1Byte(benchmark::State& state) {
  NetworkConfig config;
  config.wire_header_bytes = 0;
  NetworkModel net(config);
  VirtualNanos t = 0;
  for (auto _ : state) {
    t = net.RoundTripTime(1, 0);
    benchmark::DoNotOptimize(t);
  }
  state.counters["modelled_us"] = static_cast<double>(t) / 1e3;
  state.counters["paper_us"] = 296;
}
BENCHMARK(BM_RoundTrip1Byte);

void BM_EightProcBarrier(benchmark::State& state) {
  VirtualNanos modelled = 0;
  for (auto _ : state) {
    RuntimeConfig cfg;
    cfg.num_procs = 8;
    cfg.heap_bytes = 1u << 20;
    cfg.net.wire_header_bytes = 0;
    Runtime rt(cfg);
    rt.Run([](Proc& p) { p.Barrier(); });
    modelled = rt.CollectStats().exec_time;
  }
  state.counters["modelled_us"] = static_cast<double>(modelled) / 1e3;
  state.counters["paper_us"] = 861;
}
BENCHMARK(BM_EightProcBarrier)->Unit(benchmark::kMillisecond);

void BM_LockAcquire(benchmark::State& state) {
  VirtualNanos modelled = 0;
  for (auto _ : state) {
    RuntimeConfig cfg;
    cfg.num_procs = 2;
    cfg.heap_bytes = 1u << 20;
    cfg.net.wire_header_bytes = 0;
    Runtime rt(cfg);
    rt.Run([](Proc& p) {
      if (p.id() == 0) {
        p.Lock(0);
        p.Unlock(0);
      }
    });
    modelled = rt.node(0).clock().now();
  }
  state.counters["modelled_us"] = static_cast<double>(modelled) / 1e3;
  state.counters["paper_us_min"] = 374;
  state.counters["paper_us_max"] = 574;
}
BENCHMARK(BM_LockAcquire)->Unit(benchmark::kMillisecond);

void BM_FullPageDiffFetch(benchmark::State& state) {
  VirtualNanos modelled = 0;
  for (auto _ : state) {
    RuntimeConfig cfg;
    cfg.num_procs = 2;
    cfg.heap_bytes = 1u << 20;
    Runtime rt(cfg);
    auto a = rt.AllocUnitAligned<int>(1024, "page");
    rt.Run([&](Proc& p) {
      if (p.id() == 0) {
        for (int i = 0; i < 1024; ++i) p.Write(a, i, i + 1);
      }
      p.Barrier();
      if (p.id() == 1) {
        const VirtualNanos before = p.now();
        (void)p.Read(a, 0);  // faults, fetches the full-page diff
        modelled = p.now() - before;
      }
    });
  }
  state.counters["modelled_us"] = static_cast<double>(modelled) / 1e3;
  state.counters["paper_us_min"] = 579;
  state.counters["paper_us_max"] = 1746;
}
BENCHMARK(BM_FullPageDiffFetch)->Unit(benchmark::kMillisecond);

// Host cost of the app-facing access path: one 1024-float row read from a
// unit that stays valid, element by element (span:0) or as one span access
// (span:1).  per_word is host time per word; the modelled charge is the same
// shared_access per word either way.
void BM_SharedRowRead(benchmark::State& state) {
  constexpr std::size_t kRow = 1024;
  const bool span = state.range(0) != 0;
  RuntimeConfig cfg;
  cfg.num_procs = 2;
  cfg.heap_bytes = 1u << 20;
  Runtime rt(cfg);
  auto row = rt.AllocUnitAligned<float>(kRow, "row");
  rt.Run([&](Proc& p) {
    if (p.id() != 0) return;
    std::vector<float> buf(kRow, 1.0f);
    p.Write(row, 0, buf);  // proc 0's own unit: no read below faults
    for (auto _ : state) {
      if (span) {
        p.Read(row, 0, buf);
      } else {
        for (std::size_t k = 0; k < kRow; ++k) buf[k] = p.Read(row, k);
      }
      benchmark::DoNotOptimize(buf.data());
      benchmark::ClobberMemory();
    }
  });
  // Inverted rate: host seconds per word, printed with an SI prefix (ns).
  state.counters["per_word"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRow),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SharedRowRead)->ArgName("span")->Arg(0)->Arg(1);

}  // namespace
}  // namespace dsm
