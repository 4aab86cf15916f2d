// Public API of the pagedsm library.
//
// Typical use (see examples/quickstart.cc):
//
//   dsm::RuntimeConfig cfg;
//   cfg.num_procs = 8;
//   cfg.pages_per_unit = 2;                  // 8 KB consistency units
//   dsm::Runtime rt(cfg);
//   auto grid = rt.Alloc<float>(n, "grid");
//   rt.Run([&](dsm::Proc& p) {
//     for (std::size_t i = p.id(); i < n; i += p.nprocs())
//       p.Write(grid, i, Work(p.Read(grid, i)));
//     p.Barrier();
//   });
//   dsm::RunStats stats = rt.CollectStats();
//
// Contiguous rows go through the span overloads, one charged access per
// call instead of one per element (modelled-identical, DESIGN.md §2):
//
//   std::vector<float> row(cols);
//   p.Read(grid, r * cols, row);              // elements [r*cols, +cols)
//   for (float& x : row) x *= 0.5f;
//   p.Write(grid, r * cols, row);
//
// One Runtime = one DSM session: allocate shared memory, run one parallel
// region (one function executed by every logical processor), then collect
// the communication statistics and modelled execution time.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "analysis/race_detector.h"
#include "core/protocol.h"

namespace dsm {

// Typed handle to a shared allocation.  Cheap value type; the data lives in
// the DSM address space and is reached through a Proc.
template <typename T>
class SharedArray {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "shared data must be trivially copyable");
  static_assert(sizeof(T) % kWordBytes == 0,
                "shared element size must be a multiple of the 4-byte word");

  SharedArray() = default;
  SharedArray(GlobalAddr base, std::size_t count)
      : base_(base), count_(count) {}

  GlobalAddr base() const { return base_; }
  std::size_t size() const { return count_; }
  GlobalAddr addr_of(std::size_t i) const {
    DSM_DCHECK(i < count_);
    return base_ + i * sizeof(T);
  }

 private:
  GlobalAddr base_ = 0;
  std::size_t count_ = 0;
};

// The per-processor handle passed to the parallel body.
class Proc {
 public:
  explicit Proc(Node& node) : node_(node) {}

  ProcId id() const { return node_.id(); }
  int nprocs() const { return node_.num_procs(); }

  template <typename T>
  T Read(const SharedArray<T>& a, std::size_t i) {
    T out;
    node_.ReadBytes(a.addr_of(i), &out, sizeof(T));
    return out;
  }

  template <typename T>
  void Write(const SharedArray<T>& a, std::size_t i, const T& v) {
    node_.WriteBytes(a.addr_of(i), &v, sizeof(T));
  }

  // Contiguous-range access to elements [i, i + n): one charged access of
  // n * sizeof(T) bytes.  Modelled-identical to the n per-element
  // accesses made in the same per-unit first-touch order (DESIGN.md §2).
  // An empty span touches nothing: no fault, no clock advance.  T is
  // taken from the array, so a std::vector<T> binds directly.
  template <typename T>
  void Read(const SharedArray<T>& a, std::size_t i,
            std::span<std::type_identity_t<T>> out) {
    if (out.empty()) return;
    DSM_DCHECK(i + out.size() <= a.size());
    node_.ReadBytes(a.addr_of(i), out.data(), out.size_bytes());
  }

  template <typename T>
  void Write(const SharedArray<T>& a, std::size_t i,
             std::span<const std::type_identity_t<T>> in) {
    if (in.empty()) return;
    DSM_DCHECK(i + in.size() <= a.size());
    node_.WriteBytes(a.addr_of(i), in.data(), in.size_bytes());
  }

  // Raw-address access, for per-field access into shared structs:
  //   p.ReadAt<float>(bodies.addr_of(i) + offsetof(Body, x))
  template <typename T>
  T ReadAt(GlobalAddr addr) {
    static_assert(sizeof(T) % kWordBytes == 0);
    T out;
    node_.ReadBytes(addr, &out, sizeof(T));
    return out;
  }

  template <typename T>
  void WriteAt(GlobalAddr addr, const T& v) {
    static_assert(sizeof(T) % kWordBytes == 0);
    node_.WriteBytes(addr, &v, sizeof(T));
  }

  void Barrier() { node_.Barrier(); }
  void Lock(int lock_id) { node_.AcquireLock(lock_id); }
  void Unlock(int lock_id) { node_.ReleaseLock(lock_id); }

  // Charge `flops` of private computation to the virtual clock.
  void Compute(std::uint64_t flops) { node_.Compute(flops); }

  VirtualNanos now() const { return node_.clock().now(); }

  Node& node() { return node_; }

 private:
  Node& node_;
};

// Host-side memory footprint of one Run (archive GC telemetry).  NOT part
// of the modelled state: these numbers change with
// RuntimeConfig::gc_interval_barriers while every modelled quantity stays
// bit-identical, so fingerprints and equivalence checks must exclude them.
struct MemoryFootprint {
  std::uint64_t peak_live_intervals = 0;  // across all archives
  std::uint64_t peak_archive_bytes = 0;   // notice metadata + diff wire size
  std::uint64_t reclaimed_intervals = 0;
  std::uint64_t canonical_base_peak_bytes = 0;
  std::uint64_t gc_passes = 0;
  // Archive-GC chain economics (DESIGN.md §6): chain bodies built and
  // chain headers adopted from the GC's intern cache (shared flattened
  // chains).
  std::uint64_t chains_built = 0;
  std::uint64_t chains_shared = 0;
  // Usefulness instrumentation (mem/word_tracker.h): group and slab bytes
  // the nodes' WordTrackers hold at the end of the run, summed over nodes.
  std::uint64_t tracker_bytes = 0;
  // Usefulness ledger (core/comm_stats.h): chunk bytes of the nodes'
  // exchange and fault logs at the end of the run, summed over nodes.
  std::uint64_t comm_log_bytes = 0;
  // Always 0: nothing counts it.  Kept only because the benchmark
  // harness (perfbench/) still reports it as gc.records_elided; delete it
  // together with that counter.
  std::uint64_t records_elided = 0;
};

// Aggregated results of one Run.
struct RunStats {
  VirtualNanos exec_time = 0;  // max over nodes (the run's critical path)
  std::vector<VirtualNanos> node_times;
  CommBreakdown comm;
  NetStats net;
  MemoryFootprint mem;
  // Crash recovery (DESIGN.md §9): how many schedule events fired, the
  // modelled latency the rebuilds charged to the victims' clocks, and the
  // host wall-clock they took.  Zero — and absent from ToString — unless
  // at least one event of the fault schedule fired.
  int recovery_events = 0;
  VirtualNanos recovery_modelled_ns = 0;
  std::uint64_t recovery_wall_ns = 0;
  // Happens-before race detection (DESIGN.md §10): deduplicated reports
  // in deterministic order.  Default (races.checked == false — and absent
  // from ToString) unless RuntimeConfig::race_check was on.  Host-side
  // observability like `mem`: excluded from fingerprints and modelled
  // equivalence checks.
  RaceStats races;

  double exec_seconds() const {
    return static_cast<double>(exec_time) /
           static_cast<double>(kNanosPerSecond);
  }
  std::string ToString() const;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Shared-memory allocation; call before Run.
  template <typename T>
  SharedArray<T> Alloc(std::size_t count, const char* name = nullptr) {
    const std::size_t align =
        alignof(T) > kWordBytes ? alignof(T) : kWordBytes;
    return SharedArray<T>(
        shared_.heap.Alloc(count * sizeof(T), align, name), count);
  }

  // Allocation starting on a consistency-unit boundary.
  template <typename T>
  SharedArray<T> AllocUnitAligned(std::size_t count,
                                  const char* name = nullptr) {
    return SharedArray<T>(
        shared_.heap.AllocUnitAligned(count * sizeof(T), name), count);
  }

  // Execute `body` once per logical processor (proc 0 runs on the calling
  // thread).  May be called once per Runtime.
  void Run(const std::function<void(Proc&)>& body);

  // Finalize and merge per-node statistics.  Call after Run.
  RunStats CollectStats() const;

  const RuntimeConfig& config() const { return shared_.config; }
  GlobalHeap& heap() { return shared_.heap; }
  SharedState& shared() { return shared_; }
  Node& node(ProcId p) { return *nodes_[p]; }

 private:
  SharedState shared_;
  std::vector<std::unique_ptr<Node>> nodes_;
  bool ran_ = false;
};

}  // namespace dsm
