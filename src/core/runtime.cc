#include "core/runtime.h"

#include <algorithm>
#include <exception>
#include <sstream>
#include <thread>

#include "core/fault.h"

namespace dsm {

std::string RunStats::ToString() const {
  std::ostringstream out;
  out << "exec_time: " << exec_seconds() << " s\n";
  if (comm.recoveries > 0) {
    out << "recovery: events " << recovery_events << ", modelled "
        << recovery_modelled_ns << " ns, host " << recovery_wall_ns
        << " ns\n";
  }
  if (races.checked) out << races.ToString();
  out << comm.ToString();
  out << "network:\n" << net.ToString();
  return out.str();
}

Runtime::Runtime(RuntimeConfig cfg) : shared_(cfg) {
  nodes_.reserve(cfg.num_procs);
  for (int p = 0; p < cfg.num_procs; ++p) {
    nodes_.push_back(std::make_unique<Node>(p, shared_));
    shared_.nodes.push_back(nodes_.back().get());
  }
}

Runtime::~Runtime() = default;

void Runtime::Run(const std::function<void(Proc&)>& body) {
  DSM_CHECK(!ran_) << "Runtime::Run may only be called once";
  ran_ = true;

  const int nprocs = shared_.config.num_procs;
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto run_one = [&](ProcId p) {
    Proc proc(*nodes_[p]);
    try {
      body(proc);
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  threads.reserve(nprocs - 1);
  for (int p = 1; p < nprocs; ++p) {
    threads.emplace_back(run_one, p);
  }
  run_one(0);
  for (auto& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

RunStats Runtime::CollectStats() const {
  RunStats stats;
  for (const auto& node : nodes_) {
    stats.node_times.push_back(node->clock().now());
    stats.exec_time = std::max(stats.exec_time, node->clock().now());
    stats.comm.Merge(node->comm_stats().Finalize());
    stats.net.Merge(node->net_stats());
  }
  const ArchiveTelemetry& t = shared_.archive_telemetry;
  stats.mem.peak_live_intervals =
      t.peak_live_intervals.load(std::memory_order_relaxed);
  stats.mem.peak_archive_bytes =
      t.peak_live_bytes.load(std::memory_order_relaxed);
  stats.mem.reclaimed_intervals =
      t.reclaimed_intervals.load(std::memory_order_relaxed);
  stats.mem.canonical_base_peak_bytes = shared_.canonical->peak_bytes();
  stats.mem.gc_passes = shared_.gc_passes;
  stats.mem.chains_built = t.chains_built.load(std::memory_order_relaxed);
  stats.mem.chains_shared = t.chains_shared.load(std::memory_order_relaxed);
  if (shared_.fault != nullptr && shared_.fault->any_fired()) {
    stats.recovery_events = shared_.fault->fired_count();
    stats.recovery_modelled_ns = shared_.fault->recovery_modelled_ns();
    stats.recovery_wall_ns = shared_.fault->recovery_wall_ns();
  }
  if (shared_.race != nullptr) stats.races = shared_.race->Collect();
  return stats;
}

}  // namespace dsm
