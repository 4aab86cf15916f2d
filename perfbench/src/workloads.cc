#include "workloads.h"

#include <cstring>
#include <sstream>

#include "apps/kvstore.h"
#include "apps/registry.h"
#include "net/network_model.h"

namespace perfbench {
namespace {

// KvDataset("hot").seed: the stream whose checksum is pinned below.
constexpr std::uint64_t kKvDefaultSeed = 0x5eedcb01ull;

// The exact modelled state of the stable workloads at kNumProcs, as
// ModelledCounters lists it (defined at the end of this file).
Counters MgsPins();
Counters IlinkPins();

dsm::RuntimeConfig BaseConfig(dsm::BackendKind backend) {
  dsm::RuntimeConfig cfg;
  cfg.num_procs = kNumProcs;
  cfg.backend = backend;
  return cfg;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  Workload mgs;
  mgs.name = "mgs-16k-lrc";
  mgs.why =
      "false sharing: bulk diff create/apply, WordTracker delivery and "
      "archive GC under barriers only";
  mgs.app = "MGS";
  mgs.dataset = "1Kx1K";
  mgs.config = BaseConfig(dsm::BackendKind::kLrc);
  mgs.config.pages_per_unit = 4;
  mgs.pinned_result = 1.4222098237770437e-05;
  mgs.modelled_stable = true;
  mgs.pinned_counters = MgsPins();
  all.push_back(mgs);

  Workload kv;
  kv.name = "kv-hot-lrc";
  kv.why =
      "request-shaped lock-sharded traffic: lock/barrier services and host "
      "thread hand-offs, fine-grained faults and diffs";
  kv.app = "KV";
  kv.dataset = "hot";
  kv.config = BaseConfig(dsm::BackendKind::kLrc);
  kv.seeded = true;
  kv.default_seed = kKvDefaultSeed;
  kv.pinned_result = 2184082919.0;
  all.push_back(kv);

  Workload ilink;
  ilink.name = "ilink-dyn-hlrc";
  ilink.why =
      "aggregation wins: dynamic page groups and HLRC home flush/fetch, "
      "no archive GC";
  ilink.app = "ILINK";
  ilink.dataset = "CLP";
  ilink.config = BaseConfig(dsm::BackendKind::kHlrc);
  ilink.config.aggregation = dsm::AggregationMode::kDynamic;
  ilink.pinned_result = 96531.534291267395;
  ilink.modelled_stable = true;
  ilink.pinned_counters = IlinkPins();
  all.push_back(ilink);

  return all;
}

void AddComm(Counters& out, const dsm::CommBreakdown& c) {
  const std::pair<const char*, std::uint64_t> scalars[] = {
      {"comm.useful_messages", c.useful_messages},
      {"comm.useless_messages", c.useless_messages},
      {"comm.sync_messages", c.sync_messages},
      {"comm.useful_data_bytes", c.useful_data_bytes},
      {"comm.piggyback_useless_bytes", c.piggyback_useless_bytes},
      {"comm.useless_msg_data_bytes", c.useless_msg_data_bytes},
      {"comm.delivered_data_bytes", c.delivered_data_bytes},
      {"comm.home_flush_messages", c.home_flush_messages},
      {"comm.home_flushes", c.home_flushes},
      {"comm.home_flush_bytes", c.home_flush_bytes},
      {"comm.home_fetches", c.home_fetches},
      {"comm.home_fetch_bytes", c.home_fetch_bytes},
      {"comm.recoveries", c.recoveries},
      {"comm.recovery_messages", c.recovery_messages},
      {"comm.recovery_data_bytes", c.recovery_data_bytes},
      {"comm.recovery_units", c.recovery_units},
      {"comm.recovery_records", c.recovery_records},
      {"comm.recovery_retransmits", c.recovery_retransmits},
      {"comm.recovery_retransmit_bytes", c.recovery_retransmit_bytes},
      {"comm.read_faults", c.read_faults},
      {"comm.write_faults", c.write_faults},
      {"comm.silent_validations", c.silent_validations},
      {"comm.twins_created", c.twins_created},
      {"comm.diffs_created", c.diffs_created},
      {"comm.diffs_applied", c.diffs_applied},
      {"comm.units_invalidated", c.units_invalidated},
      {"comm.group_prefetch_units", c.group_prefetch_units},
      {"comm.notice_clock_bytes", c.notice_clock_bytes},
      {"comm.notice_clock_bytes_dense", c.notice_clock_bytes_dense},
  };
  for (const auto& [name, value] : scalars) out.push_back({name, value});
  for (std::size_t b = 0; b < c.signature.num_buckets(); ++b) {
    const std::string bucket = std::to_string(b);
    out.push_back({"signature.useful." + bucket, c.signature.useful(b)});
    out.push_back({"signature.useless." + bucket, c.signature.useless(b)});
  }
}

}  // namespace

Counters ModelledCounters(const dsm::RunStats& stats) {
  Counters out;
  out.push_back({"exec_time_ns", static_cast<std::uint64_t>(stats.exec_time)});
  for (std::size_t p = 0; p < stats.node_times.size(); ++p) {
    out.push_back({"node_time_ns." + std::to_string(p),
                   static_cast<std::uint64_t>(stats.node_times[p])});
  }
  AddComm(out, stats.comm);
  for (std::size_t k = 0; k < dsm::kNumMessageKinds; ++k) {
    const auto kind = static_cast<dsm::MessageKind>(k);
    const std::string name = std::string("net.") + dsm::MessageKindName(kind);
    out.push_back({name + ".messages", stats.net.messages(kind)});
    out.push_back({name + ".bytes", stats.net.bytes(kind)});
  }
  return out;
}

std::unique_ptr<dsm::apps::Application> Workload::MakeApp(
    std::uint64_t seed) const {
  if (!seeded) return dsm::apps::MakeApp(app, dataset);
  dsm::apps::KvParams params = dsm::apps::KvDataset(dataset);
  params.seed = seed;
  return std::make_unique<dsm::apps::KvStore>(params);
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string CheckOutput(const Workload& w, double expected, double result,
                        const dsm::RunStats& stats) {
  std::ostringstream why;
  if (stats.comm.total_data_bytes() != stats.comm.delivered_data_bytes) {
    why << "useful+useless data bytes " << stats.comm.total_data_bytes()
        << " != delivered " << stats.comm.delivered_data_bytes << "; ";
  }
  if (std::memcmp(&expected, &result, sizeof(double)) != 0) {
    why.precision(17);
    why << "result " << result << " != expected " << expected << "; ";
  }
  if (w.modelled_stable) {
    const Counters got = ModelledCounters(stats);
    if (got.size() != w.pinned_counters.size()) {
      why << got.size() << " modelled counters, " << w.pinned_counters.size()
          << " pinned; ";
    } else {
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] != w.pinned_counters[i]) {
          why << got[i].name << " = " << got[i].value << ", pinned "
              << w.pinned_counters[i].name << " = "
              << w.pinned_counters[i].value << "; ";
        }
      }
    }
  }
  return why.str();
}

namespace {

// Regenerate with `perfbench --workload <name> --dump-pins` after a change
// that moves modelled state on purpose.
Counters MgsPins() {
  return {
      {"exec_time_ns", 17048027236u},
      {"node_time_ns.0", 17048021476u},
      {"node_time_ns.1", 17048027236u},
      {"node_time_ns.2", 17048027236u},
      {"node_time_ns.3", 17048027236u},
      {"comm.useful_messages", 1938u},
      {"comm.useless_messages", 306238u},
      {"comm.sync_messages", 3852u},
      {"comm.useful_data_bytes", 3919968u},
      {"comm.piggyback_useless_bytes", 0u},
      {"comm.useless_msg_data_bytes", 627184284u},
      {"comm.delivered_data_bytes", 631104252u},
      {"comm.home_flush_messages", 0u},
      {"comm.home_flushes", 0u},
      {"comm.home_flush_bytes", 0u},
      {"comm.home_fetches", 0u},
      {"comm.home_fetch_bytes", 0u},
      {"comm.recoveries", 0u},
      {"comm.recovery_messages", 0u},
      {"comm.recovery_data_bytes", 0u},
      {"comm.recovery_units", 0u},
      {"comm.recovery_records", 0u},
      {"comm.recovery_retransmits", 0u},
      {"comm.recovery_retransmit_bytes", 0u},
      {"comm.read_faults", 51761u},
      {"comm.write_faults", 51683u},
      {"comm.silent_validations", 0u},
      {"comm.twins_created", 51684u},
      {"comm.diffs_created", 51684u},
      {"comm.diffs_applied", 154092u},
      {"comm.units_invalidated", 51761u},
      {"comm.group_prefetch_units", 0u},
      {"comm.notice_clock_bytes", 92088u},
      {"comm.notice_clock_bytes_dense", 95880u},
      {"signature.useful.0", 0u},
      {"signature.useless.0", 0u},
      {"signature.useful.1", 318u},
      {"signature.useless.1", 80u},
      {"signature.useful.2", 319u},
      {"signature.useless.2", 479u},
      {"signature.useful.3", 332u},
      {"signature.useless.3", 152560u},
      {"net.diff_request.messages", 154088u},
      {"net.diff_request.bytes", 3698112u},
      {"net.diff_response.messages", 154088u},
      {"net.diff_response.bytes", 634815660u},
      {"net.barrier_arrival.messages", 1926u},
      {"net.barrier_arrival.bytes", 330264u},
      {"net.barrier_release.messages", 1926u},
      {"net.barrier_release.bytes", 986856u},
      {"net.lock_request.messages", 0u},
      {"net.lock_request.bytes", 0u},
      {"net.lock_grant.messages", 0u},
      {"net.lock_grant.bytes", 0u},
      {"net.home_flush.messages", 0u},
      {"net.home_flush.bytes", 0u},
      {"net.home_flush_ack.messages", 0u},
      {"net.home_flush_ack.bytes", 0u},
      {"net.home_fetch.messages", 0u},
      {"net.home_fetch.bytes", 0u},
      {"net.home_fetch_reply.messages", 0u},
      {"net.home_fetch_reply.bytes", 0u},
  };
}

Counters IlinkPins() {
  return {
      {"exec_time_ns", 22030591496u},
      {"node_time_ns.0", 22030585736u},
      {"node_time_ns.1", 22030591496u},
      {"node_time_ns.2", 22030591496u},
      {"node_time_ns.3", 22030591496u},
      {"comm.useful_messages", 33046u},
      {"comm.useless_messages", 0u},
      {"comm.sync_messages", 192u},
      {"comm.useful_data_bytes", 16023880u},
      {"comm.piggyback_useless_bytes", 51777208u},
      {"comm.useless_msg_data_bytes", 0u},
      {"comm.delivered_data_bytes", 67801088u},
      {"comm.home_flush_messages", 248u},
      {"comm.home_flushes", 15745u},
      {"comm.home_flush_bytes", 8257544u},
      {"comm.home_fetches", 16553u},
      {"comm.home_fetch_bytes", 67801088u},
      {"comm.recoveries", 0u},
      {"comm.recovery_messages", 0u},
      {"comm.recovery_data_bytes", 0u},
      {"comm.recovery_units", 0u},
      {"comm.recovery_records", 0u},
      {"comm.recovery_retransmits", 0u},
      {"comm.recovery_retransmit_bytes", 0u},
      {"comm.read_faults", 22061u},
      {"comm.write_faults", 21007u},
      {"comm.silent_validations", 14976u},
      {"comm.twins_created", 21007u},
      {"comm.diffs_created", 21007u},
      {"comm.diffs_applied", 0u},
      {"comm.units_invalidated", 22061u},
      {"comm.group_prefetch_units", 14976u},
      {"comm.notice_clock_bytes", 3300u},
      {"comm.notice_clock_bytes_dense", 3300u},
      {"signature.useful.0", 0u},
      {"signature.useless.0", 0u},
      {"signature.useful.1", 1567u},
      {"signature.useless.1", 0u},
      {"signature.useful.2", 40u},
      {"signature.useless.2", 0u},
      {"signature.useful.3", 14916u},
      {"signature.useless.3", 0u},
      {"net.diff_request.messages", 0u},
      {"net.diff_request.bytes", 0u},
      {"net.diff_response.messages", 0u},
      {"net.diff_response.bytes", 0u},
      {"net.barrier_arrival.messages", 96u},
      {"net.barrier_arrival.bytes", 123432u},
      {"net.barrier_release.messages", 96u},
      {"net.barrier_release.bytes", 383376u},
      {"net.lock_request.messages", 0u},
      {"net.lock_request.bytes", 0u},
      {"net.lock_grant.messages", 0u},
      {"net.lock_grant.bytes", 0u},
      {"net.home_flush.messages", 124u},
      {"net.home_flush.bytes", 17288168u},
      {"net.home_flush_ack.messages", 124u},
      {"net.home_flush_ack.bytes", 1984u},
      {"net.home_fetch.messages", 16523u},
      {"net.home_fetch.bytes", 396792u},
      {"net.home_fetch_reply.messages", 16523u},
      {"net.home_fetch_reply.bytes", 68065936u},
  };
}

}  // namespace
}  // namespace perfbench
