#include "core/protocol.h"

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>

#include "analysis/race_detector.h"
#include "core/fault.h"

namespace dsm {
namespace {

// Validation must precede every other member's construction (GlobalHeap
// would CHECK-abort on an absurd heap size instead of throwing), so it
// rides the first mem-initializer.
const RuntimeConfig& Validated(const RuntimeConfig& cfg) {
  cfg.Validate();
  return cfg;
}

}  // namespace

std::size_t GcSerialPassLimit(unsigned hardware_threads) {
  if (hardware_threads == 0) return 1024;  // unknown: historical default
  if (hardware_threads == 1) {
    return std::numeric_limits<std::size_t>::max();  // striping buys nothing
  }
  // Wider hosts amortize the stripe rendezvous over more real cores, so
  // progressively lighter passes are worth spreading; the 4-thread point
  // reproduces the historical fixed threshold, and the floor keeps truly
  // trivial passes (a handful of records) serial on any machine.
  return std::max<std::size_t>(4096 / hardware_threads, 64);
}

const char* RuntimeConfig::UnitLabel() const {
  if (aggregation == AggregationMode::kDynamic) return "Dyn";
  switch (pages_per_unit) {
    case 1:
      return "4K";
    case 2:
      return "8K";
    case 4:
      return "16K";
    case 8:
      return "32K";
    default:
      return "static";
  }
}

const char* RuntimeConfig::BackendLabel() const {
  switch (backend) {
    case BackendKind::kReference:
      return "Ref";
    case BackendKind::kHlrc:
      return "HLRC";
    case BackendKind::kLrc:
      break;
  }
  return "LRC";
}

SharedState::SharedState(const RuntimeConfig& cfg)
    : config(Validated(cfg)),
      heap(cfg.heap_bytes, cfg.unit_bytes()),
      net(cfg.net),
      barrier(std::make_unique<BarrierService>(cfg.num_procs)),
      locks(std::make_unique<LockService>(cfg.num_locks, cfg.num_procs)) {
  if (config.fault.armed()) {
    // Resolve the schedule (seed-derived victims, well-formedness
    // fix-ups) once, store it back so introspection sees the concrete
    // events, re-validate the concrete form, and arm the injector.
    config.fault = ResolveFaultSchedule(config.fault, config.num_procs);
    config.Validate();
    fault = std::make_unique<FaultInjector>(config.fault);
    checkpoint_vc = VectorClock(config.num_procs);
    if (config.backend == BackendKind::kHlrc) {
      // Any processor may be a crashing home: arm the per-unit re-home
      // override table (DESIGN.md §9).
      home_override.assign(heap.num_units(), -1);
    }
  }
  if (cfg.backend == BackendKind::kReference) {
    reference_image.reset(new std::byte[heap.heap_bytes()]());
  }
  if (cfg.backend == BackendKind::kHlrc) {
    home_image.reset(new std::byte[heap.heap_bytes()]());
    home_mutexes.reset(new std::mutex[heap.num_units()]);
  }
  switch (cfg.gc_pass_mode) {
    case GcPassMode::kForceSerial:
      gc_serial_pass_limit = std::numeric_limits<std::size_t>::max();
      break;
    case GcPassMode::kForceStriped:
      gc_serial_pass_limit = 0;  // every non-empty pass stripes
      break;
    case GcPassMode::kAuto:
      gc_serial_pass_limit =
          GcSerialPassLimit(std::thread::hardware_concurrency());
      break;
  }
  archives.reserve(cfg.num_procs);
  for (int p = 0; p < cfg.num_procs; ++p) {
    archives.push_back(std::make_unique<IntervalArchive>());
    // The telemetry reports the LRC diff archive the GC keeps bounded.
    // HLRC records are notice-only metadata pruned by a seen-everywhere
    // watermark (HlrcPruneNotices) — hooking them up would report a
    // phantom archive for a backend that has none, and the reference
    // backend never archives at all.
    if (cfg.backend == BackendKind::kLrc) {
      archives.back()->set_telemetry(&archive_telemetry);
    }
  }
  if (cfg.race_check) {
    race = std::make_unique<RaceDetector>(cfg.num_procs, heap.num_units(),
                                          heap.unit_bytes() / kWordBytes,
                                          cfg.num_locks);
  }
  canonical =
      std::make_unique<CanonicalStore>(heap.num_units(), heap.unit_bytes());
  sharers = std::make_unique<SharerDirectory>(heap.num_units(), cfg.num_procs);
  virgin_history.resize(heap.num_units());
  gc_dom_prefix.resize(cfg.num_procs);
  gc_dom_ready = std::vector<std::atomic<std::uint8_t>>(cfg.num_procs);
  for (auto& r : gc_dom_ready) r.store(0, std::memory_order_relaxed);
}

SharedState::~SharedState() = default;

void SharedState::ApplyPendingRehomes() {
  std::lock_guard lock(rehome_mutex);
  if (pending_rehomes.empty()) return;
  DSM_CHECK(!home_override.empty());
  for (const auto& [unit, new_home] : pending_rehomes) {
    home_override[static_cast<std::size_t>(unit)] = new_home;
  }
  pending_rehomes.clear();
  // One epoch per applied batch: every node whose private epoch lags pays
  // the timeout + retransmit for learning the new map at its next home
  // contact.
  ++rehome_epoch;
}

ProcId SharedState::CoordinatorFor(std::uint32_t sync_phase) const {
  if (fault == nullptr) return 0;
  for (ProcId r = 0; r < config.num_procs; ++r) {
    if (!fault->CrashesAtBarrier(r, sync_phase)) return r;
  }
  // Validate() and ResolveFaultSchedule guarantee a survivor per phase.
  DSM_CHECK(false) << "no surviving coordinator at barrier " << sync_phase;
  return 0;
}

Node::Node(ProcId id, SharedState& shared)
    : id_(id),
      shared_(shared),
      unit_bytes_(shared.heap.unit_bytes()),
      unit_shift_(shared.heap.unit_shift()),
      protocol_enabled_(shared.config.num_procs > 1 &&
                        shared.config.backend != BackendKind::kReference),
      hlrc_(protocol_enabled_ &&
            shared.config.backend == BackendKind::kHlrc),
      twin_track_(hlrc_ && shared.config.hlrc_skip_clean_diff_scan),
      shared_access_cost_(shared.config.cost.shared_access),
      race_(shared.race.get()),
      image_(shared.reference_image
                 ? nullptr
                 : new std::byte[shared.heap.heap_bytes()]()),
      data_(shared.reference_image ? shared.reference_image.get()
                                   : image_.get()),
      table_(shared.heap.num_units(), unit_bytes_),
      tracker_(shared.heap.num_units(), unit_bytes_ / kWordBytes),
      pending_(shared.heap.num_units()),
      flattened_(shared.heap.num_units()),
      retwin_cheap_(shared.heap.num_units(), 0),
      diff_requested_(shared.heap.num_units()),
      diff_request_seen_(shared.heap.num_units(), 0),
      aggregator_(shared.heap.num_units(), shared.config.max_group_pages),
      vc_(shared.config.num_procs),
      notices_seen_(shared.config.num_procs),
      needs_by_writer_(shared.config.num_procs) {
  if (hlrc_) {
    fetch_by_home_.resize(static_cast<std::size_t>(shared.config.num_procs));
    hlrc_flush_bytes_.assign(
        static_cast<std::size_t>(shared.config.num_procs), 0);
    hlrc_flush_server_.assign(
        static_cast<std::size_t>(shared.config.num_procs), 0);
  }
  if (twin_track_) twin_dirty_.assign(shared.heap.num_units(), 0);
}

void Node::ReadBytesSlow(GlobalAddr addr, void* out, std::size_t bytes) {
  auto* dst = static_cast<std::byte*>(out);
  const std::size_t total_words = bytes / kWordBytes;
  while (bytes > 0) {
    const UnitId unit = static_cast<UnitId>(addr >> unit_shift_);
    const std::size_t offset_in_unit = addr & (unit_bytes_ - 1);
    const std::size_t chunk = std::min(bytes, unit_bytes_ - offset_in_unit);
    if (protocol_enabled_) {
      if (table_.NeedsFaultOnRead(unit)) ReadFault(unit);
      tracker_.OnRead(unit,
                      static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                      static_cast<std::uint32_t>(chunk / kWordBytes),
                      [this](std::uint32_t msg) { comm_stats_.Credit(msg); });
    }
    if (race_ != nullptr) {
      RaceOnAccess(unit, offset_in_unit, chunk, /*is_write=*/false);
    }
    std::memcpy(dst, data_ + addr, chunk);
    addr += chunk;
    dst += chunk;
    bytes -= chunk;
  }
  // One batched update for the whole access (integer sums are exact, so
  // the modelled time matches the former per-chunk advances bit for bit).
  clock_.Advance(static_cast<VirtualNanos>(total_words) *
                 shared_access_cost_);
}

void Node::WriteBytesSlow(GlobalAddr addr, const void* in,
                          std::size_t bytes) {
  auto* src = static_cast<const std::byte*>(in);
  const std::size_t total_words = bytes / kWordBytes;
  while (bytes > 0) {
    const UnitId unit = static_cast<UnitId>(addr >> unit_shift_);
    const std::size_t offset_in_unit = addr & (unit_bytes_ - 1);
    const std::size_t chunk = std::min(bytes, unit_bytes_ - offset_in_unit);
    if (protocol_enabled_) {
      if (table_.NeedsFaultOnWrite(unit)) WriteFault(unit);
      tracker_.OnWrite(unit,
                       static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                       static_cast<std::uint32_t>(chunk / kWordBytes));
      if (twin_track_ && twin_dirty_[unit] == 0 &&
          std::memcmp(data_ + addr, src, chunk) != 0) {
        twin_dirty_[unit] = 1;
      }
    }
    if (race_ != nullptr) {
      RaceOnAccess(unit, offset_in_unit, chunk, /*is_write=*/true);
    }
    std::memcpy(data_ + addr, src, chunk);
    addr += chunk;
    src += chunk;
    bytes -= chunk;
  }
  clock_.Advance(static_cast<VirtualNanos>(total_words) *
                 shared_access_cost_);
}

void Node::RaceOnAccess(UnitId unit, std::size_t offset_in_unit,
                        std::size_t bytes, bool is_write) {
  race_->OnAccess(id_, unit,
                  static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                  static_cast<std::uint32_t>(bytes / kWordBytes), is_write);
}

void Node::ReadFault(UnitId unit) {
  const CostModel& cost = shared_.config.cost;
  comm_stats_.counters().read_faults += 1;
  clock_.Advance(cost.fault_overhead);
  ValidateUnit(unit);
}

void Node::WriteFault(UnitId unit) {
  const CostModel& cost = shared_.config.cost;
  const UnitState s = table_.state(unit);
  // Lazy-diffing model: after a release the twin persists and the page
  // stays writable at the writer, so re-dirtying it is free unless some
  // peer requested a diff in an earlier barrier phase (forcing diff
  // creation, twin discard, and re-protection at the writer).  Only the
  // barrier-drained view is consulted — never the live request flags —
  // so the decision does not depend on host thread timing.
  const bool cheap = s == UnitState::kReadValid &&
                     retwin_cheap_[unit] != 0 &&
                     diff_request_seen_[unit] == 0;
  if (!cheap) {
    comm_stats_.counters().write_faults += 1;
    clock_.Advance(cost.fault_overhead);
  }
  if (s == UnitState::kInvalid || s == UnitState::kUpdatedInvalid) {
    ValidateUnit(unit);
  }
  if (table_.state(unit) == UnitState::kReadValid) TwinUnit(unit, cheap);
}

void Node::TwinUnit(UnitId unit, bool cheap) {
  const CostModel& cost = shared_.config.cost;
  table_.MakeTwin(unit, UnitSpan(unit));
  table_.RecordDirty(unit);
  table_.set_state(unit, UnitState::kDirty);
  comm_stats_.counters().twins_created += 1;
  retwin_cheap_[unit] = 0;
  if (twin_track_) twin_dirty_[unit] = 0;  // twin == image at creation
  // A fresh twin settles all drained requests; live (same-phase) request
  // flags are left for the next barrier drain, so a request concurrent
  // with this interval makes the NEXT re-twin expensive regardless of
  // which host thread won the race.
  diff_request_seen_[unit] = 0;
  if (!cheap) clock_.Advance(cost.TwinCost(unit_bytes_) + cost.mprotect_op);
}

void Node::ValidateUnit(UnitId unit) {
  const CostModel& cost = shared_.config.cost;
  const bool dynamic =
      shared_.config.aggregation == AggregationMode::kDynamic;
  if (dynamic) aggregator_.RecordAccess(unit);

  if (table_.state(unit) == UnitState::kUpdatedInvalid) {
    // Updates already arrived with the page group; just unprotect.
    comm_stats_.counters().silent_validations += 1;
    table_.set_state(unit, table_.HasTwin(unit) ? UnitState::kDirty
                                                : UnitState::kReadValid);
    clock_.Advance(cost.mprotect_op);
    return;
  }

  // First fault on this unit adopts the shared virgin history (if any)
  // into flattened_ and registers this node as a sharer, so the check
  // below sees exactly the state the GC would have built per-node.
  AdoptVirginState(unit);

  // A unit only goes invalid when a write notice queues a pending entry;
  // the fetch paths clear the list exactly when they revalidate, and the
  // archive GC only ever moves reclaimed entries into flattened_.
  DSM_CHECK(!pending_[unit].empty() || !flattened_[unit].empty())
      << "invalid unit " << unit << " with no pending write notices";

  retwin_cheap_[unit] = 0;
  std::vector<UnitId>& fetch = fetch_scratch_;
  fetch.clear();
  fetch.push_back(unit);
  if (dynamic) {
    for (UnitId member : aggregator_.GroupOf(unit)) {
      if (member == unit) continue;
      if (table_.state(member) == UnitState::kInvalid &&
          (!pending_[member].empty() || !flattened_[member].empty() ||
           HasVirginChains(member))) {
        AdoptVirginState(member);  // FetchUnits reads flattened_[member]
        fetch.push_back(member);
      }
    }
  }
  if (hlrc_) {
    HlrcFetchUnits(fetch);
  } else {
    FetchUnits(fetch);
  }

  for (UnitId fetched : fetch) {
    if (fetched == unit) {
      table_.set_state(unit, table_.HasTwin(unit) ? UnitState::kDirty
                                                  : UnitState::kReadValid);
    } else {
      table_.set_state(fetched, UnitState::kUpdatedInvalid);
      aggregator_.NotifyPrefetched(fetched);
      comm_stats_.counters().group_prefetch_units += 1;
    }
  }
  clock_.Advance(cost.mprotect_op);
}

void Node::FetchUnits(const std::vector<UnitId>& units) {
  const CostModel& cost = shared_.config.cost;
  const int nprocs = num_procs();
  const std::size_t words_per_unit = unit_bytes_ / kWordBytes;

  // Gather needed diffs, grouped by writer.  Consecutive intervals of the
  // SAME writer are coalesced into one combined diff when no foreign
  // pending interval is ordered after the chain's head without also being
  // ordered after its tail — in that case no reader could ever observe the
  // intermediate versions, so the server ships the union (this is the
  // server-side answer to TreadMarks' diff accumulation problem; without
  // it, a page repeatedly rewritten by one processor ships its entire
  // modification history on first fetch).
  //
  // Intervals reclaimed by archive GC arrive pre-coalesced as
  // FlattenedChains — the exact chains this loop would have built, frozen
  // at GC time with live records from later epochs still absorbable into
  // the last chain of each writer (every live record happened-after every
  // reclaimed one, so the absorption check degenerates to the foreign
  // live records plus the chain's `blocked` flag).
  for (auto& v : needs_by_writer_) v.clear();
  std::deque<Diff>& merged_storage = merged_scratch_;
  merged_storage.clear();
  absorbed_scratch_.clear();
  for (UnitId unit : units) {
    // Resolve all live pending notices of this unit first (needed for the
    // foreign-interval ordering checks).
    std::vector<ResolvedDiff>& all = resolved_scratch_;
    all.clear();
    all.reserve(pending_[unit].size());
    for (const PendingInterval& pi : pending_[unit]) {
      DSM_CHECK_NE(pi.proc, id_);
      const IntervalRecord* rec = shared_.archives[pi.proc]->Find(pi.seq);
      DSM_CHECK(rec != nullptr)
          << "missing interval (" << pi.proc << "," << pi.seq << ")";
      const int di = rec->IndexOf(unit);
      DSM_CHECK_GE(di, 0) << "interval (" << pi.proc << "," << pi.seq
                          << ") has no diff for unit " << unit;
      all.push_back({rec, &rec->diffs[static_cast<std::size_t>(di)],
                     rec->PaysForDiff(di, stamp_key())});
    }
    std::vector<FlattenedChain>& flat = flattened_[unit];
    for (ProcId w = 0; w < nprocs; ++w) {
      // This writer's intervals, in increasing seq order (pending notices
      // arrive in acquire order, which respects per-writer seq order);
      // flattened chains always precede live records.
      std::vector<const ResolvedDiff*>& chain_input = chain_scratch_;
      chain_input.clear();
      for (const ResolvedDiff& r : all) {
        if (r.rec->proc == w) chain_input.push_back(&r);
      }
      FlattenedChain* open_flat = nullptr;  // last flattened chain of w
      for (FlattenedChain& c : flat) {
        if (c.writer == w) open_flat = &c;
      }
      if (open_flat == nullptr && chain_input.empty()) continue;

      // One server-side twin scan per (writer, unit) with any interval
      // this requester pays to materialize; everything materialized in an
      // earlier phase is served from the writer's diff cache.  Reclaimed
      // intervals keep their first-requester stamps alive in the chains.
      bool needs_scan = false;
      for (FlattenedChain& c : flat) {
        if (c.writer != w) continue;
        c.ForEachStamp([&](std::atomic<std::uint64_t>& stamp) {
          if (IntervalRecord::PaysForStamp(stamp, stamp_key())) {
            needs_scan = true;
          }
        });
      }
      for (const ResolvedDiff* r : chain_input) {
        if (r->pays_for_scan) needs_scan = true;
      }
      shared_.nodes[w]->diff_requested_[unit].store(
          1, std::memory_order_relaxed);

      auto push_need = [&](NeedEntry e) {
        e.unit = unit;
        e.writer = w;
        e.needs_scan = needs_scan;
        needs_scan = false;  // at most one scan per (writer, unit)
        needs_by_writer_[w].push_back(e);
      };
      // Emit every flattened chain of w but the last; the last may still
      // absorb live records into its tail.
      for (FlattenedChain& c : flat) {
        if (c.writer != w || &c == open_flat) continue;
        NeedEntry e{};
        e.last_seq = c.last_seq;
        e.last_vc = &c.last_vc();
        e.flat = &c;
        push_need(e);
      }
      std::uint32_t absorbed_begin =
          static_cast<std::uint32_t>(absorbed_scratch_.size());
      auto flush_flat = [&] {
        NeedEntry e{};
        e.last_seq = open_flat->last_seq;
        e.last_vc = &open_flat->last_vc();
        e.flat = open_flat;
        e.absorbed_begin = absorbed_begin;
        e.absorbed_count =
            static_cast<std::uint32_t>(absorbed_scratch_.size()) -
            absorbed_begin;
        push_need(e);
        open_flat = nullptr;
      };

      // May we absorb r into a chain whose head is (w, first_seq)?  Every
      // foreign interval must be either not-after the head or after the
      // candidate tail.  (Foreign reclaimed intervals ordered after a
      // flattened head are recorded in its `blocked` flag; they can never
      // be after a live tail.)  Since every candidate r is one of w's own
      // records, "q after the head but not after the tail" collapses to
      // first_seq <= q.vc[w] < r.seq — so, as in the GC's flatten pass,
      // sort the foreign clock components once per (unit, writer) and
      // answer each absorption check by binary search instead of
      // rescanning the batch (the batch scan made this loop O(k²) per
      // fault on rewrite-heavy units).
      std::vector<Seq>& foreign_vcw = foreign_vcw_scratch_;
      if (!chain_input.empty()) {
        foreign_vcw.clear();
        for (const ResolvedDiff& q : all) {
          if (q.rec->proc != w) foreign_vcw.push_back(q.rec->vc[w]);
        }
        std::sort(foreign_vcw.begin(), foreign_vcw.end());
      }
      auto may_absorb = [&](Seq first_seq, const IntervalRecord& r) {
        auto it = std::lower_bound(foreign_vcw.begin(), foreign_vcw.end(),
                                   first_seq);
        return it == foreign_vcw.end() || *it >= r.seq;
      };

      const IntervalRecord* chain_first = nullptr;
      const Diff* chain_diff = nullptr;
      const IntervalRecord* chain_last = nullptr;
      auto flush_live = [&] {
        NeedEntry e{};
        e.last_seq = chain_last->seq;
        e.last_vc = &chain_last->vc;
        e.diff = chain_diff;
        push_need(e);
        chain_diff = nullptr;
      };
      for (const ResolvedDiff* r : chain_input) {
        if (open_flat != nullptr) {
          if (!open_flat->blocked &&
              may_absorb(open_flat->first_seq, *r->rec)) {
            // Copy-on-write: other nodes may share this chain's body.
            ChainBody& b = open_flat->MutableBody();
            b.runs = Diff::MergeRuns(b.runs, r->diff->runs());
            b.payload_words = Diff::RunWords(b.runs);
            b.last_vc = r->rec->vc;
            open_flat->last_seq = r->rec->seq;
            absorbed_scratch_.push_back(r->diff);
            continue;
          }
          flush_flat();
        }
        if (chain_diff == nullptr) {
          chain_first = r->rec;
          chain_last = r->rec;
          chain_diff = r->diff;
          continue;
        }
        if (may_absorb(chain_first->seq, *r->rec)) {
          merged_storage.push_back(
              Diff::Merge(*chain_diff, *r->diff, words_per_unit));
          chain_diff = &merged_storage.back();
          chain_last = r->rec;
        } else {
          flush_live();
          chain_first = r->rec;
          chain_last = r->rec;
          chain_diff = r->diff;
        }
      }
      if (open_flat != nullptr) flush_flat();
      if (chain_diff != nullptr) flush_live();
    }
  }

  // One request/response exchange per writer; writers answer in parallel
  // (paper §4: "those processors can return the diffs in parallel rather
  // than in sequence").
  const std::uint32_t first_exchange = comm_stats_.num_exchanges();
  int num_writers = 0;
  VirtualNanos slowest_exchange = 0;
  for (ProcId w = 0; w < nprocs; ++w) {
    auto& needs = needs_by_writer_[w];
    if (needs.empty()) continue;
    ++num_writers;
    const std::uint32_t ex = comm_stats_.NewExchange(w);
    std::size_t request_bytes = 16;
    std::size_t response_bytes = 0;
    std::uint32_t delivered_words = 0;
    UnitId last_unit_in_req = ~UnitId{0};
    for (auto& need : needs) {
      need.exchange_id = ex;
      if (need.unit != last_unit_in_req) {
        request_bytes += 8;  // unit id + timestamp bound per unit requested
        last_unit_in_req = need.unit;
      }
      response_bytes += need.EncodedBytes();
      delivered_words += static_cast<std::uint32_t>(need.PayloadWords());
    }
    comm_stats_.AddDelivered(
        ex, delivered_words,
        static_cast<std::uint32_t>(delivered_words * kWordBytes));
    net_stats_.Record(MessageKind::kDiffRequest, request_bytes);
    net_stats_.Record(MessageKind::kDiffResponse, response_bytes);
    // Server-side cost: request handling plus lazy diff creation — one
    // twin scan per (unit, writer) whose diffs were not yet materialized.
    VirtualNanos server = cost.request_service_overhead;
    for (const auto& need : needs) {
      if (need.needs_scan) server += cost.DiffCreateCost(unit_bytes_);
    }
    const VirtualNanos t =
        shared_.net.RoundTripTime(request_bytes, response_bytes) + server;
    slowest_exchange = std::max(slowest_exchange, t);
  }
  DSM_CHECK_GT(num_writers, 0);
  clock_.Advance(slowest_exchange);
  comm_stats_.RecordFault(num_writers, first_exchange);

  // Apply diffs per unit, in happens-before order (ordered intervals may
  // overlap words, e.g. migratory data under locks; concurrent intervals
  // touch disjoint words in race-free programs).
  std::vector<NeedEntry>& for_unit = apply_scratch_;
  for (UnitId unit : units) {
    for_unit.clear();
    for (ProcId w = 0; w < nprocs; ++w) {
      for (const auto& need : needs_by_writer_[w]) {
        if (need.unit == unit) for_unit.push_back(need);
      }
    }
    // Topological order by selection: repeatedly emit an entry with no
    // remaining predecessor (the partial order is acyclic).
    for (std::size_t done = 0; done < for_unit.size(); ++done) {
      std::size_t pick = done;
      for (std::size_t i = done; i < for_unit.size(); ++i) {
        bool has_predecessor = false;
        for (std::size_t j = done; j < for_unit.size(); ++j) {
          if (i != j && for_unit[i].last_vc->Covers(for_unit[j].writer,
                                                    for_unit[j].last_seq)) {
            has_predecessor = true;
            break;
          }
        }
        if (!has_predecessor) {
          pick = i;
          break;
        }
      }
      std::swap(for_unit[done], for_unit[pick]);

      const NeedEntry& need = for_unit[done];
      const bool twinned = table_.HasTwin(unit);
      if (need.flat != nullptr) {
        // Reclaimed chain: its words live in the canonical base.  Copy
        // the chain's runs from the base, then lay any live diffs
        // absorbed into the tail on top (they are newer than everything
        // reclaimed, so they win exactly as in the merged-diff path).
        const std::vector<DiffRun>& runs = need.flat->runs();
        std::span<std::byte> dst = UnitSpan(unit);
        shared_.canonical->CopyRuns(unit, dst, runs);
        if (twinned) {
          shared_.canonical->CopyRuns(unit, table_.twin(unit), runs);
        }
        for (std::uint32_t a = 0; a < need.absorbed_count; ++a) {
          const Diff* d = absorbed_scratch_[need.absorbed_begin + a];
          d->Apply(dst);
          if (twinned) d->Apply(table_.twin(unit));
        }
        for (const DiffRun& run : runs) {
          tracker_.Deliver(unit, run.word_offset, run.word_count,
                           need.exchange_id);
        }
      } else {
        need.diff->Apply(UnitSpan(unit));
        if (twinned) need.diff->Apply(table_.twin(unit));
        for (const DiffRun& run : need.diff->runs()) {
          tracker_.Deliver(unit, run.word_offset, run.word_count,
                           need.exchange_id);
        }
      }
      const std::size_t payload_bytes = need.PayloadWords() * kWordBytes;
      comm_stats_.counters().diffs_applied += 1;
      comm_stats_.counters().delivered_data_bytes += payload_bytes;
      clock_.Advance(cost.DiffApplyCost(payload_bytes));
    }
    pending_[unit].clear();
    flattened_[unit].clear();
  }
}

void Node::CloseInterval() {
  if (!protocol_enabled()) return;
  const auto& dirty = table_.dirty_units();
  if (dirty.empty()) return;
  if (hlrc_) {
    HlrcFlushInterval();
    return;
  }
  const CostModel& cost = shared_.config.cost;

  IntervalRecord rec;
  rec.proc = id_;
  rec.seq = ++vc_[id_];
  rec.units.reserve(dirty.size());
  rec.diffs.reserve(dirty.size());
  // Diffs are materialized here for bookkeeping (archived records must be
  // immutable), but no cost is charged: TreadMarks diffs lazily, so a
  // release only records write notices.  The diff-creation cost is charged
  // server-side when a peer actually requests the diff (FetchUnits), and a
  // unit re-dirtied before any such request re-twins for free.
  for (UnitId unit : dirty) {
    rec.units.push_back(unit);
    rec.diffs.push_back(Diff::Create(table_.twin(unit), UnitSpan(unit)));
    table_.DropTwin(unit);
    if (table_.state(unit) == UnitState::kDirty) {
      table_.set_state(unit, UnitState::kReadValid);
    }
    retwin_cheap_[unit] = 1;
    comm_stats_.counters().diffs_created += 1;
  }
  (void)cost;
  rec.vc = vc_;
  table_.ClearDirtyList();
  const IntervalRecord* stored = shared_.archives[id_]->Append(std::move(rec));
  if (shared_.fault != nullptr) {
    const int ev = shared_.fault->MatchAfterClose(id_, stored->seq);
    if (ev >= 0) {
      // Crash point: the interval just reached the (stable) archive, all
      // twins are dropped, nothing is half-written.  Rebuild in place and
      // continue transparently (DESIGN.md §9).
      RecoveryCoordinator::Recover(*this, stored->vc, ev);
    }
  }
}

// Home-based LRC release (DESIGN.md §7): the dual of the lazy path above.
// Diffs are created eagerly (the releaser pays the twin scan now, not a
// future requester), shipped to each dirty unit's home in one combined
// message per remote home (homes absorb them in parallel; the release
// waits for the slowest ack), and the archived record keeps only the
// write notices — the payload now lives at the homes, so nothing here
// ever needs garbage collecting.
void Node::HlrcFlushInterval() {
  const CostModel& cost = shared_.config.cost;
  const auto& dirty = table_.dirty_units();

  IntervalRecord rec;
  rec.proc = id_;
  rec.seq = ++vc_[id_];
  rec.units.reserve(dirty.size());
  rec.diffs.reserve(dirty.size());

  VirtualNanos create_cost = 0;
  for (UnitId unit : dirty) {
    rec.units.push_back(unit);
    // Notice-only record: the empty diff keeps the archive's units/diffs
    // parallel-array invariant without retaining any payload.
    rec.diffs.emplace_back();
    // The modelled scan always runs — eager diffing is how the releaser
    // discovers emptiness — even when the host-side scan below is
    // skipped, so modelled time and counters are knob-independent.
    create_cost += cost.DiffCreateCost(unit_bytes_);
    comm_stats_.counters().diffs_created += 1;
    if (twin_track_ && twin_dirty_[unit] == 0) {
      // Clean twin: no byte changed since TwinUnit took the snapshot
      // (WriteBytes keeps the flag exact with a value comparison), so the
      // eager scan would yield an empty diff — nothing for the home and
      // no flush message.  Skip the host-side twin comparison.
      DSM_DCHECK(Diff::Create(table_.twin(unit), UnitSpan(unit)).empty());
      table_.DropTwin(unit);
      if (table_.state(unit) == UnitState::kDirty) {
        table_.set_state(unit, UnitState::kReadValid);
      }
      continue;
    }
    const Diff diff = Diff::Create(table_.twin(unit), UnitSpan(unit));
    const ProcId home = shared_.EffectiveHome(unit);
    // An empty diff means the interval changed no bytes: the twin scan
    // above is still paid (eager diffing discovers the emptiness), but
    // there is nothing for the home to absorb and the write notice
    // travels with the sync traffic — no flush message is modelled.
    if (!diff.empty()) {
      {
        std::span<std::byte> home_span{
            shared_.home_image.get() + shared_.heap.UnitBase(unit),
            unit_bytes_};
        std::lock_guard lock(shared_.home_mutexes[unit]);
        diff.Apply(home_span);
      }
      if (home != id_) {
        if (hlrc_flush_bytes_[home] == 0) {
          hlrc_flush_bytes_[home] = 16;  // flush message header
        }
        hlrc_flush_bytes_[home] += 8 + diff.EncodedBytes();
        hlrc_flush_server_[home] +=
            cost.DiffApplyCost(diff.payload_bytes());
        comm_stats_.counters().home_flushes += 1;
        comm_stats_.counters().home_flush_bytes += diff.payload_bytes();
      }
    }
    table_.DropTwin(unit);
    if (table_.state(unit) == UnitState::kDirty) {
      table_.set_state(unit, UnitState::kReadValid);
    }
    // No retwin_cheap_: under eager diffing the twin is genuinely gone
    // after a release, so the next write pays the full twin again.
  }
  rec.vc = vc_;
  table_.ClearDirtyList();
  clock_.Advance(create_cost);

  // One flush exchange per remote home touched; homes apply in parallel,
  // the releaser advances to the slowest acknowledgement.
  VirtualNanos slowest = 0;
  bool learned = false;
  for (ProcId h = 0; h < num_procs(); ++h) {
    if (hlrc_flush_bytes_[h] == 0) continue;
    net_stats_.Record(MessageKind::kHomeFlush, hlrc_flush_bytes_[h]);
    net_stats_.Record(MessageKind::kHomeFlushAck, 16);
    comm_stats_.counters().home_flush_messages += 2;
    VirtualNanos t =
        shared_.net.RoundTripTime(hlrc_flush_bytes_[h], 16) +
        cost.request_service_overhead + hlrc_flush_server_[h];
    if (!learned) {
      // First home contact of this release: a stale home map (re-home
      // batches applied since this node's last contact) times the
      // exchange out against the dead home and re-sends it.
      t += HlrcChargeRehomeLearning(hlrc_flush_bytes_[h]);
      learned = true;
    }
    slowest = std::max(slowest, t);
    hlrc_flush_bytes_[h] = 0;
    hlrc_flush_server_[h] = 0;
  }
  clock_.Advance(slowest);

  const IntervalRecord* stored = shared_.archives[id_]->Append(std::move(rec));
  if (shared_.fault != nullptr) {
    const int ev = shared_.fault->MatchAfterClose(id_, stored->seq);
    if (ev >= 0) {
      // Same crash point as the LRC path: record archived, homes already
      // absorbed this interval's diffs, twins dropped.
      RecoveryCoordinator::Recover(*this, stored->vc, ev);
    }
  }
}

// Home-based LRC fault resolution (DESIGN.md §7): whole-unit copies from
// the homes replace the LRC diff chase.  One combined exchange per remote
// home (homes answer in parallel); a self-homed unit is a local copy with
// no messages and no delivery accounting (nothing crossed the wire).  The
// home copy is at least as new as everything the pending notices name —
// every noticed release flushed before this node's acquire completed —
// and any newer words it carries belong to intervals this node will be
// told about later; race-free programs never read those early.
void Node::HlrcFetchUnits(const std::vector<UnitId>& units) {
  const CostModel& cost = shared_.config.cost;
  const std::size_t words_per_unit = unit_bytes_ / kWordBytes;

  for (auto& v : fetch_by_home_) v.clear();
  for (UnitId unit : units) {
    fetch_by_home_[static_cast<std::size_t>(shared_.EffectiveHome(unit))]
        .push_back(unit);
  }

  const std::uint32_t first_exchange = comm_stats_.num_exchanges();
  int num_homes = 0;
  VirtualNanos slowest = 0;
  for (ProcId h = 0; h < num_procs(); ++h) {
    const std::vector<UnitId>& list =
        fetch_by_home_[static_cast<std::size_t>(h)];
    if (list.empty()) continue;
    std::uint32_t ex = 0;
    const bool remote = h != id_;
    if (remote) {
      ++num_homes;
      ex = comm_stats_.NewExchange(h);
      const std::size_t request_bytes = 16 + 8 * list.size();
      const std::size_t response_bytes = list.size() * (16 + unit_bytes_);
      const std::size_t delivered_words = list.size() * words_per_unit;
      comm_stats_.AddDelivered(
          ex, static_cast<std::uint32_t>(delivered_words),
          static_cast<std::uint32_t>(delivered_words * kWordBytes));
      net_stats_.Record(MessageKind::kHomeFetch, request_bytes);
      net_stats_.Record(MessageKind::kHomeFetchReply, response_bytes);
      comm_stats_.counters().home_fetches += list.size();
      comm_stats_.counters().home_fetch_bytes += list.size() * unit_bytes_;
      comm_stats_.counters().delivered_data_bytes +=
          list.size() * unit_bytes_;
      // Home-side cost: request handling plus one unit copy into the
      // reply per unit served.
      VirtualNanos t =
          shared_.net.RoundTripTime(request_bytes, response_bytes) +
          cost.request_service_overhead +
          static_cast<VirtualNanos>(list.size()) *
              cost.TwinCost(unit_bytes_);
      if (num_homes == 1) {
        // First remote contact of this fault: pay for learning any
        // re-home batches applied since this node's last home exchange.
        t += HlrcChargeRehomeLearning(request_bytes);
      }
      slowest = std::max(slowest, t);
    }
    for (UnitId unit : list) {
      const bool twinned = table_.HasTwin(unit);
      std::span<std::byte> dst = UnitSpan(unit);
      // Local uncommitted writes (live twin): capture them, lay the home
      // copy underneath, re-apply them on top — the whole-unit analogue
      // of the LRC path's "apply foreign diffs to image AND twin", so
      // diff(twin, image) still yields exactly the local modifications.
      Diff local;
      if (twinned) {
        if (!twin_track_ || twin_dirty_[unit] != 0) {
          local = Diff::Create(table_.twin(unit), dst);
        } else {
          // Clean twin: the capture scan would find nothing.
          DSM_DCHECK(Diff::Create(table_.twin(unit), dst).empty());
        }
      }
      {
        const std::byte* src =
            shared_.home_image.get() + shared_.heap.UnitBase(unit);
        std::lock_guard lock(shared_.home_mutexes[unit]);
        std::memcpy(dst.data(), src, unit_bytes_);
        if (twinned) {
          std::memcpy(table_.twin(unit).data(), src, unit_bytes_);
        }
      }
      if (twinned && !local.empty()) local.Apply(dst);
      // The twin now matches the home copy and the image differs from it
      // by exactly `local`: re-anchor the clean flag.
      if (twin_track_ && twinned) twin_dirty_[unit] = local.empty() ? 0 : 1;
      // Installing the received (or locally copied) unit is one memcpy.
      clock_.Advance(cost.TwinCost(unit_bytes_));
      if (remote) {
        tracker_.Deliver(unit, 0, static_cast<std::uint32_t>(words_per_unit),
                         ex);
        // Words the local re-apply overwrote can never credit the fetch.
        for (const DiffRun& run : local.runs()) {
          tracker_.OnWrite(unit, run.word_offset, run.word_count);
        }
      }
      pending_[unit].clear();
    }
  }
  if (num_homes > 0) {
    clock_.Advance(slowest);
    comm_stats_.RecordFault(num_homes, first_exchange);
  }
}

// HLRC notice-log watermark pruning: a record every other node has
// already processed (its seq is at or below everyone's notices_seen_ for
// the writer) can never be Range()d again — not by a lock acquire, not by
// a barrier release — so proc 0 drops those prefixes inside the barrier's
// idle window, where no peer can be appending or collecting.  This is the
// whole HLRC memory story: records are notice-only metadata, and the log
// stays bounded by how far the slowest consumer lags.
//
// `min_seen` is the componentwise floor the barrier manager accumulated
// from every arriver's notices_seen_ (BarrierService::Result::min_seen).
// Peers park between their Arrive and the Rendezvous with notices_seen_
// frozen (consumption happens only in CollectNotices / InvalidateFrom,
// which run after the Rendezvous releases them), so the arrival-time fold
// equals the old in-window rescan of every node's vector while costing
// O(num_procs) total instead of O(num_procs²) on proc 0.
void Node::HlrcPruneNotices(const VectorClock& min_seen) {
  for (ProcId p = 0; p < num_procs(); ++p) {
    shared_.archives[p]->PruneThrough(min_seen[p]);
  }
}

// See protocol.h: lazy learning of crash-driven re-home batches.  The
// epoch is written by the barrier coordinator inside the idle window and
// read here strictly after the closing rendezvous of that barrier, so the
// plain load is ordered; the charge itself is proc-local and
// deterministic (victim-local trigger points + barrier-quantized batch
// application).
VirtualNanos Node::HlrcChargeRehomeLearning(std::size_t request_bytes) {
  if (shared_.fault == nullptr) return 0;
  const std::uint64_t epoch = shared_.rehome_epoch;
  if (rehome_epoch_seen_ == epoch) return 0;
  const std::uint64_t missed = epoch - rehome_epoch_seen_;
  rehome_epoch_seen_ = epoch;
  CommBreakdown& c = comm_stats_.counters();
  c.recovery_retransmits += missed;
  c.recovery_retransmit_bytes += missed * request_bytes;
  return static_cast<VirtualNanos>(missed) *
         (shared_.net.RoundTripTime(request_bytes, 16) +
          shared_.config.cost.request_service_overhead);
}

// Flatten phase (pass 1 of DESIGN.md §6), striped: this node converts the
// dominated pending notices of EVERY node for the units of its stripe
// (unit % nprocs == id) into FlattenedChains, mirroring the fault path's
// chain coalescing exactly (same absorption predicate over the same
// record set — live records from later epochs can never block a dominated
// absorption, because they happened-after every dominated interval).  It
// also collects the (record, diff) pairs some node still needed into
// gc_refs_: only those must go into the canonical base — an interval
// pending nowhere was already applied by every node, and any word of it
// that a future chain covers is rewritten there by a newer record of that
// chain.  Striping keeps the pass deterministic (each unit has exactly
// one worker, which walks nodes in fixed order) while spreading the work
// over the idle window's threads instead of serializing it on proc 0.
//
// Shared flattened chains keep lock-heavy programs (Water) cheap: one
// reclaimed record is typically pending at most of the other nodes, and
// their chain builds are identical whenever their pre-existing chains and
// dominated record lists coincide.  An intern cache keyed on exactly
// those inputs builds each chain set once and hands out cheap headers
// over shared ChainBodies; per-node builds remain only where pending sets
// diverge.  All sharing for a unit happens inside its one worker, so the
// cache is worker-local and the build (including the telemetry) is
// bit-deterministic.
void Node::GcFlattenStripe(const VectorClock& through, int start,
                           int step) {
  SharedState& shared = shared_;
  const int nprocs = shared.config.num_procs;
  const std::size_t num_units = shared.heap.num_units();

  // Snapshot each archive's dominated prefix once (one mutex hold per
  // archive): lock-heavy programs resolve tens of thousands of (proc,
  // seq) references per pass, and per-reference Find() would pay a mutex
  // round-trip each.  The snapshot is a lock-free binary-search index.
  // Shared dominated-prefix snapshots, built once per archive per pass by
  // the first worker that needs one.
  auto dom_prefix_of =
      [&shared, &through](
          ProcId p) -> const std::vector<std::shared_ptr<const IntervalRecord>>& {
    if (shared.gc_dom_ready[p].load(std::memory_order_acquire) == 0) {
      std::lock_guard lock(shared.gc_snapshot_mutex);
      if (shared.gc_dom_ready[p].load(std::memory_order_relaxed) == 0) {
        shared.gc_dom_prefix[p] =
            shared.archives[p]->RangeShared(0, through[p]);
        shared.gc_dom_ready[p].store(1, std::memory_order_release);
      }
    }
    return shared.gc_dom_prefix[p];
  };
  auto find_dominated =
      [&](ProcId p, Seq seq) -> const std::shared_ptr<const IntervalRecord>* {
    const auto& v = dom_prefix_of(p);
    auto it = std::lower_bound(
        v.begin(), v.end(), seq,
        [](const std::shared_ptr<const IntervalRecord>& r, Seq s) {
          return r->seq < s;
        });
    DSM_CHECK(it != v.end() && (*it)->seq == seq)
        << "GC: missing interval (" << p << "," << seq << ")";
    return &*it;
  };

  struct Resolved {
    const IntervalRecord* rec;
    // Shared ownership handle (single-record chains retain the record);
    // points into dom_prefix, which outlives the pass.
    const std::shared_ptr<const IntervalRecord>* owner;
    int di;
    std::uint64_t vc_sum;
  };
  auto vc_sum_of = [](const IntervalRecord& r) { return r.vc.Sum(); };
  // One reclaimed record is typically pending at most nodes; resolve each
  // (proc, seq) once per unit and reuse across the node loop.
  std::unordered_map<std::uint64_t, Resolved> resolve_memo;
  std::vector<PendingInterval> live;
  std::vector<Resolved> kept;
  // Per-writer sorted foreign clock entries of the current batch (see the
  // absorption predicate below).
  std::vector<std::vector<Seq>> foreign_vcw(nprocs);
  // Chain intern cache for this worker's stripe.  Keyed on the node's
  // pre-existing chains (header fields + body identity — bodies are
  // compared by pointer, which is sound because every body referenced by
  // a key outlives the cache) and the kept record pointers; the unit is
  // implicit (all keys of one worker iteration share it, and the cache is
  // cleared per unit).  The value is a node's complete post-build chain
  // vector; a hit replaces the hitting node's chains wholesale with
  // header copies sharing the cached bodies.
  std::unordered_map<std::string, ProcId> chain_cache;
  std::string key;
  auto key_add = [&key](const void* p, std::size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  std::uint64_t chains_built = 0, chains_shared = 0;

  // Dominated-writer scratch for the virgin bookkeeping below: one bit per
  // processor with a dominated record naming the current unit this pass.
  std::vector<std::uint64_t> dom_writers(
      (static_cast<std::size_t>(nprocs) + 63) / 64);

  DSM_CHECK(gc_refs_.empty());
  for (UnitId u = static_cast<UnitId>(start); u < num_units;
       u += static_cast<UnitId>(step)) {
    chain_cache.clear();
    resolve_memo.clear();
    SharedState::VirginHistory& virgin = shared.virgin_history[u];

    // --- virgin-node bookkeeping (DESIGN.md §8) --------------------------
    // Union of dominated writers over every node's pending entries.  A
    // dominated record is pending at every node that never consumed it, so
    // a writer absent here has no record entering any build this pass.
    std::fill(dom_writers.begin(), dom_writers.end(), 0);
    bool any_unit_dom = false;
    for (ProcId x = 0; x < nprocs; ++x) {
      for (const PendingInterval& pi : shared.nodes[x]->pending_[u]) {
        if (pi.seq <= through[pi.proc]) {
          dom_writers[static_cast<std::size_t>(pi.proc) >> 6] |=
              std::uint64_t{1} << (pi.proc & 63);
          any_unit_dom = true;
        }
      }
    }
    // A still-virgin node whose OWN records are about to be flattened
    // stops being virgin now: it adopts the shared store — exactly its
    // per-node state, by induction — and takes the per-node path below.
    // Every remaining virgin's pending therefore holds the identical full
    // dominated batch (pending never holds own records), which is what
    // makes one shared store build exact for all of them.
    if (any_unit_dom) {
      for (ProcId w = 0; w < nprocs; ++w) {
        if (((dom_writers[static_cast<std::size_t>(w) >> 6] >> (w & 63)) &
             1) == 0) {
          continue;
        }
        if (shared.sharers->Register(u, w)) continue;  // already a sharer
        Node& writer = *shared.nodes[w];
        if (!virgin.chains.empty()) writer.flattened_[u] = virgin.chains;
      }
    }
    if (shared.sharers->SharerCount(u) == nprocs && !virgin.chains.empty()) {
      // Every node adopted the shared history; nothing will read it again.
      std::vector<FlattenedChain>().swap(virgin.chains);
    }
    bool virgin_built = false;  // store build done for this pass
    std::uint64_t virgin_new_chains = 0;
    int virgin_consumers = 0;   // virgins with dominated pending

    for (ProcId x = 0; x < nprocs; ++x) {
      Node& node = *shared.nodes[x];
      std::vector<PendingInterval>& pend = node.pending_[u];
      if (pend.empty()) continue;
      if (!shared.sharers->IsSharer(u, x)) {
        // Virgin fast path (DESIGN.md §8): this node never faulted on the
        // unit, so its dominated batch equals every other virgin's.
        // The first virgin flattens the shared batch once into the virgin
        // store; the rest only drop their dominated entries.  Chain
        // headers thus stop scaling with the cluster size on units most
        // nodes never touch.
        live.clear();
        kept.clear();
        bool any_dom = false;
        for (const PendingInterval& pi : pend) {
          if (pi.seq > through[pi.proc]) {
            live.push_back(pi);
            continue;
          }
          any_dom = true;
          if (virgin_built) continue;  // first virgin resolved the batch
          const std::uint64_t rkey =
              (std::uint64_t{static_cast<std::uint32_t>(pi.proc)} << 32) |
              pi.seq;
          auto memo = resolve_memo.find(rkey);
          if (memo == resolve_memo.end()) {
            const std::shared_ptr<const IntervalRecord>* owner =
                find_dominated(pi.proc, pi.seq);
            const IntervalRecord* rec = owner->get();
            const int di = rec->IndexOf(u);
            DSM_CHECK_GE(di, 0);
            memo = resolve_memo
                       .emplace(rkey,
                                Resolved{rec, owner, di, vc_sum_of(*rec)})
                       .first;
            gc_refs_.push_back({u, rec, di, memo->second.vc_sum});
          }
          kept.push_back(memo->second);
        }
        if (!any_dom) continue;
        ++virgin_consumers;
        pend.assign(live.begin(), live.end());
        if (virgin_built) continue;
        virgin_built = true;
        for (ProcId w = 0; w < nprocs; ++w) foreign_vcw[w].clear();
        for (const Resolved& q : kept) {
          for (ProcId w = 0; w < nprocs; ++w) {
            if (q.rec->proc != w) foreign_vcw[w].push_back(q.rec->vc[w]);
          }
        }
        for (ProcId w = 0; w < nprocs; ++w) {
          std::sort(foreign_vcw[w].begin(), foreign_vcw[w].end());
        }
        auto may_absorb_v = [&](ProcId w, Seq first_seq, Seq tail_seq) {
          const std::vector<Seq>& v = foreign_vcw[w];
          auto it = std::lower_bound(v.begin(), v.end(), first_seq);
          return it == v.end() || *it >= tail_seq;
        };
        std::vector<FlattenedChain>& flat = virgin.chains;
        for (ProcId w = 0; w < nprocs; ++w) {
          std::size_t open = flat.size();
          for (std::size_t i = 0; i < flat.size(); ++i) {
            if (flat[i].writer == w) open = i;
          }
          for (const Resolved& r : kept) {
            if (r.rec->proc != w) continue;
            const Diff& diff =
                r.rec->diffs[static_cast<std::size_t>(r.di)];
            if (open != flat.size() && !flat[open].blocked &&
                may_absorb_v(w, flat[open].first_seq, r.rec->seq)) {
              FlattenedChain& c = flat[open];
              ChainBody& b = c.MutableBody();
              b.runs = Diff::MergeRuns(b.runs, diff.runs());
              b.payload_words = Diff::RunWords(b.runs);
              b.last_vc = r.rec->vc;
              b.stamps = std::make_shared<const StampNode>(StampNode{
                  StampRef{r.rec->diffed, static_cast<std::uint32_t>(r.di)},
                  std::move(b.stamps)});
              c.last_seq = r.rec->seq;
              // Virgin-store bodies are adopted by fault paths with no
              // synchronization point to flag them at, so the store's
              // header stays permanently "shared" (every copy inherits
              // the flag; a later store extension clones first).
              c.body_shared = true;
            } else {
              FlattenedChain c;
              c.writer = w;
              c.first_seq = r.rec->seq;
              c.last_seq = r.rec->seq;
              c.rec = *r.owner;
              c.di = r.di;
              flat.push_back(std::move(c));
              ++virgin_new_chains;
              open = flat.size() - 1;
            }
          }
        }
        for (FlattenedChain& c : flat) {
          if (c.blocked) continue;
          const std::vector<Seq>& v = foreign_vcw[c.writer];
          if (!v.empty() && v.back() >= c.first_seq) c.blocked = true;
        }
        continue;
      }
      live.clear();
      kept.clear();
      bool any_dom = false;
      for (const PendingInterval& pi : pend) {
        if (pi.seq > through[pi.proc]) {
          live.push_back(pi);
          continue;
        }
        any_dom = true;
        const std::uint64_t rkey =
            (std::uint64_t{static_cast<std::uint32_t>(pi.proc)} << 32) |
            pi.seq;
        auto memo = resolve_memo.find(rkey);
        if (memo == resolve_memo.end()) {
          const std::shared_ptr<const IntervalRecord>* owner =
              find_dominated(pi.proc, pi.seq);
          const IntervalRecord* rec = owner->get();
          const int di = rec->IndexOf(u);
          DSM_CHECK_GE(di, 0);
          memo = resolve_memo.emplace(
                             rkey, Resolved{rec, owner, di, vc_sum_of(*rec)})
                     .first;
          // Route the record to the canonical base exactly once per unit:
          // its words reach this node's chains only through the base.
          gc_refs_.push_back({u, rec, di, memo->second.vc_sum});
        }
        kept.push_back(memo->second);
      }
      if (!any_dom) continue;
      pend.assign(live.begin(), live.end());

      // Pre-state identity: (body pointer, blocked) per chain suffices.
      // A fault always consumes (clears) the chains it touches, and a GC
      // extension copy-on-writes any shared body, so two chains with the
      // same body pointer are bit-identical except for the blocked flag,
      // which a later build may set on one sharer's header only.
      key.clear();
      for (const FlattenedChain& c : node.flattened_[u]) {
        key.push_back(c.blocked ? 1 : 0);
        const void* identity = c.rec != nullptr
                                   ? static_cast<const void*>(c.rec.get())
                                   : static_cast<const void*>(c.body.get());
        key_add(&identity, sizeof(identity));
      }
      key.push_back('\xff');
      for (const Resolved& r : kept) {
        key_add(&r.rec, sizeof(r.rec));
      }
      auto hit = chain_cache.find(key);
      if (hit != chain_cache.end()) {
        // Identical pre-state and inputs: adopt the builder node's result
        // (cheap headers; the bodies — runs, stamps, clocks — are
        // shared).  The builder's vector is final (every node is visited
        // once per unit), and this node's vector was its element-wise
        // twin before the build, so only entries the build touched need
        // copying — long-lived chain lists on never-faulting nodes would
        // otherwise pay a full refcount round per chain per pass.
        // Non-const: adopting flags the builder's merged bodies as shared
        // (safe — one worker owns every node of this unit, see above), so
        // the builder's own next extension copy-on-writes instead of
        // mutating a body this node now also holds.
        std::vector<FlattenedChain>& built =
            shared.nodes[hit->second]->flattened_[u];
        std::vector<FlattenedChain>& mine = node.flattened_[u];
        DSM_CHECK_GE(built.size(), mine.size());
        for (std::size_t i = 0; i < mine.size(); ++i) {
          FlattenedChain& b = built[i];
          FlattenedChain& m = mine[i];
          if (m.rec.get() != b.rec.get() || m.body.get() != b.body.get() ||
              m.blocked != b.blocked || m.last_seq != b.last_seq) {
            if (b.body != nullptr) b.body_shared = true;
            m = b;
            ++chains_shared;
          }
        }
        for (std::size_t i = mine.size(); i < built.size(); ++i) {
          if (built[i].body != nullptr) built[i].body_shared = true;
          mine.push_back(built[i]);
          ++chains_shared;
        }
        continue;
      }
      // The fault path's absorption predicate — "no foreign interval q
      // with chain_first happened-before q but not candidate-tail
      // happened-before q" — only reads q.vc[w] for a chain of writer w:
      // it fails exactly when some foreign q has first_seq <= q.vc[w] <
      // tail_seq.  Batches from lock-heavy programs can hold hundreds of
      // records per unit, so evaluate it by binary search over the
      // sorted foreign clock entries instead of rescanning the batch.
      for (ProcId w = 0; w < nprocs; ++w) foreign_vcw[w].clear();
      for (const Resolved& q : kept) {
        for (ProcId w = 0; w < nprocs; ++w) {
          if (q.rec->proc != w) foreign_vcw[w].push_back(q.rec->vc[w]);
        }
      }
      for (ProcId w = 0; w < nprocs; ++w) {
        std::sort(foreign_vcw[w].begin(), foreign_vcw[w].end());
      }
      auto may_absorb = [&](ProcId w, Seq first_seq, Seq tail_seq) {
        const std::vector<Seq>& v = foreign_vcw[w];
        auto it = std::lower_bound(v.begin(), v.end(), first_seq);
        return it == v.end() || *it >= tail_seq;
      };

      std::vector<FlattenedChain>& flat = node.flattened_[u];
      for (ProcId w = 0; w < nprocs; ++w) {
        // Only the last existing chain of writer w may be extended.
        std::size_t open = flat.size();
        for (std::size_t i = 0; i < flat.size(); ++i) {
          if (flat[i].writer == w) open = i;
        }
        for (const Resolved& r : kept) {
          if (r.rec->proc != w) continue;
          const Diff& diff = r.rec->diffs[static_cast<std::size_t>(r.di)];
          if (open != flat.size() && !flat[open].blocked &&
              may_absorb(w, flat[open].first_seq, r.rec->seq)) {
            FlattenedChain& c = flat[open];
            // Copy-on-write: converts a single-record chain to a merged
            // body, or clones a body shared with other nodes whose
            // pending sets diverged.
            ChainBody& b = c.MutableBody();
            b.runs = Diff::MergeRuns(b.runs, diff.runs());
            b.payload_words = Diff::RunWords(b.runs);
            b.last_vc = r.rec->vc;
            b.stamps = std::make_shared<const StampNode>(StampNode{
                StampRef{r.rec->diffed, static_cast<std::uint32_t>(r.di)},
                std::move(b.stamps)});
            c.last_seq = r.rec->seq;
          } else {
            // New chains start in the single-record form: one shared_ptr
            // copy, no merged body until (unless) something is absorbed.
            FlattenedChain c;
            c.writer = w;
            c.first_seq = r.rec->seq;
            c.last_seq = r.rec->seq;
            c.rec = *r.owner;
            c.di = r.di;
            flat.push_back(std::move(c));
            ++chains_built;
            open = flat.size() - 1;
          }
        }
      }
      // A foreign reclaimed interval ordered after a chain's head means
      // no later interval may ever be absorbed into the chain (the fault
      // path would re-check this against the record, which is about to be
      // reclaimed — freeze the verdict in the flag).
      for (FlattenedChain& c : flat) {
        if (c.blocked) continue;
        const std::vector<Seq>& v = foreign_vcw[c.writer];
        if (!v.empty() && v.back() >= c.first_seq) c.blocked = true;
      }
      chain_cache.emplace(key, x);
    }
    // The store build ran once; credit it as if each consuming virgin had
    // built (shared) it, keeping the counters comparable across runs with
    // different sharer populations.
    if (virgin_consumers > 0) {
      chains_built += virgin_new_chains;
      chains_shared +=
          virgin_new_chains * static_cast<std::uint64_t>(virgin_consumers - 1);
    }
  }
  ArchiveTelemetry& tel = shared.archive_telemetry;
  tel.chains_built.fetch_add(chains_built, std::memory_order_relaxed);
  tel.chains_shared.fetch_add(chains_shared, std::memory_order_relaxed);

  // Checkpoint-complete mode (DESIGN.md §9).  The pending-driven routing
  // above sends a record's words to the base only when some node still had
  // the record pending — sufficient for the protocol (every node that
  // consumed it already applied its words), but a recovery checkpoint must
  // hold EVERY dominated interval: the victim's rebuilt image is base +
  // surviving log, with nothing else to fall back on.  Under an armed
  // fault plan, replace this stripe's base-routing refs wholesale with the
  // full dominated record set.  Host-side only (the chain builds above are
  // untouched), and armed-plan-gated, so fault-free runs stay
  // bit-identical.  Each (unit, record) pair appears exactly once; the
  // apply pass orders each unit group in happens-before order itself.
  if (shared.fault != nullptr) {
    gc_refs_.clear();
    for (ProcId p = 0; p < nprocs; ++p) {
      for (const std::shared_ptr<const IntervalRecord>& owner :
           dom_prefix_of(p)) {
        const IntervalRecord* rec = owner.get();
        const std::uint64_t sum = rec->vc.Sum();
        for (std::size_t k = 0; k < rec->units.size(); ++k) {
          const UnitId u = rec->units[k];
          if (u % static_cast<UnitId>(step) != static_cast<UnitId>(start)) {
            continue;
          }
          gc_refs_.push_back({u, rec, static_cast<int>(k), sum});
        }
      }
    }
    std::sort(gc_refs_.begin(), gc_refs_.end(),
              [](const GcRef& a, const GcRef& b) { return a.unit < b.unit; });
  }
}

// Apply phase (pass 2): flatten this stripe's referenced diffs into the
// canonical base, per unit in happens-before order, so ordered overwrites
// land newest-last.  Clock sums give a cheap deterministic linear
// extension: r happened-before q implies q.vc >= r.vc pointwise (covering
// a seq means the covering clock was merged from the closing writer's
// clock), strictly so in q's own component, hence sum(r.vc) < sum(q.vc).
// Concurrent records tie-break by (proc, seq); race-free programs write
// disjoint words in concurrent intervals, so the tie-break is
// unobservable there.  (Sums are precomputed at resolve time — deriving
// them inside the comparator dominated this pass on lock-heavy batches.)
// Also runs the base release-check for the stripe: a base no chain
// references any more goes back to the pool.  Release never overlaps a
// concurrent worker's apply: a unit with fresh references always retains
// chains.
void Node::GcApplyStripe(int start, int step) {
  SharedState& shared = shared_;
  const int nprocs = shared.config.num_procs;
  const std::size_t num_units = shared.heap.num_units();

  // gc_refs_ is already grouped by unit in ascending order (the flatten
  // stripe walks units ascending), so only each group needs the
  // happens-before sort — far cheaper than one global sort on lock-heavy
  // batches.
  for (std::size_t i = 0; i < gc_refs_.size();) {
    const UnitId u = gc_refs_[i].unit;
    std::size_t j = i;
    while (j < gc_refs_.size() && gc_refs_[j].unit == u) ++j;
    std::sort(gc_refs_.begin() + static_cast<std::ptrdiff_t>(i),
              gc_refs_.begin() + static_cast<std::ptrdiff_t>(j),
              [](const GcRef& a, const GcRef& b) {
                if (a.vc_sum != b.vc_sum) return a.vc_sum < b.vc_sum;
                return a.rec->proc != b.rec->proc
                           ? a.rec->proc < b.rec->proc
                           : a.rec->seq < b.rec->seq;
              });
    std::span<std::byte> base = shared.canonical->Ensure(u);
    const IntervalRecord* last = nullptr;
    for (; i < j; ++i) {
      const GcRef& r = gc_refs_[i];
      if (r.rec == last) continue;  // several nodes referenced it
      last = r.rec;
      r.rec->diffs[static_cast<std::size_t>(r.di)].Apply(base);
    }
  }
  gc_refs_.clear();

  // Armed fault plan: the bases ARE the recovery checkpoints.  Never
  // release one — a released base re-Ensures ZEROED, silently dropping
  // checkpoint content the victim's rebuild depends on (DESIGN.md §9).
  if (shared.fault != nullptr) return;

  for (UnitId u = static_cast<UnitId>(start); u < num_units;
       u += static_cast<UnitId>(step)) {
    if (!shared.canonical->Has(u)) continue;
    // The virgin store pins the base too: any never-faulted node may adopt
    // its chains at a later fault and copy from it.
    bool needed = !shared.virgin_history[u].chains.empty();
    for (ProcId x = 0; x < nprocs; ++x) {
      // Lazy-header invariant (DESIGN.md §8): per-node chain state exists
      // only on registered sharers; everyone else reads the virgin store.
      DSM_DCHECK(shared.nodes[x]->flattened_[u].empty() ||
                 shared.sharers->IsSharer(u, x));
      needed = needed || !shared.nodes[x]->flattened_[u].empty();
    }
    if (!needed) shared.canonical->Release(u);
  }
}

// Reclaim phase (pass 3): prune this node's own dominated archive prefix
// (FlattenedChains keep the lazy-diffing stamp arrays of their member
// records alive).  Runs after the barrier window closes, concurrent with
// resumed application threads: archives are mutex-guarded, every
// dominated reference was converted to a chain in the
// flatten phase, and notices_seen_ >= through everywhere, so no fault or
// notice collection can touch the pruned prefix.
void Node::GcPruneOwn(const VectorClock& through) {
  // Drop the pass's shared snapshot first: records survive the prune
  // exactly as long as a FlattenedChain retains them.
  shared_.gc_dom_prefix[id_].clear();
  shared_.gc_dom_ready[id_].store(0, std::memory_order_relaxed);
  shared_.archives[id_]->PruneThrough(through[id_]);
}

void Node::CollectNotices(const VectorClock& target,
                          std::size_t* notice_bytes,
                          std::vector<const IntervalRecord*>& out) const {
  out.clear();
  std::size_t bytes = 0;
  for (ProcId p = 0; p < num_procs(); ++p) {
    if (p == id_) continue;
    if (target[p] <= notices_seen_[p]) continue;
    auto range = shared_.archives[p]->Range(notices_seen_[p], target[p]);
    for (const IntervalRecord* rec : range) {
      bytes += rec->NoticeBytes();
      out.push_back(rec);
    }
  }
  if (notice_bytes != nullptr) *notice_bytes = bytes;
}

void Node::InvalidateFrom(
    const std::vector<const IntervalRecord*>& records) {
  const CostModel& cost = shared_.config.cost;
  for (const IntervalRecord* rec : records) {
    for (UnitId unit : rec->units) {
      pending_[unit].push_back({rec->proc, rec->seq});
      const UnitState s = table_.state(unit);
      if (s != UnitState::kInvalid) {
        table_.set_state(unit, UnitState::kInvalid);
        comm_stats_.counters().units_invalidated += 1;
        clock_.Advance(cost.mprotect_op);
      }
    }
    notices_seen_[rec->proc] = std::max(notices_seen_[rec->proc], rec->seq);
  }
}

std::size_t Node::OutgoingNoticeBytes() {
  std::size_t bytes = 0;
  for (const IntervalRecord* rec :
       shared_.archives[id_]->Range(last_sent_seq_, vc_[id_])) {
    bytes += rec->NoticeBytes();
  }
  last_sent_seq_ = vc_[id_];
  return bytes;
}

void Node::Barrier() {
  if (num_procs() == 1) return;
  if (!protocol_enabled()) {
    // Reference backend: pure rendezvous.  Clocks still reconcile to the
    // slowest arrival (that is how a barrier behaves on any machine), but
    // no notices move and no communication is modelled.  The race
    // detector brackets the rendezvous like any backend's barrier: vc_
    // is never maintained here, which is exactly why the detector keeps
    // its own clocks.
    if (race_ != nullptr) race_->OnBarrierArrive(id_);
    BarrierService::Result res =
        shared_.barrier->Arrive(id_, vc_, clock_.now(), 0);
    if (race_ != nullptr) race_->OnBarrierDepart(id_);
    clock_.AdvanceTo(res.base_time);
    return;
  }
  const CostModel& cost = shared_.config.cost;

  CloseInterval();
  const std::size_t arrival_bytes = OutgoingNoticeBytes();

  // Coordinator for this barrier: proc 0 unless an at-barrier event kills
  // it at this phase — then the lowest surviving rank assumes the
  // coordinator roles for exactly this barrier (DESIGN.md §9).  Every
  // node derives the same answer from the armed schedule and its own
  // sync_phase_; the barrier service cross-checks the agreement.
  const ProcId coord = shared_.CoordinatorFor(sync_phase_);

  // Race-detector barrier bracket (observational; DESIGN.md §10): merge
  // this node's detector clock into the generation on arrival, adopt the
  // fully merged clock once the real barrier releases us.  Both sides
  // fire before any crash-recovery point of this barrier, so a rebuilt
  // victim continues with ordering already settled.
  if (race_ != nullptr) race_->OnBarrierArrive(id_);
  BarrierService::Result res = shared_.barrier->Arrive(
      id_, vc_, clock_.now(), arrival_bytes, hlrc_ ? &notices_seen_ : nullptr,
      coord);
  if (race_ != nullptr) race_->OnBarrierDepart(id_);

  // Extended barrier window: every processor is now inside the barrier,
  // so no diff request is in flight anywhere.  Drain the request flags
  // peers set during the finished phase into the plain per-unit view
  // consulted by WriteFault, then rendezvous again so no processor starts
  // the next phase (and issues new requests) before every drain finished.
  // This quantizes the lazy-diffing cost decisions to barrier phases,
  // making modelled time independent of host thread scheduling.
  //
  // HLRC diffs eagerly and keeps no diff archive, so neither the
  // lazy-diffing flags nor the archive GC exist for it; the idle window
  // instead hosts the trivial notice-log watermark prune.
  if (!hlrc_) {
    for (std::size_t u = 0; u < diff_requested_.size(); ++u) {
      if (diff_requested_[u].load(std::memory_order_relaxed) != 0) {
        diff_requested_[u].store(0, std::memory_order_relaxed);
        diff_request_seen_[u] = 1;
      }
    }
  }
  // Archive GC rides the same idle window (DESIGN.md §6), striped over
  // every node: each flattens all nodes' dominated pending notices for
  // its own unit stripe, an inner rendezvous separates flattening from
  // base application (applies read other stripes' reclaimed records), and
  // the dominated archive prefixes are pruned after the window closes
  // (mutex-guarded; nothing live references them).  Every node derives
  // the same gc_due verdict from purely local state — gc_history holds
  // min(completed barriers, lag) entries, so "history full" is exactly
  // sync_phase_ >= lag — and proc 0 only appends to the history after the
  // inner rendezvous proved every stripe worker took its copy of the
  // flatten target.
  const int gc_interval = shared_.config.gc_interval_barriers;
  const auto gc_lag = static_cast<std::uint32_t>(
      std::max(1, shared_.config.gc_lag_barriers));
  const bool gc_due =
      !hlrc_ && gc_interval > 0 && sync_phase_ >= gc_lag &&
      (sync_phase_ + 1) % static_cast<std::uint32_t>(gc_interval) == 0;
  bool gc_ran = false;
  VectorClock gc_through;
  if (gc_due) {
    // Stable read: proc 0 appends to gc_history only after the closing
    // rendezvous below, which happens-before every other node's next
    // Arrive — so the deque is frozen while any node copies the front.
    gc_through = shared_.gc_history.front();
    // Size the pass (archives are frozen, so every node computes the
    // same count and picks the same mode).  Light passes — steady-state
    // barrier programs reclaim a handful of records per barrier — run
    // serially on proc 0 inside the existing window: an inner rendezvous
    // would cost more in wakeups than the whole pass.  Heavy lock-driven
    // batches stripe across every idle node, with the rendezvous
    // separating flattening from base application.
    std::size_t dominated = 0;
    for (ProcId p = 0; p < num_procs(); ++p) {
      dominated += shared_.archives[p]->CountThrough(gc_through[p]);
    }
    gc_ran = dominated > 0;
    // Serial-vs-striped switch, hardware-concurrency aware (see
    // GcSerialPassLimit): identical on every node, so all pick one mode.
    if (gc_ran && dominated <= shared_.gc_serial_pass_limit) {
      if (id_ == res.coordinator) {
        // Serial-GC role: normally proc 0; migrated to the lowest
        // surviving rank for a barrier whose schedule kills proc 0 (the
        // about-to-crash victim's pass would die with it) and back once
        // the victim has rebuilt.
        GcFlattenStripe(gc_through, 0, 1);
        GcApplyStripe(0, 1);
        // Checkpoint watermark (DESIGN.md §9): everything <= gc_through is
        // now in the bases.  Published before the closing rendezvous, which
        // happens-before any recovery read of it.
        if (shared_.fault != nullptr) shared_.checkpoint_vc = gc_through;
        ++shared_.gc_passes;
      }
    } else if (gc_ran) {
      GcFlattenStripe(gc_through, id_, num_procs());
      shared_.barrier->Rendezvous();
      GcApplyStripe(id_, num_procs());
      if (id_ == res.coordinator) {
        // Striped watermark: the coordinator's apply may finish before its
        // peers', but the only reader — a recovering victim — reads after
        // the closing rendezvous, which orders it after every stripe's
        // apply.
        if (shared_.fault != nullptr) shared_.checkpoint_vc = gc_through;
        ++shared_.gc_passes;
      }
    }
  }
  // HLRC rides the same idle window for its notice-log watermark prune
  // (and, under an armed schedule, for flipping crash-driven re-home
  // batches into the shared override table at a point every node passes
  // together): every peer is parked between Arrive and Rendezvous, so
  // their notices_seen_ clocks are frozen and nobody can be flushing,
  // fetching, or collecting while the coordinator works.
  if (hlrc_ && id_ == res.coordinator) {
    if (shared_.fault != nullptr) shared_.ApplyPendingRehomes();
    HlrcPruneNotices(res.min_seen);
  }
  shared_.barrier->Rendezvous();
  // History maintenance after the rendezvous: ordered after every
  // gc_through copy above and before any node's next barrier (its next
  // Arrive cannot complete before the coordinator's, which follows this
  // push).
  if (id_ == res.coordinator && gc_interval > 0 && !hlrc_) {
    shared_.gc_history.push_back(res.global_vc);
    while (shared_.gc_history.size() > gc_lag) {
      shared_.gc_history.pop_front();
    }
  }
  if (gc_ran) GcPruneOwn(gc_through);
  if (shared_.fault != nullptr) {
    const int ev = shared_.fault->MatchAtBarrier(id_, sync_phase_);
    if (ev >= 0) {
      // Crash point "at barrier n": the victim dies as barrier n completes
      // (its interval is archived, any GC pass of this window — run by the
      // failed-over coordinator if the victim is proc 0 — has fully
      // applied and pruned) and rebuilds to the barrier's global clock.
      // The CollectNotices below then finds nothing new — recovery already
      // installed everything the global cut covers.
      RecoveryCoordinator::Recover(*this, res.global_vc, ev);
    }
  }
  ++sync_phase_;
  // A completed barrier starts a fresh phase: lock-chain sub-phases are
  // meaningful only between two barriers (stamp keys embed sync_phase_,
  // so stale sub-phases could never collide anyway — resetting keeps all
  // nodes aligned at phase entry, mirroring gc-free barrier programs).
  lock_subphase_ = 0;

  std::size_t incoming_bytes = 0;
  std::vector<const IntervalRecord*>& records = notice_scratch_;
  CollectNotices(res.global_vc, &incoming_bytes, records);
  // Sparse-clock telemetry (DESIGN.md §8): wire bytes the consumed
  // notices' interval clocks would cost, run-length encoded vs dense.
  for (const IntervalRecord* rec : records) {
    comm_stats_.counters().notice_clock_bytes += rec->vc.EncodedBytes();
  }
  comm_stats_.counters().notice_clock_bytes_dense +=
      records.size() * VectorClock::DenseEncodedBytes(num_procs());

  // Modelled barrier cost (centralized manager, normally proc 0 — the
  // coordinator when proc 0 crashes at this barrier): all clients ship
  // arrival messages; the manager processes every arrival, then ships
  // release messages carrying the write notices each client is missing.
  const VirtualNanos base =
      res.base_time + shared_.net.RoundTripTime(res.max_arrival_bytes, 0) +
      cost.barrier_fixed +
      cost.barrier_per_arrival * (num_procs() - 1);
  VirtualNanos release_time = base;
  if (id_ != res.coordinator) {
    release_time += shared_.net.config().ns_per_byte *
                    static_cast<VirtualNanos>(incoming_bytes);
    net_stats_.Record(MessageKind::kBarrierArrival, arrival_bytes);
    net_stats_.Record(MessageKind::kBarrierRelease, incoming_bytes);
    comm_stats_.counters().sync_messages += 2;
  }
  clock_.AdvanceTo(release_time);

  InvalidateFrom(records);
  vc_.Merge(res.global_vc);

  if (shared_.config.aggregation == AggregationMode::kDynamic) {
    aggregator_.OnSynchronization();
  }
}

void Node::AcquireLock(int lock_id) {
  if (num_procs() == 1) return;
  if (!protocol_enabled()) {
    // Reference backend: mutual exclusion only.  The grant cannot arrive
    // before the previous holder released.
    LockService::Grant grant = shared_.locks->Acquire(lock_id, id_);
    if (race_ != nullptr) {
      race_->OnLockAcquire(id_, lock_id, grant.cached, grant.chain_pos);
    }
    clock_.AdvanceTo(grant.release_time);
    return;
  }
  const CostModel& cost = shared_.config.cost;

  LockService::Grant grant = shared_.locks->Acquire(lock_id, id_);
  // Detector acquire (before the cached early-out: a cached re-acquire
  // still tracks the held set; a transfer merges the lock's clock).
  if (race_ != nullptr) {
    race_->OnLockAcquire(id_, lock_id, grant.cached, grant.chain_pos);
  }
  if (grant.cached) {
    // Token already local: no communication, constant local cost.
    clock_.Advance(2 * kNanosPerMicro);
    return;
  }
  // Lock-chain-aware lazy diffing (DESIGN.md §4): a token transfer
  // advances this node's sub-phase to the transfer's position in the
  // service-wide hand-off order, so diff requests issued from here on are
  // ordered after — and served from the cache of — anything materialized
  // under the previous holder's acquires.
  if (!hlrc_) {
    lock_subphase_ = static_cast<std::uint32_t>(grant.chain_pos);
  }

  VectorClock target = vc_;
  target.Merge(grant.release_vc);
  std::size_t notice_bytes = 0;
  std::vector<const IntervalRecord*>& records = notice_scratch_;
  CollectNotices(target, &notice_bytes, records);
  for (const IntervalRecord* rec : records) {
    comm_stats_.counters().notice_clock_bytes += rec->vc.EncodedBytes();
  }
  comm_stats_.counters().notice_clock_bytes_dense +=
      records.size() * VectorClock::DenseEncodedBytes(num_procs());

  // Request travels to the manager/holder; the grant returns with the
  // write notices the acquirer has not yet seen.  The grant cannot arrive
  // before the previous holder released.
  clock_.AdvanceTo(grant.release_time);
  clock_.Advance(shared_.net.RoundTripTime(16, 16 + notice_bytes) +
                 cost.lock_manager_overhead);
  net_stats_.Record(MessageKind::kLockRequest, 16);
  net_stats_.Record(MessageKind::kLockGrant, 16 + notice_bytes);
  comm_stats_.counters().sync_messages += 2;

  InvalidateFrom(records);
  vc_.Merge(target);

  if (shared_.config.aggregation == AggregationMode::kDynamic) {
    aggregator_.OnSynchronization();
  }
}

void Node::ReleaseLock(int lock_id) {
  if (num_procs() == 1) return;
  CloseInterval();  // no-op when the protocol is off
  // Detector release strictly before the service release: the next
  // grantee's acquire hook must find this release's clock on the lock.
  if (race_ != nullptr) race_->OnLockRelease(id_, lock_id);
  shared_.locks->Release(lock_id, id_, vc_, clock_.now());
}

}  // namespace dsm
