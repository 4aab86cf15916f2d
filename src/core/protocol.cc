#include "core/protocol.h"

#include <algorithm>
#include <string>
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
  archives.reserve(cfg.num_procs);
  for (int p = 0; p < cfg.num_procs; ++p) {
    archives.push_back(std::make_unique<IntervalArchive>());
    // The telemetry reports the LRC diff archive the GC keeps bounded.
    // HLRC records are notice-only metadata that the barrier coordinator's
    // PruneArchives trims to a seen-everywhere watermark — hooking them up
    // would report a phantom archive for a backend that has none, and the
    // reference backend never archives at all.
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
      block_shift_(BlockShift(unit_bytes_ / kWordBytes)),
      protocol_enabled_(shared.config.num_procs > 1 &&
                        shared.config.backend != BackendKind::kReference),
      hlrc_(protocol_enabled_ &&
            shared.config.backend == BackendKind::kHlrc),
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
      written_(shared.heap.num_units(), 0),
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
}

// Multi-unit spans: one inline access per unit-sized chunk.  Each chunk
// charges its own words; integer sums are exact, so the modelled time
// equals one batched charge for the whole span.
void Node::ReadBytesSlow(GlobalAddr addr, void* out, std::size_t bytes) {
  auto* dst = static_cast<std::byte*>(out);
  while (bytes > 0) {
    const std::size_t chunk =
        std::min(bytes, unit_bytes_ - (addr & (unit_bytes_ - 1)));
    ReadBytes(addr, dst, chunk);
    addr += chunk;
    dst += chunk;
    bytes -= chunk;
  }
}

void Node::WriteBytesSlow(GlobalAddr addr, const void* in,
                          std::size_t bytes) {
  auto* src = static_cast<const std::byte*>(in);
  while (bytes > 0) {
    const std::size_t chunk =
        std::min(bytes, unit_bytes_ - (addr & (unit_bytes_ - 1)));
    WriteBytes(addr, src, chunk);
    addr += chunk;
    src += chunk;
    bytes -= chunk;
  }
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
  written_[unit] = 0;  // twin == image at creation
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
    const std::uint32_t ex = comm_stats_.NewExchange();
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
    comm_stats_.AddDelivered(ex, delivered_words);
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
        tracker_.DeliverRuns(unit, runs, need.exchange_id);
      } else {
        need.diff->Apply(UnitSpan(unit));
        if (twinned) need.diff->Apply(table_.twin(unit));
        tracker_.DeliverRuns(unit, need.diff->runs(), need.exchange_id);
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

// Release: close the open interval, diff every dirty unit and archive the
// write notices.  The backends differ only in where the diff goes.
//
// LRC keeps it in the archived record.  Diffs are materialized here for
// bookkeeping (archived records must be immutable), but no cost is
// charged: TreadMarks diffs lazily, so a release only records write
// notices.  The diff-creation cost is charged server-side when a peer
// actually requests the diff (FetchUnits), and a unit re-dirtied before
// any such request re-twins for free.
//
// HLRC (DESIGN.md §7) is the dual: the releaser pays the twin scan now,
// applies each diff to the unit's home copy, and ships one combined
// message per remote home (HlrcFlushExchange).  The archived record keeps
// only the write notices — the payload lives at the homes, so nothing
// here ever needs garbage collecting.
void Node::CloseInterval() {
  if (!protocol_enabled()) return;
  const auto& dirty = table_.dirty_units();
  if (dirty.empty()) return;
  const CostModel& cost = shared_.config.cost;

  IntervalRecord rec;
  rec.proc = id_;
  rec.seq = ++vc_[id_];
  rec.units.reserve(dirty.size());
  rec.diffs.reserve(dirty.size());
  for (UnitId unit : dirty) {
    rec.units.push_back(unit);
    Diff diff = Diff::Create(table_.twin(unit), UnitSpan(unit), written_[unit]);
    table_.DropTwin(unit);
    if (table_.state(unit) == UnitState::kDirty) {
      table_.set_state(unit, UnitState::kReadValid);
    }
    comm_stats_.counters().diffs_created += 1;
    if (!hlrc_) {
      retwin_cheap_[unit] = 1;
      rec.diffs.push_back(std::move(diff));
      continue;
    }
    // Notice-only record: the empty diff keeps the archive's units/diffs
    // parallel-array invariant without retaining any payload.  No
    // retwin_cheap_: under eager diffing the twin is genuinely gone after
    // a release, so the next write pays the full twin again.  The
    // modelled scan covers the whole unit — eager diffing is how the
    // releaser discovers emptiness — while the host scan above visits only
    // the written blocks.
    rec.diffs.emplace_back();
    clock_.Advance(cost.DiffCreateCost(unit_bytes_));
    // An empty diff means the interval changed no bytes: there is nothing
    // for the home to absorb and the write notice travels with the sync
    // traffic — no flush message is modelled.
    if (diff.empty()) continue;
    {
      std::lock_guard lock(shared_.home_mutexes[unit]);
      diff.Apply({shared_.home_image.get() + shared_.heap.UnitBase(unit),
                  unit_bytes_});
    }
    const ProcId home = shared_.EffectiveHome(unit);
    if (home == id_) continue;
    if (hlrc_flush_bytes_[home] == 0) {
      hlrc_flush_bytes_[home] = 16;  // flush message header
    }
    hlrc_flush_bytes_[home] += 8 + diff.EncodedBytes();
    hlrc_flush_server_[home] += cost.DiffApplyCost(diff.payload_bytes());
    comm_stats_.counters().home_flushes += 1;
    comm_stats_.counters().home_flush_bytes += diff.payload_bytes();
  }
  rec.vc = vc_;
  table_.ClearDirtyList();
  if (hlrc_) HlrcFlushExchange();

  const IntervalRecord* stored = shared_.archives[id_]->Append(std::move(rec));
  if (shared_.fault != nullptr) {
    const int ev = shared_.fault->MatchAfterClose(id_, stored->seq);
    if (ev >= 0) {
      // Crash point: the interval just reached the (stable) archive, all
      // twins are dropped, nothing is half-written (under HLRC the homes
      // already absorbed its diffs).  Rebuild in place and continue
      // transparently (DESIGN.md §9).
      RecoveryCoordinator::Recover(*this, stored->vc, ev);
    }
  }
}

// One flush exchange per remote home the release touched; homes apply in
// parallel, and the releaser advances to the slowest acknowledgement.
void Node::HlrcFlushExchange() {
  const CostModel& cost = shared_.config.cost;
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
      ex = comm_stats_.NewExchange();
      const std::size_t request_bytes = 16 + 8 * list.size();
      const std::size_t response_bytes = list.size() * (16 + unit_bytes_);
      const std::size_t delivered_words = list.size() * words_per_unit;
      comm_stats_.AddDelivered(ex,
                               static_cast<std::uint32_t>(delivered_words));
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
      if (twinned) local = Diff::Create(table_.twin(unit), dst, written_[unit]);
      {
        const std::byte* src =
            shared_.home_image.get() + shared_.heap.UnitBase(unit);
        std::lock_guard lock(shared_.home_mutexes[unit]);
        std::memcpy(dst.data(), src, unit_bytes_);
        if (twinned) {
          std::memcpy(table_.twin(unit).data(), src, unit_bytes_);
        }
      }
      // The twin now matches the home copy and the image differs from it
      // by exactly `local`, whose runs lie inside the written blocks, so
      // written_[unit] still bounds the next scan.
      if (twinned && !local.empty()) local.Apply(dst);
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

// Flatten phase (pass 1 of DESIGN.md §6): the barrier coordinator
// converts the dominated pending notices of EVERY node for every unit
// into FlattenedChains, mirroring the fault path's chain coalescing
// exactly (same absorption predicate over the same record set — live
// records from later epochs can never block a dominated absorption,
// because they happened-after every dominated interval).  It also
// collects the (record, diff) pairs some node still needed into
// gc_refs_: only those must go into the canonical base — an interval
// pending nowhere was already applied by every node, and any word of it
// that a future chain covers is rewritten there by a newer record of that
// chain.  The pass is serial and walks units ascending and nodes in fixed
// order, so the build (telemetry included) is bit-deterministic.
//
// Shared flattened chains keep lock-heavy programs (Water) cheap: one
// reclaimed record is typically pending at most of the other nodes, and
// their chain builds are identical whenever their pre-existing chains and
// dominated record lists coincide.  An intern cache keyed on exactly
// those inputs builds each chain set once and hands out cheap headers
// over shared ChainBodies; per-node builds remain only where pending sets
// diverge.
//
// Per unit the pass runs its named phases: RetireVirginWriters, then per
// node Split (dominated/live split and record resolution), and either
// AdoptCached (an intern-cache hit) or Extend (the chain build).  The
// shared virgin store and the per-node path use the same Split and
// Extend.
struct Node::GcPass {
  struct Resolved {
    const IntervalRecord* rec;
    // Shared ownership handle (single-record chains retain the record);
    // points into dom_prefix, which outlives the pass's chain builds.
    const std::shared_ptr<const IntervalRecord>* owner;
    int di;
    std::uint64_t vc_sum;
  };

  GcPass(SharedState& shared_state, const VectorClock& target,
         std::vector<DiffRef>& base_refs)
      : shared(shared_state),
        through(target),
        refs(base_refs),
        nprocs(shared_state.config.num_procs),
        dom_prefix(static_cast<std::size_t>(nprocs)),
        dom_ready(static_cast<std::size_t>(nprocs), 0),
        foreign_vcw(static_cast<std::size_t>(nprocs)),
        dom_writers((static_cast<std::size_t>(nprocs) + 63) / 64) {}

  const std::vector<std::shared_ptr<const IntervalRecord>>& DominatedPrefix(
      ProcId p);
  void RetireVirginWriters(UnitId u);
  bool Split(UnitId u, std::vector<PendingInterval>& pend, bool resolve);
  bool AdoptCached(UnitId u, ProcId x);
  std::uint64_t Extend(std::vector<FlattenedChain>& flat, bool store);

  SharedState& shared;
  const VectorClock& through;
  std::vector<DiffRef>& refs;
  const int nprocs;
  // Snapshot of each archive's dominated prefix (see DominatedPrefix).
  std::vector<std::vector<std::shared_ptr<const IntervalRecord>>> dom_prefix;
  std::vector<std::uint8_t> dom_ready;
  // One reclaimed record is typically pending at most nodes; resolve each
  // (proc, seq) once per unit and reuse across the node loop.
  std::unordered_map<std::uint64_t, Resolved> resolve_memo;
  std::vector<PendingInterval> live;
  std::vector<Resolved> kept;  // the last Split's dominated records
  // Per-writer sorted foreign clock entries of the current batch (see the
  // absorption predicate in Extend).
  std::vector<std::vector<Seq>> foreign_vcw;
  // Chain intern cache for the current unit.  Keyed on the node's
  // pre-existing chains (header fields + body identity — bodies are
  // compared by pointer, which is sound because every body referenced by
  // a key outlives the cache) and the kept record pointers; the unit is
  // implicit (the cache is cleared per unit).  The value is the node
  // whose complete post-build chain vector a hit copies.
  std::unordered_map<std::string, ProcId> chain_cache;
  std::string key;
  std::uint64_t chains_built = 0;
  std::uint64_t chains_shared = 0;
  // Dominated-writer scratch for RetireVirginWriters: one bit per
  // processor with a dominated record naming the current unit this pass.
  std::vector<std::uint64_t> dom_writers;
};

// Archive p's dominated prefix, snapshotted on first use in the pass (one
// mutex hold per archive): lock-heavy programs resolve tens of thousands
// of (proc, seq) references per pass, and per-reference Find() would pay
// a mutex round-trip each.  The snapshot is a lock-free binary-search
// index; archives the pass never names are never copied.
const std::vector<std::shared_ptr<const IntervalRecord>>&
Node::GcPass::DominatedPrefix(ProcId p) {
  const auto i = static_cast<std::size_t>(p);
  if (dom_ready[i] == 0) {
    shared.archives[i]->ForEach(
        0, through[p],
        [this, i](const std::shared_ptr<const IntervalRecord>& r) {
          dom_prefix[i].push_back(r);
        });
    dom_ready[i] = 1;
  }
  return dom_prefix[i];
}

// Virgin-node bookkeeping (DESIGN.md §8).  Union of dominated writers over
// every node's pending entries: a dominated record is pending at every
// node that never consumed it, so a writer absent here has no record
// entering any build this pass.  A still-virgin node whose OWN records
// are about to be flattened stops being virgin now: it adopts the shared
// store — exactly its per-node state, by induction — and takes the
// per-node path.  Every remaining virgin's pending therefore holds the
// identical full dominated batch (pending never holds own records), which
// is what makes one shared store build exact for all of them.
void Node::GcPass::RetireVirginWriters(UnitId u) {
  SharedState::VirginHistory& virgin = shared.virgin_history[u];
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
}

// Dominated/live split of one node's pending notices for unit `u`: leaves
// the live entries in `pend` and returns whether any were dominated.
// With `resolve`, the dominated entries are resolved into `kept`, and a
// record's first resolution in the unit routes it to the canonical base
// exactly once: its words reach the nodes' chains only through the base.
bool Node::GcPass::Split(UnitId u, std::vector<PendingInterval>& pend,
                         bool resolve) {
  live.clear();
  kept.clear();
  bool any_dom = false;
  for (const PendingInterval& pi : pend) {
    if (pi.seq > through[pi.proc]) {
      live.push_back(pi);
      continue;
    }
    any_dom = true;
    if (!resolve) continue;
    const std::uint64_t rkey =
        (std::uint64_t{static_cast<std::uint32_t>(pi.proc)} << 32) | pi.seq;
    auto memo = resolve_memo.find(rkey);
    if (memo == resolve_memo.end()) {
      const auto& v = DominatedPrefix(pi.proc);
      auto it = std::lower_bound(
          v.begin(), v.end(), pi.seq,
          [](const std::shared_ptr<const IntervalRecord>& r, Seq s) {
            return r->seq < s;
          });
      DSM_CHECK(it != v.end() && (*it)->seq == pi.seq)
          << "GC: missing interval (" << pi.proc << "," << pi.seq << ")";
      const IntervalRecord* rec = it->get();
      const int di = rec->IndexOf(u);
      DSM_CHECK_GE(di, 0);
      memo = resolve_memo.emplace(rkey, Resolved{rec, &*it, di, rec->vc.Sum()})
                 .first;
      refs.push_back({u, rec, di, memo->second.vc_sum});
    }
    kept.push_back(memo->second);
  }
  if (any_dom) pend.assign(live.begin(), live.end());
  return any_dom;
}

// Intern-cache lookup for node x's build of unit `u` from the last
// Split.  Leaves the cache key in `key`; on a hit, replaces x's chains
// with the builder's and returns true.
bool Node::GcPass::AdoptCached(UnitId u, ProcId x) {
  // Pre-state identity: (body pointer, blocked) per chain suffices.
  // A fault always consumes (clears) the chains it touches, and a GC
  // extension copy-on-writes any shared body, so two chains with the
  // same body pointer are bit-identical except for the blocked flag,
  // which a later build may set on one sharer's header only.
  auto key_add = [this](const void* p, std::size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  std::vector<FlattenedChain>& mine = shared.nodes[x]->flattened_[u];
  key.clear();
  for (const FlattenedChain& c : mine) {
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
  if (hit == chain_cache.end()) return false;
  // Identical pre-state and inputs: adopt the builder node's result
  // (cheap headers; the bodies — runs, stamps, clocks — are shared).  The
  // builder's vector is final (every node is visited once per unit), and
  // this node's vector was its element-wise twin before the build, so
  // only entries the build touched need copying — long-lived chain lists
  // on never-faulting nodes would otherwise pay a full refcount round per
  // chain per pass.  Adopting flags the builder's merged bodies as
  // shared, so the builder's own next extension copy-on-writes instead of
  // mutating a body this node now also holds.
  std::vector<FlattenedChain>& built = shared.nodes[hit->second]->flattened_[u];
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
  return true;
}

// Chain extension: coalesce the last Split's dominated records into
// `flat`, per writer, extending the writer's last chain or opening a new
// one, then freeze the `blocked` verdicts.  Returns the number of chains
// opened.  `store` marks a virgin-store build: fault paths adopt the
// store's bodies with no synchronization point to flag them at, so every
// extended store header stays permanently "shared" (every copy inherits
// the flag; a later store extension clones first).
std::uint64_t Node::GcPass::Extend(std::vector<FlattenedChain>& flat,
                                   bool store) {
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

  std::uint64_t opened = 0;
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
        if (store) c.body_shared = true;
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
        ++opened;
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
  return opened;
}

void Node::GcFlatten(const VectorClock& through) {
  SharedState& shared = shared_;
  const std::size_t num_units = shared.heap.num_units();
  DSM_CHECK(gc_refs_.empty());
  GcPass pass(shared, through, gc_refs_);

  for (UnitId u = 0; u < num_units; ++u) {
    pass.chain_cache.clear();
    pass.resolve_memo.clear();
    pass.RetireVirginWriters(u);
    bool virgin_built = false;  // store build done for this pass
    std::uint64_t virgin_new_chains = 0;
    int virgin_consumers = 0;   // virgins with dominated pending

    for (ProcId x = 0; x < pass.nprocs; ++x) {
      std::vector<PendingInterval>& pend = shared.nodes[x]->pending_[u];
      if (pend.empty()) continue;
      if (!shared.sharers->IsSharer(u, x)) {
        // Virgin fast path (DESIGN.md §8): this node never faulted on the
        // unit, so its dominated batch equals every other virgin's.
        // The first virgin flattens the shared batch once into the virgin
        // store; the rest only drop their dominated entries.  Chain
        // headers thus stop scaling with the cluster size on units most
        // nodes never touch.
        if (!pass.Split(u, pend, /*resolve=*/!virgin_built)) continue;
        ++virgin_consumers;
        if (virgin_built) continue;
        virgin_built = true;
        virgin_new_chains =
            pass.Extend(shared.virgin_history[u].chains, /*store=*/true);
        continue;
      }
      if (!pass.Split(u, pend, /*resolve=*/true)) continue;
      if (pass.AdoptCached(u, x)) continue;
      pass.chains_built +=
          pass.Extend(shared.nodes[x]->flattened_[u], /*store=*/false);
      pass.chain_cache.emplace(pass.key, x);
    }
    // The store build ran once; credit it as if each consuming virgin had
    // built (shared) it, keeping the counters comparable across runs with
    // different sharer populations.
    if (virgin_consumers > 0) {
      pass.chains_built += virgin_new_chains;
      pass.chains_shared +=
          virgin_new_chains * static_cast<std::uint64_t>(virgin_consumers - 1);
    }
  }
  ArchiveTelemetry& tel = shared.archive_telemetry;
  tel.chains_built.fetch_add(pass.chains_built, std::memory_order_relaxed);
  tel.chains_shared.fetch_add(pass.chains_shared, std::memory_order_relaxed);

  // Checkpoint-complete mode (DESIGN.md §9).  The pending-driven routing
  // above sends a record's words to the base only when some node still had
  // the record pending — sufficient for the protocol (every node that
  // consumed it already applied its words), but a recovery checkpoint must
  // hold EVERY dominated interval: the victim's rebuilt image is base +
  // surviving log, with nothing else to fall back on.  Under an armed
  // fault plan, replace the pass's base-routing refs wholesale with the
  // full dominated record set.  Host-side only (the chain builds above are
  // untouched), and armed-plan-gated, so fault-free runs stay
  // bit-identical.  Each (unit, record) pair appears exactly once; the
  // apply pass orders each unit group in happens-before order itself.
  if (shared.fault != nullptr) {
    gc_refs_.clear();
    for (ProcId p = 0; p < pass.nprocs; ++p) {
      for (const std::shared_ptr<const IntervalRecord>& owner :
           pass.DominatedPrefix(p)) {
        const IntervalRecord* rec = owner.get();
        const std::uint64_t sum = rec->vc.Sum();
        for (std::size_t k = 0; k < rec->units.size(); ++k) {
          gc_refs_.push_back({rec->units[k], rec, static_cast<int>(k), sum});
        }
      }
    }
    std::sort(gc_refs_.begin(), gc_refs_.end());
  }
}

// Apply phase (pass 2): flatten the referenced diffs into the canonical
// base, per unit in happens-before order (DiffRef), so ordered overwrites
// land newest-last.  Also runs the base release-check: a base no chain
// references any more goes back to the pool.
void Node::GcApply() {
  SharedState& shared = shared_;
  const int nprocs = shared.config.num_procs;
  const std::size_t num_units = shared.heap.num_units();

  // gc_refs_ is already grouped by unit in ascending order (the flatten
  // phase walks units ascending), so only each group needs the
  // happens-before sort — far cheaper than one global sort on lock-heavy
  // batches.
  for (std::size_t i = 0; i < gc_refs_.size();) {
    const UnitId u = gc_refs_[i].unit;
    std::size_t j = i;
    while (j < gc_refs_.size() && gc_refs_[j].unit == u) ++j;
    std::sort(gc_refs_.begin() + static_cast<std::ptrdiff_t>(i),
              gc_refs_.begin() + static_cast<std::ptrdiff_t>(j));
    std::span<std::byte> base = shared.canonical->Ensure(u);
    const IntervalRecord* last = nullptr;
    for (; i < j; ++i) {
      const DiffRef& r = gc_refs_[i];
      if (r.rec == last) continue;  // several nodes referenced it
      last = r.rec;
      r.diff().Apply(base);
    }
  }
  gc_refs_.clear();

  // Armed fault plan: the bases ARE the recovery checkpoints.  Never
  // release one — a released base re-Ensures ZEROED, silently dropping
  // checkpoint content the victim's rebuild depends on (DESIGN.md §9).
  if (shared.fault != nullptr) return;

  for (UnitId u = 0; u < num_units; ++u) {
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

// Archive GC (DESIGN.md §6), run by the barrier coordinator inside the
// idle window.  Every gc_interval_barriers barriers, once gc_history holds
// gc_lag completed barriers, the oldest of their global clocks is the
// flatten target: every node has processed all of it.  When any archive
// still holds a record at or below the target, flatten every node's
// dominated pending notices into chains, apply their diffs to the
// canonical bases, and prune every archive through the target (pass 3;
// FlattenedChains keep the lazy-diffing stamp arrays of their member
// records alive).  Then record this barrier's global clock.
void Node::CollectGarbage(const VectorClock& global_vc) {
  const int interval = shared_.config.gc_interval_barriers;
  if (interval <= 0) return;
  const auto lag =
      static_cast<std::size_t>(std::max(1, shared_.config.gc_lag_barriers));
  std::deque<VectorClock>& history = shared_.gc_history;
  if (history.size() == lag &&
      (sync_phase_ + 1) % static_cast<std::uint32_t>(interval) == 0) {
    const VectorClock& through = history.front();
    bool any = false;
    for (ProcId p = 0; p < num_procs() && !any; ++p) {
      const Seq first = shared_.archives[p]->min_retained_seq();
      any = first != 0 && first <= through[p];
    }
    if (any) {
      GcFlatten(through);
      GcApply();
      // Checkpoint watermark (DESIGN.md §9): everything <= through is now
      // in the bases.  Published before the closing rendezvous, which
      // happens-before any recovery read of it.
      if (shared_.fault != nullptr) shared_.checkpoint_vc = through;
      ++shared_.gc_passes;
      PruneArchives(through);
    }
  }
  history.push_back(global_vc);
  if (history.size() > lag) history.pop_front();
}

void Node::PruneArchives(const VectorClock& through) {
  for (ProcId p = 0; p < num_procs(); ++p) {
    shared_.archives[p]->PruneThrough(through[p]);
  }
}

std::size_t Node::CollectNotices(const VectorClock& target) {
  std::vector<const IntervalRecord*>& out = notice_scratch_;
  CommBreakdown& c = comm_stats_.counters();
  out.clear();
  std::size_t bytes = 0;
  for (ProcId p = 0; p < num_procs(); ++p) {
    if (p == id_ || target[p] <= notices_seen_[p]) continue;
    shared_.archives[p]->ForEach(
        notices_seen_[p], target[p],
        [&](const std::shared_ptr<const IntervalRecord>& rec) {
          bytes += rec->NoticeBytes();
          c.notice_clock_bytes += rec->vc.EncodedBytes();
          out.push_back(rec.get());
        });
  }
  c.notice_clock_bytes_dense +=
      out.size() * VectorClock::DenseEncodedBytes(num_procs());
  return bytes;
}

void Node::InvalidateFrom(const VectorClock& target) {
  const CostModel& cost = shared_.config.cost;
  for (const IntervalRecord* rec : notice_scratch_) {
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
  vc_.Merge(target);
  if (shared_.config.aggregation == AggregationMode::kDynamic) {
    aggregator_.OnSynchronization();
  }
}

std::size_t Node::OutgoingNoticeBytes() {
  std::size_t bytes = 0;
  shared_.archives[id_]->ForEach(
      last_sent_seq_, vc_[id_],
      [&bytes](const std::shared_ptr<const IntervalRecord>& rec) {
        bytes += rec->NoticeBytes();
      });
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
  // making modelled time independent of host thread scheduling.  HLRC
  // diffs eagerly, so it has no lazy-diffing flags.
  if (!hlrc_) {
    for (std::size_t u = 0; u < diff_requested_.size(); ++u) {
      if (diff_requested_[u].load(std::memory_order_relaxed) != 0) {
        diff_requested_[u].store(0, std::memory_order_relaxed);
        diff_request_seen_[u] = 1;
      }
    }
  }
  // The rest of the window belongs to the barrier coordinator.  Every peer
  // is parked between Arrive and Rendezvous, so nobody appends, flushes,
  // fetches or collects notices while it trims the archives, and the
  // archive peaks depend on the program alone.  LRC runs the archive GC
  // (DESIGN.md §6).  HLRC records are notice-only metadata: under an armed
  // schedule the coordinator first flips crash-driven re-home batches into
  // the shared override table, at a point every node passes together,
  // then prunes every record that every other node has already processed.
  // `min_seen` is the floor the barrier manager folded from the arrivers'
  // notices_seen_ clocks, which stay frozen until the Rendezvous releases
  // them (DESIGN.md §8).
  if (id_ == res.coordinator) {
    if (!hlrc_) {
      CollectGarbage(res.global_vc);
    } else {
      if (shared_.fault != nullptr) shared_.ApplyPendingRehomes();
      PruneArchives(res.min_seen);
    }
  }
  shared_.barrier->Rendezvous();
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

  const std::size_t incoming_bytes = CollectNotices(res.global_vc);

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
  InvalidateFrom(res.global_vc);
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
  const std::size_t notice_bytes = CollectNotices(target);

  // Request travels to the manager/holder; the grant returns with the
  // write notices the acquirer has not yet seen.  The grant cannot arrive
  // before the previous holder released.
  clock_.AdvanceTo(grant.release_time);
  clock_.Advance(shared_.net.RoundTripTime(16, 16 + notice_bytes) +
                 cost.lock_manager_overhead);
  net_stats_.Record(MessageKind::kLockRequest, 16);
  net_stats_.Record(MessageKind::kLockGrant, 16 + notice_bytes);
  comm_stats_.counters().sync_messages += 2;
  InvalidateFrom(target);
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
