// Node: one logical DSM processor.
//
// Owns the node's private image of the shared address space, its page table
// (unit protection states + twins), its word tracker, virtual clock, vector
// clock, pending write notices, and statistics.  Implements the full lazy
// release consistency + multiple-writer protocol of the paper:
//
//   read fault   → fetch diffs from all concurrent writers with pending
//                  notices (combined per writer; writers answer in
//                  parallel), apply in happens-before order
//   write fault  → validate if needed, then twin the unit
//   release      → close interval: diff every twinned unit, archive, emit
//                  write notices
//   acquire      → merge clocks, invalidate units named by newly covered
//                  write notices
//
// With AggregationMode::kDynamic the fault path consults the per-node
// DynamicAggregator and fetches whole page groups (paper §4).
//
// Threading: a Node is driven only by its own thread.  Peers touch a node
// exclusively through its immutable-once-appended IntervalArchive (under
// its mutex) and the sync services.
#pragma once

#include <algorithm>
#include <cstring>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "core/aggregation.h"
#include "core/comm_stats.h"
#include "core/config.h"
#include "core/sync.h"
#include "core/vector_clock.h"
#include "core/write_notice.h"
#include "mem/block_mask.h"
#include "mem/global_heap.h"
#include "mem/page_table.h"
#include "mem/sharer_directory.h"
#include "mem/word_tracker.h"
#include "net/net_stats.h"
#include "sim/virtual_clock.h"

namespace dsm {

class Node;
class FaultInjector;        // core/fault.h
class RecoveryCoordinator;  // core/fault.h
class RaceDetector;         // analysis/race_detector.h

// Everything shared between nodes; owned by Runtime.
struct SharedState {
  RuntimeConfig config;
  GlobalHeap heap;
  NetworkModel net;
  std::vector<std::unique_ptr<IntervalArchive>> archives;  // per proc
  std::unique_ptr<BarrierService> barrier;
  std::unique_ptr<LockService> locks;
  // Archive GC (DESIGN.md §6): canonical base images holding the contents
  // of reclaimed intervals, archive footprint telemetry, and the flatten
  // target — the global vector clock of the last completed barrier, which
  // every node has fully processed by the time the next barrier's idle
  // window opens.  Only the barrier coordinator reads and appends to
  // gc_history and counts gc_passes; it runs the whole pass, prune
  // included, inside that window.
  std::unique_ptr<CanonicalStore> canonical;
  ArchiveTelemetry archive_telemetry;
  // Global clocks of the most recent gc_lag_barriers completed barriers,
  // oldest first; the front is the flatten target once full.
  std::deque<VectorClock> gc_history;
  std::uint64_t gc_passes = 0;
  // BackendKind::kReference: the single image all processors access
  // directly (null under the LRC backend, where every node owns a private
  // image).  Race-free programs touch disjoint words between
  // synchronizations, so direct concurrent access is well-defined.
  std::unique_ptr<std::byte[]> reference_image;
  // BackendKind::kHlrc (DESIGN.md §7): the home-node master copies of
  // every consistency unit, as one heap-sized image (which node is a
  // unit's home is pure metadata — HomeOf).  Releases apply diffs here
  // eagerly; faults copy whole units out.  Per-unit mutexes serialize a
  // flush against a concurrent whole-unit fetch (race-free programs never
  // conflict on the words involved, but the host-level copies overlap).
  // Null unless the backend is kHlrc.
  std::unique_ptr<std::byte[]> home_image;
  std::unique_ptr<std::mutex[]> home_mutexes;  // one per unit
  // Per-unit sharer directory (DESIGN.md §8): which processors have ever
  // faulted on each unit.  Nodes register on the fault path; the GC and
  // its invariant checks read inside the barrier window.
  std::unique_ptr<SharerDirectory> sharers;
  // Reclaimed history shared by every node that never faulted on the unit
  // (DESIGN.md §8).  All such "virgin" nodes hold identical dominated
  // pending sets (they pass every barrier and never consume notices), so
  // the GC flattens their history once per unit here instead of growing a
  // chain-header vector on each of them; a node copies the unit's entry
  // into its own flattened_ at its first fault and is a sharer
  // from then on.  Mutated only inside the GC window; read (and copied)
  // by fault paths, which the window's barrier happens-before.
  struct VirginHistory {
    std::vector<FlattenedChain> chains;
  };
  std::vector<VirginHistory> virgin_history;

  // Deterministic fault injection (DESIGN.md §9): null unless
  // config.fault is armed; the resolved plan (victim derived from the
  // seed when negative) lives in the injector AND is written back into
  // `config.fault` at construction.
  std::unique_ptr<FaultInjector> fault;
  // Happens-before race detection (DESIGN.md §10): null unless
  // config.race_check.  Observational only — nodes feed it access and
  // synchronization events; it never touches modelled state.
  std::unique_ptr<RaceDetector> race;
  // Checkpoint watermark: the flatten target (`gc_through`) of the last
  // completed GC apply — every interval at or below it is fully
  // represented in the canonical bases.  Written by proc 0 inside the GC
  // window (before the closing rendezvous, which happens-before every
  // later read); recovery replays only archive records ABOVE it.
  // Maintained only under an armed fault plan (dense, all-zero
  // otherwise), so no-fault runs take no new work.
  VectorClock checkpoint_vc;
  // HLRC home-crash re-homing (DESIGN.md §9): per-unit home override,
  // sized (all -1) when an HLRC schedule is armed, empty otherwise.  A
  // crashed home's units are reconstructed by the victim's recovery and
  // re-homed here; the batch is registered in `pending_rehomes` by the
  // victim and applied by the barrier coordinator inside the next
  // barrier's idle window (ApplyPendingRehomes), so every node flips to
  // the new map at the same deterministic point.  `rehome_epoch` counts
  // applied batches: a node whose private epoch lags pays the modelled
  // timeout + retransmit for learning the new map at its next home
  // contact (CommBreakdown::recovery_retransmits).
  std::vector<ProcId> home_override;
  std::mutex rehome_mutex;
  std::vector<std::pair<UnitId, ProcId>> pending_rehomes;
  std::uint64_t rehome_epoch = 0;
  // Applies pending_rehomes into home_override.  Called only by the
  // barrier coordinator between Arrive and Rendezvous — every other node
  // is inside the same barrier, so the writes happen-before every
  // post-barrier EffectiveHome read via the closing rendezvous.
  void ApplyPendingRehomes();

  // Home node of `unit` under kHlrc: units interleaved round-robin over
  // processors.  This is the static base map; EffectiveHome folds in
  // crash-driven overrides.
  ProcId HomeOf(UnitId unit) const {
    return static_cast<ProcId>(unit % static_cast<UnitId>(config.num_procs));
  }

  // HomeOf plus the per-unit crash override table.
  ProcId EffectiveHome(UnitId unit) const {
    if (!home_override.empty()) {
      const ProcId o = home_override[static_cast<std::size_t>(unit)];
      if (o >= 0) return o;
    }
    return HomeOf(unit);
  }

  // New home for `unit` after home `dead` crashed: the HomeOf map re-run
  // over the surviving ranks (the dead rank excised, ranks above shifted
  // down) — deterministic, communication-free, and as balanced as the
  // primary map.
  ProcId RehomeTarget(UnitId unit, ProcId dead) const {
    const ProcId h = static_cast<ProcId>(
        unit % static_cast<UnitId>(config.num_procs - 1));
    return h >= dead ? h + 1 : h;
  }

  // Barrier coordinator for `sync_phase`: proc 0 unless an at-barrier
  // event kills it at that phase, in which case the lowest surviving rank
  // assumes the coordinator roles (archive GC and every archive prune,
  // checkpoint watermark, re-home apply, barrier-manager cost asymmetry) for
  // exactly that barrier.  A pure function of the armed schedule and the
  // phase, so every node computes the same answer with no communication;
  // always 0 when no schedule is armed.
  ProcId CoordinatorFor(std::uint32_t sync_phase) const;
  // Peer access for the lazy-diffing cost flags; filled in by Runtime
  // after node construction.
  std::vector<Node*> nodes;

  explicit SharedState(const RuntimeConfig& cfg);
  // Out-of-line: FaultInjector is incomplete here (unique_ptr member).
  ~SharedState();
};

class Node {
 public:
  Node(ProcId id, SharedState& shared);

  ProcId id() const { return id_; }
  int num_procs() const { return shared_.config.num_procs; }

  // --- application-facing memory access (hot path) -------------------------
  // `addr` must be word-aligned, `bytes` a multiple of kWordBytes.
  void ReadBytes(GlobalAddr addr, void* out, std::size_t bytes);
  void WriteBytes(GlobalAddr addr, const void* in, std::size_t bytes);

  // Charge `flops` floating-point operations of private compute.
  void Compute(std::uint64_t flops) {
    clock_.Advance(static_cast<VirtualNanos>(flops) *
                   shared_.config.cost.flop);
  }

  // --- synchronization ------------------------------------------------------
  void Barrier();
  void AcquireLock(int lock_id);
  void ReleaseLock(int lock_id);

  // --- introspection ---------------------------------------------------------
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  CommStats& comm_stats() { return comm_stats_; }
  NetStats& net_stats() { return net_stats_; }
  PageTable& page_table() { return table_; }
  const WordTracker& word_tracker() const { return tracker_; }
  const VectorClock& vector_clock() const { return vc_; }
  DynamicAggregator& aggregator() { return aggregator_; }
  // The memory this node's accesses hit: its private image under LRC, the
  // single shared image under the reference backend.
  std::byte* image() { return data_; }
  IntervalArchive& archive() { return *shared_.archives[id_]; }

  // Close the current open interval, diffing every dirty unit and
  // archiving its write notices — the one release path of both protocol
  // backends (normally driven by release/barrier; public for tests and for
  // Runtime teardown).
  void CloseInterval();

  // Flattened (reclaimed-history) chains pending for `unit` on this node —
  // observability for tests.
  const std::vector<FlattenedChain>& flattened_chains(UnitId unit) const {
    return flattened_[unit];
  }
  // Live pending notices for `unit` (post-GC tail) — observability.
  std::size_t pending_count(UnitId unit) const {
    return pending_[unit].size();
  }

 private:
  // Crash recovery rebuilds this node's volatile state in place
  // (core/fault.h); it needs the same access the node's own protocol
  // methods have.
  friend class RecoveryCoordinator;

  // The LRC protocol machinery runs only when there is someone to talk to
  // and the run is not using the sequentially consistent reference oracle.
  // Fixed at construction; cached so the access fast path pays one bool
  // load instead of two config reads.
  bool protocol_enabled() const { return protocol_enabled_; }

  // Sets the written_ blocks of a write.  A unit written all over (every
  // block set) takes one compare: element writes that sweep a unit reach
  // that state within its first few dozen writes.
  void MarkWritten(UnitId unit, std::size_t offset_in_unit,
                   std::size_t bytes) {
    std::uint64_t& written = written_[unit];
    if (written == kAllBlocks) return;
    written |= BlockMask(offset_in_unit / kWordBytes, bytes / kWordBytes,
                         block_shift_);
  }

  std::span<std::byte> UnitSpan(UnitId unit) {
    return {data_ + shared_.heap.UnitBase(unit), unit_bytes_};
  }

  // Accesses spanning multiple consistency units: split into per-unit
  // chunks, each taking the inline single-unit fast path.
  void ReadBytesSlow(GlobalAddr addr, void* out, std::size_t bytes);
  void WriteBytesSlow(GlobalAddr addr, const void* in, std::size_t bytes);

  // Race-detector feed (out of line so the inline access paths pay one
  // null test and nothing else when the checker is off).
  void RaceOnAccess(UnitId unit, std::size_t offset_in_unit,
                    std::size_t bytes, bool is_write);

  void ReadFault(UnitId unit);
  void WriteFault(UnitId unit);

  // Make an invalid/updated-invalid unit readable.  Does not charge the
  // fault trap itself (callers do).
  void ValidateUnit(UnitId unit);

  // Barrier-epoch archive GC (DESIGN.md §6), run by the barrier
  // coordinator inside the extended idle window.  CollectGarbage decides
  // whether a pass is due and records the barrier's global clock in
  // gc_history; a pass flattens the dominated pending notices of every
  // node for every unit (GcFlatten), applies the referenced diffs to the
  // canonical bases and runs the base release-check (GcApply), and prunes
  // every archive's dominated prefix.
  void CollectGarbage(const VectorClock& global_vc);
  void GcFlatten(const VectorClock& through);
  void GcApply();
  // Drop every record with seq <= through[p] from archive p.  Coordinator
  // only, inside the barrier window, where nothing appends or reads: the
  // LRC GC's pass 3, and HLRC's whole notice-log story.
  void PruneArchives(const VectorClock& through);
  // One flatten pass's state and its named phases (protocol.cc).
  struct GcPass;

  // Lazy-diffing phase key: barrier phase in the upper half, lock-chain
  // sub-phase in the lower (see IntervalRecord::diffed).  Barrier programs
  // keep the sub-phase at 0, reducing to pure barrier-phase quantization.
  std::uint64_t stamp_key() const {
    return (std::uint64_t{sync_phase_} << 32) | lock_subphase_;
  }

  // Fetch and apply all pending diffs for `units` (all must have pending
  // notices), combining requests per writer.  Records exchanges, the fault
  // record, and all modelled costs.
  void FetchUnits(const std::vector<UnitId>& units);

  // --- home-based LRC (BackendKind::kHlrc, DESIGN.md §7) -------------------
  // The release's flush messages: one combined exchange per remote home
  // CloseInterval accumulated in hlrc_flush_bytes_/hlrc_flush_server_
  // (homes answer in parallel; the releaser waits for the slowest ack).
  void HlrcFlushExchange();

  // Resolve the invalid `units` by fetching whole-unit copies from their
  // homes (one combined exchange per remote home; self-homed units are a
  // local copy).  Local uncommitted modifications (a live twin) are laid
  // back on top, mirroring the LRC fault path's image+twin discipline.
  void HlrcFetchUnits(const std::vector<UnitId>& units);

  // HLRC home-crash re-homing (DESIGN.md §9): if re-home batches were
  // applied since this node's last home contact, its next exchange is
  // addressed from the stale map, times out against the dead home, and is
  // re-sent — returns the modelled timeout + retransmit latency (one per
  // missed batch, request of `request_bytes`) and bumps the
  // recovery_retransmit counters.  Zero (and counter-free) when no
  // schedule is armed or the node is current.
  VirtualNanos HlrcChargeRehomeLearning(std::size_t request_bytes);

  // Mark a clean unit dirty (twin + unprotect).  `cheap` re-twins carry no
  // modelled cost (lazy-diffing regime, see WriteFault).
  void TwinUnit(UnitId unit, bool cheap = false);

  // First-fault bookkeeping for `unit` (DESIGN.md §8): register this node
  // in the sharer directory and, if it was a virgin until now, copy the
  // unit's shared virgin history into this node's flattened_.
  // Chain headers are thereby allocated lazily — a node carries them only
  // for units it has actually faulted on.
  void AdoptVirginState(UnitId unit) {
    if (shared_.sharers->Register(unit, id_)) return;
    const SharedState::VirginHistory& v = shared_.virgin_history[unit];
    if (!v.chains.empty()) flattened_[unit] = v.chains;
  }

  // Would this still-virgin node have reclaimed chains pending for `unit`?
  // The group-prefetch predicate's stand-in for the flattened_ check on
  // units this node has never faulted on.
  bool HasVirginChains(UnitId unit) const {
    return !shared_.sharers->IsSharer(unit, id_) &&
           !shared_.virgin_history[unit].chains.empty();
  }

  // Notice intake of an acquire (lock or barrier), in two halves around
  // the synchronization's own timing.  CollectNotices gathers the archive
  // records `target` newly covers (every peer, in (proc, seq) order) into
  // notice_scratch_, tallies the sparse-clock telemetry (DESIGN.md §8:
  // the wire bytes of the notices' interval clocks, run-length vs dense),
  // and returns their write-notice payload bytes.  InvalidateFrom then
  // invalidates the named units, queues the pending notices, merges
  // `target` into vc_ and tells the aggregator; it must follow the clock's
  // AdvanceTo to the grant/release time.
  std::size_t CollectNotices(const VectorClock& target);
  void InvalidateFrom(const VectorClock& target);

  // Write-notice payload this node ships at a release (its own intervals
  // not yet sent), advancing last_sent_seq_.
  std::size_t OutgoingNoticeBytes();

  struct PendingInterval {
    ProcId proc;
    Seq seq;
  };

  const ProcId id_;
  SharedState& shared_;
  const std::size_t unit_bytes_;
  const int unit_shift_;
  const int block_shift_;  // BlockShift of the unit's word count
  const bool protocol_enabled_;
  // Home-based LRC backend active (protocol on + BackendKind::kHlrc):
  // releases flush to homes, faults fetch whole units, no archive GC.
  const bool hlrc_;
  // Per-word cost of a shared access, cached off the config for the
  // fast path.
  const VirtualNanos shared_access_cost_;
  // Cached shared_.race.get(): null unless config.race_check, so the
  // access fast paths gate the observational feed on one pointer test.
  RaceDetector* const race_;

  std::unique_ptr<std::byte[]> image_;  // private image (LRC; null for ref)
  std::byte* data_;                     // accesses go here (image_ or shared)
  PageTable table_;
  WordTracker tracker_;
  std::vector<std::vector<PendingInterval>> pending_;
  // Reclaimed-history chains per unit (archive GC, DESIGN.md §6): the
  // coalesced chains of flattened intervals this node had pending when
  // they were reclaimed.  Consumed (with any live tail) at the next fault
  // on the unit; their data is served from the shared canonical base.
  std::vector<std::vector<FlattenedChain>> flattened_;
  // Lazy-diffing cost model (see protocol.cc): a unit whose twin was just
  // diffed at a release can be re-dirtied for free — in real TreadMarks
  // the twin simply persists across the release — unless a peer has
  // requested a diff of the unit in an earlier barrier phase (which in
  // the lazy regime forces diff creation, twin discard, and re-protection
  // at the writer).  Peers set diff_requested_ asynchronously; Barrier
  // drains it into diff_request_seen_ (the only flag WriteFault consults)
  // inside the extended barrier window, so the cheap/expensive decision is
  // quantized to phases and replays deterministically.
  std::vector<std::uint8_t> retwin_cheap_;
  std::vector<std::atomic<std::uint8_t>> diff_requested_;
  std::vector<std::uint8_t> diff_request_seen_;
  // Written-since-twin block summary per unit (mem/block_mask.h): local
  // writes set their blocks and TwinUnit clears the summary.  Every other
  // path that changes a twinned unit writes the same bytes into the twin,
  // so twin == image outside these blocks and the release-time twin scan
  // (Diff::Create) skips them.  Host-side only: the modelled diff cost
  // stays whole-unit.
  std::vector<std::uint64_t> written_;
  // Last re-home batch epoch this node has learned
  // (SharedState::rehome_epoch).  A lagging node's next remote home
  // contact pays the modelled timeout + retransmit per missed batch and
  // catches up — the lazy-learning model for HLRC home-crash re-homing.
  std::uint64_t rehome_epoch_seen_ = 0;
  // Completed barrier phases (identical on every node at any given phase).
  std::uint32_t sync_phase_ = 0;
  // Lock-chain sub-phase: the service-wide position of this node's most
  // recent lock token transfer (0 until the first non-cached acquire
  // after a barrier).  Combined with sync_phase_ into stamp_key().
  std::uint32_t lock_subphase_ = 0;
  DynamicAggregator aggregator_;

  VirtualClock clock_;
  VectorClock vc_;
  // Highest seq per peer whose notices this node has already processed.
  VectorClock notices_seen_;
  Seq last_sent_seq_ = 0;

  CommStats comm_stats_;
  NetStats net_stats_;

  // Scratch buffers reused across faults and synchronizations, so the
  // steady-state fault path performs no allocations (vector capacity and
  // pooled diff storage persist between calls).
  //
  // One per-writer coalesced chain the fault must fetch: either a live
  // chain (diff != nullptr) or a flattened chain (flat != nullptr) whose
  // payload is copied from the canonical base, with any live diffs
  // absorbed into its tail applied on top.
  struct NeedEntry {
    UnitId unit;
    ProcId writer;
    Seq last_seq;                // chain tail (happens-before ordering)
    const VectorClock* last_vc;  // tail's close-time clock
    const Diff* diff;            // live chain: the (possibly merged) diff
    FlattenedChain* flat;        // reclaimed chain (data in canonical base)
    // Live diffs absorbed into flat's tail: indices into absorbed_scratch_.
    std::uint32_t absorbed_begin;
    std::uint32_t absorbed_count;
    std::uint32_t exchange_id;
    bool needs_scan;  // server must materialize (this requester pays)

    std::size_t EncodedBytes() const {
      return flat != nullptr ? flat->EncodedBytes() : diff->EncodedBytes();
    }
    std::size_t PayloadWords() const {
      return flat != nullptr ? flat->payload_words() : diff->payload_words();
    }
  };
  struct ResolvedDiff {
    const IntervalRecord* rec;
    const Diff* diff;
    bool pays_for_scan;
  };
  std::vector<std::vector<NeedEntry>> needs_by_writer_;  // indexed by proc
  std::vector<ResolvedDiff> resolved_scratch_;        // FetchUnits
  std::vector<const ResolvedDiff*> chain_scratch_;    // FetchUnits
  std::vector<Seq> foreign_vcw_scratch_;              // FetchUnits
  std::deque<Diff> merged_scratch_;                   // FetchUnits
  std::vector<NeedEntry> apply_scratch_;              // FetchUnits
  std::vector<const Diff*> absorbed_scratch_;         // FetchUnits
  std::vector<UnitId> fetch_scratch_;                 // ValidateUnit
  std::vector<const IntervalRecord*> notice_scratch_;  // CollectNotices
  // HLRC scratch (empty vectors under the other backends): fault-time
  // unit lists grouped by home, and per-home flush message accounting.
  std::vector<std::vector<UnitId>> fetch_by_home_;     // HlrcFetchUnits
  std::vector<std::size_t> hlrc_flush_bytes_;          // CloseInterval
  std::vector<VirtualNanos> hlrc_flush_server_;        // CloseInterval

  // Archive GC (DESIGN.md §6): the (unit, record) references the flatten
  // phase routed to the canonical base, unit-ordered (flatten walks units
  // ascending); consumed and cleared by GcApply.
  std::vector<DiffRef> gc_refs_;
};

// ---------------------------------------------------------------------------
// Hot-path inline definitions.
// ---------------------------------------------------------------------------

inline void Node::ReadBytes(GlobalAddr addr, void* out, std::size_t bytes) {
  DSM_DCHECK(addr % kWordBytes == 0 && bytes % kWordBytes == 0);
  DSM_DCHECK(addr + bytes <= shared_.heap.heap_bytes());
  const UnitId unit = static_cast<UnitId>(addr >> unit_shift_);
  const std::size_t offset_in_unit = addr & (unit_bytes_ - 1);
  if (offset_in_unit + bytes <= unit_bytes_) [[likely]] {
    // Single-unit fast path (the overwhelmingly common case): one inline
    // protection-state load, one fresh-count check, one memcpy, one
    // batched clock update.
    if (protocol_enabled_) {
      if (table_.NeedsFaultOnRead(unit)) [[unlikely]] {
        ReadFault(unit);
      }
      tracker_.OnRead(unit,
                      static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                      static_cast<std::uint32_t>(bytes / kWordBytes),
                      [this](std::uint32_t msg, std::uint32_t words) {
                        comm_stats_.Credit(msg, words);
                      });
    }
    if (race_ != nullptr) [[unlikely]] {
      RaceOnAccess(unit, offset_in_unit, bytes, /*is_write=*/false);
    }
    std::memcpy(out, data_ + addr, bytes);
    clock_.Advance(static_cast<VirtualNanos>(bytes / kWordBytes) *
                   shared_access_cost_);
    return;
  }
  ReadBytesSlow(addr, out, bytes);
}

inline void Node::WriteBytes(GlobalAddr addr, const void* in,
                             std::size_t bytes) {
  DSM_DCHECK(addr % kWordBytes == 0 && bytes % kWordBytes == 0);
  DSM_DCHECK(addr + bytes <= shared_.heap.heap_bytes());
  const UnitId unit = static_cast<UnitId>(addr >> unit_shift_);
  const std::size_t offset_in_unit = addr & (unit_bytes_ - 1);
  if (offset_in_unit + bytes <= unit_bytes_) [[likely]] {
    if (protocol_enabled_) {
      if (table_.NeedsFaultOnWrite(unit)) [[unlikely]] {
        WriteFault(unit);
      }
      tracker_.OnWrite(unit,
                       static_cast<std::uint32_t>(offset_in_unit / kWordBytes),
                       static_cast<std::uint32_t>(bytes / kWordBytes));
      MarkWritten(unit, offset_in_unit, bytes);
    }
    if (race_ != nullptr) [[unlikely]] {
      RaceOnAccess(unit, offset_in_unit, bytes, /*is_write=*/true);
    }
    std::memcpy(data_ + addr, in, bytes);
    clock_.Advance(static_cast<VirtualNanos>(bytes / kWordBytes) *
                   shared_access_cost_);
    return;
  }
  WriteBytesSlow(addr, in, bytes);
}

}  // namespace dsm
