// Intervals, write notices, and the per-node interval archive.
//
// When a processor's interval closes (at a release: lock release or barrier
// arrival), the protocol diffs every twinned unit and archives an
// IntervalRecord: the list of modified units (the *write notices*) plus the
// diffs themselves.  We create diffs eagerly at interval close (TreadMarks
// creates them lazily on first request) — see DESIGN.md §4: archived
// records become immutable, which lets a faulting peer read them under a
// short mutex without coordinating with the owner's thread, mirroring
// TreadMarks' asynchronous request handlers.
//
// Archives do not grow with run length: at barrier epochs the garbage
// collector (DESIGN.md §6) flattens every interval dominated by the
// previous barrier's global vector clock into per-unit canonical base
// images and reclaims the records.  Chains of reclaimed intervals that
// some node still had pending survive as FlattenedChains — payload-free
// run lists whose data is served from the canonical base at fault time.
// Identical chains pending at several nodes share one immutable ChainBody.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/vector_clock.h"
#include "mem/diff.h"
#include "mem/types.h"

namespace dsm {

// A closed interval of one processor: seq, the vector clock at close time,
// and the modified units with their diffs.
struct IntervalRecord {
  ProcId proc = -1;
  Seq seq = 0;
  VectorClock vc;  // clock at close; vc[proc] == seq
  std::vector<UnitId> units;
  std::vector<Diff> diffs;  // parallel to `units`
  // Lazy-diffing cost model: diffed[i] holds 1 + the *phase key* under
  // which the diff of units[i] was first materialized (0 = never).
  // Requesters under a LATER key are served from the writer's diff cache
  // for free; the first requester and any requester racing it under the
  // same key each pay the twin-scan cost (modelled as concurrent scans at
  // the server).  The key combines the barrier phase (upper 32 bits) with
  // a lock-chain sub-phase (lower 32 bits, see LockService::Grant::
  // chain_pos): barrier programs never advance the sub-phase, so their
  // charge stays quantized to barrier phases and replays bit-for-bit;
  // lock-ordered requesters between two barriers advance it along the
  // lock transfer order, so a requester ordered after the materializing
  // acquire is served from cache — sharper for migratory data, and
  // host-order dependent only for lock programs, which cannot replay
  // bit-for-bit anyway.  (The Diff objects themselves are always
  // materialized eagerly for bookkeeping — archived records must be
  // immutable for lock-free peer reads.)
  //
  // Shared ownership: when the record is reclaimed by archive GC, any
  // FlattenedChain built from it keeps the stamp array alive, so the
  // first-requester-pays decision replays identically whether or not the
  // record's payload was flattened away in the meantime.
  std::shared_ptr<std::atomic<std::uint64_t>[]> diffed;

  // Returns nullptr when this interval did not modify `unit`.
  const Diff* DiffFor(UnitId unit) const;
  // Index of `unit` within units/diffs, or -1.
  int IndexOf(UnitId unit) const;
  // True iff a requester under phase key `key` pays the scan cost for
  // materializing units[i]; the first caller stamps the key.
  bool PaysForDiff(int i, std::uint64_t key) const {
    return PaysForStamp(diffed[i], key);
  }

  // The stamp protocol, shared with FlattenedChain's retained stamps.
  static bool PaysForStamp(std::atomic<std::uint64_t>& stamp,
                           std::uint64_t key) {
    std::uint64_t expected = 0;
    if (stamp.compare_exchange_strong(expected, key + 1,
                                      std::memory_order_relaxed)) {
      return true;
    }
    return expected == key + 1;
  }

  // Serialized size of this interval's write notices on a sync message
  // (per notice: unit id + interval id; plus a small interval header).
  std::size_t NoticeBytes() const { return 16 + units.size() * 8; }

  // Bytes retained by this record: notice metadata plus the wire size of
  // every diff (runs + payload).  The unit of archive-memory telemetry.
  std::size_t RetainedBytes() const;

  // True iff this interval happened-before `other` (LRC partial order):
  // other's close-time clock covers this interval.
  bool HappenedBefore(const IntervalRecord& other) const {
    return other.vc.Covers(proc, seq);
  }
};

// One lazy-diffing stamp retained from a reclaimed record (see
// IntervalRecord::diffed): the shared array plus the unit's index in it.
struct StampRef {
  std::shared_ptr<std::atomic<std::uint64_t>[]> stamps;
  std::uint32_t index = 0;
};

// Immutable cons-list of retained stamps, newest-first.  A chain extension
// prepends one node and SHARES the tail with every other copy of the
// body, so repeatedly-extended cold chains stay O(1) per pass — a flat
// vector would be re-copied on every copy-on-write clone, going quadratic
// in pass count (the stamp set only grows).  Order is immaterial: the
// fault path visits every member stamp.
struct StampNode {
  StampRef ref;
  std::shared_ptr<const StampNode> next;
};

// The immutable bulk of a flattened chain, shared (shared_ptr) by every
// node whose pending set produced the identical chain — the GC builds it
// once per unique (unit, pending-history) and hands copies of the cheap
// per-node header out (DESIGN.md §6).  Holds everything the fault path
// needs to replay bit-identical modelled costs without the reclaimed
// records' payload:
//
//   * the canonical run list of the chain's merged diff (wire-size and
//     word-delivery accounting; the data itself is copied from the
//     canonical base at apply time),
//   * the tail's close-time clock (happens-before apply ordering),
//   * the lazy-diffing stamps of every flattened member (the
//     first-requester-pays-the-scan decision; the atomics themselves live
//     in the reclaimed records' arrays and are global across nodes).
struct ChainBody {
  std::vector<DiffRun> runs;      // merged run list, canonical, payload-free
  std::size_t payload_words = 0;  // == Diff::RunWords(runs), cached
  VectorClock last_vc;            // tail close-time clock (apply ordering)
  // One per flattened member interval, newest-first, tail-shared.
  std::shared_ptr<const StampNode> stamps;
};

// A coalesced chain of reclaimed intervals of ONE writer for ONE unit that
// some node still had pending when the chain was flattened into the
// canonical base image.  Two representations behind one header:
//
//   * single-record chain (`rec` set): the chain IS one reclaimed
//     interval — it retains the record itself (shared with the archive's
//     other referents), and every accessor reads straight through it.
//     Building one costs a shared_ptr copy, nothing more; the wire
//     accounting is definitionally identical to a merged chain of one
//     member.  The overwhelmingly common case for lock-heavy programs,
//     whose per-molecule critical sections produce single-unit records.
//   * merged chain (`body` set): two or more members coalesced into a
//     shared ChainBody (runs merged payload-free, stamps cons-listed).
struct FlattenedChain {
  ProcId writer = -1;
  Seq first_seq = 0;  // chain head, for the absorption safety check
  Seq last_seq = 0;   // chain tail
  // A reclaimed foreign interval is ordered after the chain's head: no
  // later interval of `writer` may ever be absorbed into this chain
  // (matches the fault path's per-record safety check, whose reclaimed
  // witnesses are gone).
  bool blocked = false;
  // True while `body` may be referenced by another node's header or by
  // the shared virgin store.  Set at every point a merged body crosses
  // nodes (virgin-store builds, the GC's chain-cache adoption) — all
  // inside the GC window, whose rendezvous orders them — and cleared by
  // the copy-on-write clone in MutableBody().  Deliberately a plain
  // bool, not a body.use_count() peek: see MutableBody.
  bool body_shared = false;
  std::shared_ptr<const IntervalRecord> rec;  // single-record form
  int di = -1;                                // unit's index within *rec
  std::shared_ptr<ChainBody> body;            // merged form (rec == null)

  const Diff& rec_diff() const {
    return rec->diffs[static_cast<std::size_t>(di)];
  }
  const std::vector<DiffRun>& runs() const {
    return rec != nullptr ? rec_diff().runs() : body->runs;
  }
  std::size_t payload_words() const {
    return rec != nullptr ? rec_diff().payload_words()
                          : body->payload_words;
  }
  const VectorClock& last_vc() const {
    return rec != nullptr ? rec->vc : body->last_vc;
  }

  // Visit every member stamp (the first-requester-pays decision).
  template <typename Fn>
  void ForEachStamp(Fn&& fn) const {
    if (rec != nullptr) {
      fn(rec->diffed[static_cast<std::size_t>(di)]);
      return;
    }
    for (const StampNode* s = body->stamps.get(); s != nullptr;
         s = s->next.get()) {
      fn(s->ref.stamps[s->ref.index]);
    }
  }

  // Mutable merged body for tail extension (GC absorption or fault-path
  // live absorption): converts a single-record chain to a merged body,
  // and clones a body other nodes may share (copy-on-write).  The
  // uniqueness test is the explicit `body_shared` flag, NOT
  // body.use_count() > 1: use_count() is a relaxed atomic load, so
  // observing "count == 1" establishes no happens-before with a peer
  // header's just-finished clone of the same body, and mutating in
  // place on its strength is a formal data race (TSan caught two
  // concurrent fault-path absorptions doing exactly that in the
  // recovery torture suite).  The flag errs conservative: a header
  // whose body was ever shared clones once even if every other sharer
  // has since dropped theirs.
  ChainBody& MutableBody() {
    if (rec != nullptr) {
      auto b = std::make_shared<ChainBody>();
      b->runs = rec_diff().runs();
      b->payload_words = rec_diff().payload_words();
      b->last_vc = rec->vc;
      b->stamps = std::make_shared<const StampNode>(StampNode{
          StampRef{rec->diffed, static_cast<std::uint32_t>(di)}, nullptr});
      body = std::move(b);
      rec = nullptr;
      di = -1;
    } else if (body_shared) {
      body = std::make_shared<ChainBody>(*body);
      body_shared = false;
    }
    return *body;
  }

  // Wire size of the chain's merged diff, matching Diff::EncodedBytes().
  std::size_t EncodedBytes() const {
    return rec != nullptr
               ? rec_diff().EncodedBytes()
               : Diff::kHeaderBytes +
                     body->runs.size() * Diff::kRunDescriptorBytes +
                     body->payload_words * kWordBytes;
  }
};

// Footprint counters shared by all archives of a run (updated under each
// archive's own mutex; atomics make the cross-archive sums race-free).
// The chain counters are accumulated by the GC's flatten workers — one
// per node in striped passes — inside the idle barrier window.
struct ArchiveTelemetry {
  std::atomic<std::uint64_t> live_intervals{0};
  std::atomic<std::uint64_t> peak_live_intervals{0};
  std::atomic<std::uint64_t> live_bytes{0};
  std::atomic<std::uint64_t> peak_live_bytes{0};
  std::atomic<std::uint64_t> reclaimed_intervals{0};
  // Archive-GC chain economics (DESIGN.md §6): bodies actually
  // constructed and chain headers adopted from the intern cache instead
  // of rebuilt.
  std::atomic<std::uint64_t> chains_built{0};
  std::atomic<std::uint64_t> chains_shared{0};

  void OnAppend(std::uint64_t bytes);
  void OnReclaim(std::uint64_t records, std::uint64_t bytes);
};

// Archive of one node's closed intervals.  The owner appends at interval
// close; peers look up records while handling faults or merging barrier
// notices; the barrier-epoch garbage collector reclaims the dominated
// prefix.  std::deque keeps references to surviving records stable across
// both appends and front-pruning, but all access still takes the mutex
// (deque bookkeeping itself is not thread-safe); lookups return stable
// pointers that remain valid after the mutex is released — until the
// record's seq is pruned.
class IntervalArchive {
 public:
  // Appends a record (records must arrive in increasing seq order).
  // Returns a stable pointer to the stored record.
  const IntervalRecord* Append(IntervalRecord record);

  // Record with exact seq, or nullptr (seqs may have gaps: empty intervals
  // are never archived).
  const IntervalRecord* Find(Seq seq) const;

  // All records with from < seq <= to, in increasing seq order.
  std::vector<const IntervalRecord*> Range(Seq from, Seq to) const;

  // Shared-ownership variant of Range (archive GC: single-record chains
  // retain the reclaimed record itself).
  std::vector<std::shared_ptr<const IntervalRecord>> RangeShared(
      Seq from, Seq to) const;

  // Reclaim every record with seq <= through (always a prefix: seqs are
  // appended in increasing order).  Records survive reclamation exactly
  // as long as some FlattenedChain retains them (shared ownership); the
  // GC converts every other reference first.  Returns the number of
  // records reclaimed.
  std::size_t PruneThrough(Seq through);

  // Smallest seq still archived (0 when empty) — pruned seqs can never be
  // Find()/Range()d again.
  Seq min_retained_seq() const;

  // Number of archived records with seq <= through (O(log n)).  The GC
  // sizes a pass with it to pick serial vs striped execution.
  std::size_t CountThrough(Seq through) const;

  void set_telemetry(ArchiveTelemetry* t) { telemetry_ = t; }

  std::size_t size() const;
  std::size_t TotalDiffBytes() const;

 private:
  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<IntervalRecord>> records_;
  ArchiveTelemetry* telemetry_ = nullptr;
};

}  // namespace dsm
