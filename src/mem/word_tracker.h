// Word-level usefulness instrumentation (paper §5.3).
//
// The authors instrumented all loads/stores and diff applications:
//   "After applying a diff to a region of a page, if a word from that
//    region is read before being overwritten, that word is counted as
//    useful data.  If a word is never read or overwritten before being
//    read, it is counted as useless data.  A useless message is a message
//    that carries no useful data."
//
// WordTracker implements exactly that, per node.  Every word delivered by a
// diff is marked *fresh* and tagged with the delivering message's id.  The
// first subsequent local read credits the message with that useful word and
// clears the mark; a local write clears the mark without credit; a newer
// delivery overwrites the tag (the older message never gets the credit).
// At finalization, a message's useless words = delivered − credited.
//
// Storage is one bit per word.  A unit's words split into 64-word groups
// (the last one partial when the unit's word count is not a multiple of
// 64); each group holds a 64-bit fresh bitmap and one message tag.  A
// group whose fresh words carry more than one message also borrows a
// 64-entry tag slab from the tracker's pool.  Group storage is allocated
// at a unit's first delivery, so only units that ever receive diffs pay
// for tracking.  The protocol's deliveries keep almost every group
// uniform: a home fetch covers the whole unit, and a diff run that covers
// all of a group's fresh words simply re-tags it; only a run that leaves
// another message's fresh words beside it materializes a slab.  A slab
// goes back to the pool when a delivery makes its group uniform again, or
// when a span access clears the group's last fresh word.
//
// A per-unit count of live fresh words makes the hot path O(1) once a
// unit's deliveries have all been read or overwritten: OnRead/OnWrite on
// an exhausted unit is a single counter load.  A span access clears each
// group's `fresh & range` and credits a uniform group once, with
// (tag, popcount); accesses of at most two words — every per-element
// access — test their bits directly, with no group loop and no popcount.
//
// Delivery is run-granular: the protocol hands over one diff's runs (or
// one whole home-fetched unit) per call, never one word.  Fresh marks,
// tags and counts end up exactly as if each word had been delivered on
// its own.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "mem/block_mask.h"
#include "mem/diff.h"
#include "mem/types.h"

namespace dsm {

class WordTracker {
 public:
  // `words_per_unit` = unit_bytes / kWordBytes.
  WordTracker(std::size_t num_units, std::size_t words_per_unit);

  // Message `msg_id` delivered `runs` of `unit` (one diff's runs, each
  // non-empty).  Redelivery to an already-fresh word re-tags it without
  // recounting it.
  void DeliverRuns(UnitId unit, std::span<const DiffRun> runs,
                   std::uint32_t msg_id) {
    if (runs.empty()) return;
    Group* groups = units_[unit].get();
    if (groups == nullptr) [[unlikely]] groups = AllocateUnit(unit);
    std::uint32_t newly_fresh = 0;
    for (const DiffRun& r : runs) {
      DSM_DCHECK(r.word_count > 0 &&
                 std::size_t{r.word_offset} + r.word_count <= words_per_unit_);
      const std::uint32_t back = r.word_offset + r.word_count - 1;
      Group* g = groups + (r.word_offset >> 6);
      Group* const last = groups + (back >> 6);
      std::uint64_t mask = kAllWords << (r.word_offset & 63);
      for (;; ++g, mask = kAllWords) {
        if (g == last) mask &= kAllWords >> (63 - (back & 63));
        newly_fresh += static_cast<std::uint32_t>(Popcount(mask & ~g->fresh));
        if ((g->fresh & ~mask) == 0) {
          // No other live word: the group becomes uniform.
          g->tag = msg_id;
          if (g->slab != kNoSlab) ReleaseSlab(*g);
        } else if (g->slab != kNoSlab || g->tag != msg_id) {
          std::uint32_t* slab =
              g->slab != kNoSlab ? SlabAt(g->slab) : MaterializeSlab(*g);
          std::fill(slab + std::countr_zero(mask),
                    slab + 64 - std::countl_zero(mask), msg_id);
        }
        g->fresh |= mask;
        if (g == last) break;
      }
    }
    fresh_[unit] += newly_fresh;
  }

  // One run: the `count` consecutive words of `unit` starting at `first`
  // (the whole unit, for a home fetch).
  void Deliver(UnitId unit, std::uint32_t first, std::uint32_t count,
               std::uint32_t msg_id) {
    const DiffRun run{first, count};
    DeliverRuns(unit, {&run, 1}, msg_id);
  }

  // Local read of `count` consecutive words.  Calls `credit(msg_id, words)`
  // for the fresh words consumed, in word order (a uniform group credits
  // its words in one call).  Hot path: units with no live fresh word take
  // a single counter check (fresh_[unit] > 0 implies group storage
  // exists).
  template <typename Fn>
  void OnRead(UnitId unit, std::uint32_t word_in_unit, std::uint32_t count,
              Fn&& credit) {
    const std::uint32_t live = fresh_[unit];
    if (live == 0) return;
    fresh_[unit] = count <= 2
                       ? ClearWords(unit, word_in_unit, count, live, credit)
                       : ClearSpan(unit, word_in_unit, count, live, credit);
  }

  // Local write of `count` consecutive words: fresh marks die uncredited.
  void OnWrite(UnitId unit, std::uint32_t word_in_unit, std::uint32_t count) {
    const std::uint32_t live = fresh_[unit];
    if (live == 0) return;
    auto no_credit = [](std::uint32_t, std::uint32_t) {};
    fresh_[unit] = count <= 2
                       ? ClearWords(unit, word_in_unit, count, live, no_credit)
                       : ClearSpan(unit, word_in_unit, count, live, no_credit);
  }

  bool HasTracking(UnitId unit) const { return units_[unit] != nullptr; }

  // Live fresh words in `unit` (0 = the hot paths early-out).
  std::uint32_t fresh_count(UnitId unit) const { return fresh_[unit]; }

  // Host bytes of tracking storage: the groups of every tracked unit plus
  // the slab pool's chunks.
  std::size_t bytes() const;

  // Testing hook: slabs held by mixed groups.
  std::size_t slabs_in_use() const;

  // Testing hook: raw tag for one word (0 = not fresh, v > 0 = fresh from
  // message v - 1).
  std::uint32_t Tag(UnitId unit, std::uint32_t word_in_unit) const;

 private:
  static constexpr std::uint32_t kNoSlab = ~std::uint32_t{0};
  static constexpr std::uint64_t kAllWords = ~std::uint64_t{0};
  static constexpr std::uint32_t kSlabsPerChunk = 64;  // 16 KiB per chunk

  // 64 words: their fresh bits, and the message of every fresh word —
  // `tag` while `slab` is kNoSlab, else the slab's entry for the word.
  struct Group {
    std::uint64_t fresh = 0;
    std::uint32_t tag = 0;
    std::uint32_t slab = kNoSlab;
  };

  // Zeroed group storage for a unit's first delivery.  Out of line: each
  // unit takes it once.
  Group* AllocateUnit(UnitId unit);

  std::uint32_t* SlabAt(std::uint32_t slab) const {
    return slab_chunks_[slab / kSlabsPerChunk].get() +
           std::size_t{slab % kSlabsPerChunk} * 64;
  }
  // Gives the uniform group `g` a slab filled with its tag; returns it.
  std::uint32_t* MaterializeSlab(Group& g);
  void ReleaseSlab(Group& g);

  // Per-element access (at most two words): tests each word's bit.  A
  // mixed group keeps its slab here even when its last fresh word dies
  // (the next delivery to the group returns it), so the hot path stays a
  // bit test and a clear.
  template <typename Fn>
  std::uint32_t ClearWords(UnitId unit, std::uint32_t first,
                           std::uint32_t count, std::uint32_t live,
                           Fn&& credit) {
    Group* groups = units_[unit].get();
    for (std::uint32_t w = first; w < first + count; ++w) {
      Group& g = groups[w >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (w & 63);
      if ((g.fresh & bit) == 0) continue;
      g.fresh ^= bit;
      credit(g.slab == kNoSlab ? g.tag : SlabAt(g.slab)[w & 63], 1);
      if (--live == 0) break;  // rest of the unit holds no fresh word
    }
    return live;
  }

  // Span access to a unit holding `live` > 0 fresh words: clears the fresh
  // words in [first, first + count) group by group and returns the unit's
  // new live count (the loop stops when it reaches 0).
  template <typename Fn>
  std::uint32_t ClearSpan(UnitId unit, std::uint32_t first,
                          std::uint32_t count, std::uint32_t live,
                          Fn&& credit) {
    Group* const groups = units_[unit].get();
    const std::uint32_t back = first + count - 1;
    Group* g = groups + (first >> 6);
    Group* const last = groups + (back >> 6);
    std::uint64_t mask = kAllWords << (first & 63);
    for (;; ++g, mask = kAllWords) {
      if (g == last) mask &= kAllWords >> (63 - (back & 63));
      std::uint64_t hit = g->fresh & mask;
      if (hit != 0) {
        g->fresh ^= hit;
        const auto words = static_cast<std::uint32_t>(Popcount(hit));
        live -= words;
        if (g->slab == kNoSlab) {
          credit(g->tag, words);
        } else {
          const std::uint32_t* slab = SlabAt(g->slab);
          for (; hit != 0; hit &= hit - 1) {
            credit(slab[std::countr_zero(hit)], 1);
          }
          if (g->fresh == 0) ReleaseSlab(*g);
        }
        if (live == 0) break;
      }
      if (g == last) break;
    }
    return live;
  }

  std::size_t words_per_unit_;
  std::size_t groups_per_unit_;  // ceil(words_per_unit_ / 64)
  std::vector<std::unique_ptr<Group[]>> units_;
  std::vector<std::uint32_t> fresh_;  // live fresh words per unit
  // Slab pool: fixed-size chunks of kSlabsPerChunk slabs, never moved.
  // Free slabs form a list threaded through their first entry.
  std::vector<std::unique_ptr<std::uint32_t[]>> slab_chunks_;
  std::uint32_t free_slab_ = kNoSlab;
};

}  // namespace dsm
