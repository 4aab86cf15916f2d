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
// first subsequent local read credits the message with one useful word and
// clears the mark; a local write clears the mark without credit; a newer
// delivery overwrites the tag (the older message never gets the credit).
// At finalization, a message's useless words = delivered − credited.
//
// Storage is one uint32 per word, allocated lazily per consistency unit, so
// only units that ever receive diffs pay for tracking.  Value 0 = not
// fresh; value v>0 = fresh from message id v-1.  A per-unit count of live
// fresh tags makes the hot path O(1) once a unit's deliveries have all
// been read or overwritten: OnRead/OnWrite on an exhausted unit is a
// single counter load, and the word loop stops as soon as the last live
// tag in range dies.
//
// A per-unit block summary (mem/block_mask.h: 64 blocks per unit) bounds
// the multi-word loops while a unit still holds live tags.  A clear bit
// means the block holds no fresh tag; a set bit is only a hint.  A
// delivery sets its runs' blocks; a span access visits only the set
// blocks in its range and clears the bits of the blocks it covered whole;
// a unit whose live count reached 0 has an empty summary (the next
// delivery starts it anew).  This is what keeps a false-sharing unit
// cheap: its owner's own-row sweeps skip the never-read foreign rows a
// fault delivered instead of walking their zero tags.  Accesses of at
// most kExactLoopWords words (every per-element access) keep the plain
// tag loop: for them a summary lookup costs more than it saves.
//
// Delivery is run-granular: the protocol hands over one diff's runs (or
// one whole home-fetched unit) per call, never one word.  A call makes a
// single allocation check, fills each run's tags in one pass while
// counting the words that were not fresh before, and updates the unit's
// fresh count and summary once — tags and counts end up exactly as if
// each word had been delivered on its own.
#pragma once

#include <algorithm>
#include <bit>
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
    std::uint32_t* tags = units_[unit].get();
    if (tags == nullptr) [[unlikely]] tags = AllocateUnit(unit);
    const std::uint32_t tag = msg_id + 1;
    const int shift = block_shift_;
    std::uint32_t newly_fresh = 0;
    std::uint64_t blocks = 0;
    for (const DiffRun& r : runs) {
      // Locals, not r's fields: tag stores could alias them, which would
      // keep the fill loop from vectorizing.
      const std::uint32_t first = r.word_offset;
      const std::uint32_t count = r.word_count;
      DSM_DCHECK(count > 0 && std::size_t{first} + count <= words_per_unit_);
      std::uint32_t* run = tags + first;
      for (std::uint32_t i = 0; i < count; ++i) {
        newly_fresh += run[i] == 0;
        run[i] = tag;
      }
      blocks |= BlockMask(first, count, shift);
    }
    // An exhausted unit's summary is stale: this delivery starts it anew.
    std::uint64_t& summary = maybe_fresh_[unit];
    summary = (fresh_[unit] == 0 ? 0 : summary) | blocks;
    fresh_[unit] += newly_fresh;
  }

  // One run: the `count` consecutive words of `unit` starting at `first`
  // (the whole unit, for a home fetch).
  void Deliver(UnitId unit, std::uint32_t first, std::uint32_t count,
               std::uint32_t msg_id) {
    const DiffRun run{first, count};
    DeliverRuns(unit, {&run, 1}, msg_id);
  }

  // Local read of `count` consecutive words.  Calls `credit(msg_id)` once
  // per fresh word consumed, in word order.  Hot path: units with no live
  // fresh tag take a single counter check (fresh_[unit] > 0 implies tag
  // storage exists).
  template <typename Fn>
  void OnRead(UnitId unit, std::uint32_t word_in_unit, std::uint32_t count,
              Fn&& credit) {
    const std::uint32_t live = fresh_[unit];
    if (live == 0) return;
    fresh_[unit] = count <= kExactLoopWords
                       ? ClearTags(units_[unit].get() + word_in_unit, count,
                                   live, credit)
                       : ClearSpan(unit, word_in_unit, count, live, credit);
  }

  // Local write of `count` consecutive words: fresh marks die uncredited.
  void OnWrite(UnitId unit, std::uint32_t word_in_unit, std::uint32_t count) {
    const std::uint32_t live = fresh_[unit];
    if (live == 0) return;
    auto no_credit = [](std::uint32_t) {};
    fresh_[unit] = count <= kExactLoopWords
                       ? ClearTags(units_[unit].get() + word_in_unit, count,
                                   live, no_credit)
                       : ClearSpan(unit, word_in_unit, count, live, no_credit);
  }

  bool HasTracking(UnitId unit) const { return units_[unit] != nullptr; }

  // Live fresh tags in `unit` (0 = the hot paths early-out).
  std::uint32_t fresh_count(UnitId unit) const { return fresh_[unit]; }

  // Block summary of `unit` (testing hook; bit b clear = block b holds no
  // live tag, and an exhausted unit's summary is empty).
  std::uint64_t maybe_fresh_blocks(UnitId unit) const {
    return fresh_[unit] == 0 ? 0 : maybe_fresh_[unit];
  }

  // Testing hook: raw tag for one word (0 = not fresh).
  std::uint32_t Tag(UnitId unit, std::uint32_t word_in_unit) const;

 private:
  // Zeroed tag storage for a unit's first delivery.  Out of line: each
  // unit takes it once.
  std::uint32_t* AllocateUnit(UnitId unit);

  // Per-element accesses (an element is at most two words) take the exact
  // tag loop; longer spans go through the block summary.
  static constexpr std::uint32_t kExactLoopWords = 2;

  // Span access (more than kExactLoopWords words) to a unit holding
  // `live` > 0 tags: clears the live tags in [first, first + count),
  // visiting only the blocks the summary marks, and returns the unit's
  // new live count.
  template <typename Fn>
  std::uint32_t ClearSpan(UnitId unit, std::uint32_t first,
                          std::uint32_t count, std::uint32_t live,
                          Fn&& credit) {
    std::uint32_t* tags = units_[unit].get();
    const std::uint32_t end = first + count;
    const int shift = block_shift_;
    std::uint64_t& summary = maybe_fresh_[unit];
    std::uint64_t todo = summary & BlockMask(first, count, shift);
    while (todo != 0 && live != 0) {
      const int b = std::countr_zero(todo);
      todo &= todo - 1;
      const std::uint32_t block_lo = static_cast<std::uint32_t>(b) << shift;
      const std::uint32_t block_hi = block_lo + (std::uint32_t{1} << shift);
      const std::uint32_t lo = std::max(first, block_lo);
      live = ClearTags(tags + lo, std::min(end, block_hi) - lo, live, credit);
      if (first <= block_lo && block_hi <= end) {
        summary &= ~(std::uint64_t{1} << b);
      }
    }
    return live;
  }

  // Clears the live tags among the `count` words at `tags`, crediting
  // each; returns the unit's remaining live count (the loop stops early
  // when it reaches 0).
  template <typename Fn>
  static std::uint32_t ClearTags(std::uint32_t* tags, std::uint32_t count,
                                 std::uint32_t live, Fn&& credit) {
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t& tag = tags[i];
      if (tag != 0) {
        credit(tag - 1);
        tag = 0;
        if (--live == 0) break;  // rest of the unit holds no fresh word
      }
    }
    return live;
  }

  std::size_t words_per_unit_;
  int block_shift_;  // BlockShift(words_per_unit_)
  std::vector<std::unique_ptr<std::uint32_t[]>> units_;
  std::vector<std::uint32_t> fresh_;  // live (non-zero) tags per unit
  // Blocks that may hold a live tag (clear bit = none; see header).
  std::vector<std::uint64_t> maybe_fresh_;
};

}  // namespace dsm
