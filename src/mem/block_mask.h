// Block summaries over a consistency unit.
//
// A unit's words split into at most 64 equal blocks, so one uint64_t can
// summarize which blocks a set of word ranges touched: 16 words per block
// at 4K units, 64 at 16K.  The block size is the smallest power of two
// that fits the unit into 64 blocks, so a unit whose word count is not a
// multiple of 64 ends in a partial block (and, when the size is not a
// power of two, leaves the top bits unused).  WordTracker keeps one
// summary per unit of the blocks that may hold a fresh tag; Node keeps
// one of the blocks written since the twin was taken, which bounds the
// release-time twin scan (Diff::Create).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace dsm {

inline constexpr std::uint64_t kAllBlocks = ~std::uint64_t{0};

// log2 of the words per block for a unit of `words_per_unit` words.
constexpr int BlockShift(std::size_t words_per_unit) {
  return words_per_unit <= 64
             ? 0
             : static_cast<int>(std::bit_width((words_per_unit - 1) / 64));
}

// Bits of the blocks that words [first_word, first_word + count) touch,
// for blocks of 1 << block_shift words (count >= 1).  Hot paths cache the
// unit's BlockShift.
constexpr std::uint64_t BlockMask(std::size_t first_word, std::size_t count,
                                  int block_shift) {
  const auto lo = static_cast<unsigned>(first_word >> block_shift);
  const auto hi =
      static_cast<unsigned>((first_word + count - 1) >> block_shift);
  // Bits lo..hi; at hi == 63 the left term wraps to 0, which still
  // leaves exactly bits lo..63.
  return (std::uint64_t{2} << hi) - (std::uint64_t{1} << lo);
}

}  // namespace dsm
