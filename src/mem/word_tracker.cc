#include "mem/word_tracker.h"

namespace dsm {

WordTracker::WordTracker(std::size_t num_units, std::size_t words_per_unit)
    : words_per_unit_(words_per_unit),
      block_shift_(BlockShift(words_per_unit)),
      units_(num_units),
      fresh_(num_units, 0),
      maybe_fresh_(num_units, 0) {}

std::uint32_t* WordTracker::AllocateUnit(UnitId unit) {
  // make_unique<T[]> value-initializes: every tag starts at 0 (not fresh).
  units_[unit] = std::make_unique<std::uint32_t[]>(words_per_unit_);
  return units_[unit].get();
}

std::uint32_t WordTracker::Tag(UnitId unit, std::uint32_t word_in_unit) const {
  if (units_[unit] == nullptr) return 0;
  return units_[unit][word_in_unit];
}

}  // namespace dsm
