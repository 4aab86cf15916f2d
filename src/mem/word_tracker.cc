#include "mem/word_tracker.h"

namespace dsm {

WordTracker::WordTracker(std::size_t num_units, std::size_t words_per_unit)
    : words_per_unit_(words_per_unit),
      groups_per_unit_((words_per_unit + 63) / 64),
      units_(num_units),
      fresh_(num_units, 0) {}

WordTracker::Group* WordTracker::AllocateUnit(UnitId unit) {
  // make_unique<T[]> value-initializes: every group starts with no fresh
  // word and no slab.
  units_[unit] = std::make_unique<Group[]>(groups_per_unit_);
  return units_[unit].get();
}

std::uint32_t* WordTracker::MaterializeSlab(Group& g) {
  if (free_slab_ == kNoSlab) {
    // Grow the pool by one chunk and thread its slabs onto the free list.
    const auto base =
        static_cast<std::uint32_t>(slab_chunks_.size() * kSlabsPerChunk);
    slab_chunks_.push_back(
        std::make_unique<std::uint32_t[]>(std::size_t{kSlabsPerChunk} * 64));
    for (std::uint32_t s = 0; s < kSlabsPerChunk; ++s) {
      SlabAt(base + s)[0] = s + 1 < kSlabsPerChunk ? base + s + 1 : kNoSlab;
    }
    free_slab_ = base;
  }
  g.slab = free_slab_;
  std::uint32_t* slab = SlabAt(g.slab);
  free_slab_ = slab[0];
  std::fill(slab, slab + 64, g.tag);
  return slab;
}

void WordTracker::ReleaseSlab(Group& g) {
  SlabAt(g.slab)[0] = free_slab_;
  free_slab_ = g.slab;
  g.slab = kNoSlab;
}

std::size_t WordTracker::bytes() const {
  const auto tracked = static_cast<std::size_t>(
      std::count_if(units_.begin(), units_.end(),
                    [](const auto& groups) { return groups != nullptr; }));
  return tracked * groups_per_unit_ * sizeof(Group) +
         slab_chunks_.size() * kSlabsPerChunk * 64 * sizeof(std::uint32_t);
}

std::size_t WordTracker::slabs_in_use() const {
  std::size_t n = 0;
  for (const auto& groups : units_) {
    if (groups == nullptr) continue;
    for (std::size_t i = 0; i < groups_per_unit_; ++i) {
      n += groups[i].slab != kNoSlab;
    }
  }
  return n;
}

std::uint32_t WordTracker::Tag(UnitId unit, std::uint32_t word_in_unit) const {
  const Group* groups = units_[unit].get();
  if (groups == nullptr) return 0;
  const Group& g = groups[word_in_unit >> 6];
  if ((g.fresh >> (word_in_unit & 63) & 1) == 0) return 0;
  const std::uint32_t msg =
      g.slab == kNoSlab ? g.tag : SlabAt(g.slab)[word_in_unit & 63];
  return msg + 1;
}

}  // namespace dsm
