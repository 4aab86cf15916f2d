#include "mem/sharer_directory.h"

#include "common/check.h"
#include "mem/block_mask.h"

namespace dsm {

SharerDirectory::SharerDirectory(std::size_t num_units, int num_procs)
    : num_procs_(num_procs),
      words_per_unit_((static_cast<std::size_t>(num_procs) + 63) / 64),
      bits_(num_units * ((static_cast<std::size_t>(num_procs) + 63) / 64)) {
  DSM_CHECK_GT(num_procs, 0);
}

int SharerDirectory::SharerCount(UnitId unit) const {
  int count = 0;
  const std::size_t base = unit * words_per_unit_;
  for (std::size_t w = 0; w < words_per_unit_; ++w) {
    count += Popcount(bits_[base + w].load(std::memory_order_relaxed));
  }
  return count;
}

}  // namespace dsm
