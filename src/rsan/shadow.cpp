#include "rsan/shadow.hpp"

#include <algorithm>
#include <utility>

namespace rsan {

void ShadowMemory::store_cells(ShadowBlock& blk, std::size_t lo, std::size_t hi,
                               const GranuleCells& pattern) {
  for (std::size_t g = lo; g <= hi; ++g) {
    if (!std::equal(pattern.begin(), pattern.end(), blk.cells(g))) {
      std::copy(pattern.begin(), pattern.end(), writable_cells(blk, g));
    }
  }
}

ShadowBlock* ShadowMemory::lookup_or_create(std::uintptr_t key) {
  if (ShadowBlock* existing = find(key)) {
    return existing;
  }
  // Budget check before any allocation: at the cap the lookup is denied
  // rather than the process aborted.
  if (block_budget_ != 0 && block_count_ >= block_budget_) {
    ++denied_blocks_;
    return nullptr;
  }
  if (slabs_.empty() || slabs_.back().size() == kBlocksPerSlab) {
    slabs_.emplace_back().reserve(kBlocksPerSlab);
  }
  ShadowBlock* const blk = &slabs_.back().emplace_back();
  if (summaries_) {
    blk->summary.reset_whole_block();
    blk->summary.deferred = false;  // the missing cell pages read empty already
  }
  if (2 * (block_count_ + 1) > index_.size()) {
    std::vector<Slot> old =
        std::exchange(index_, std::vector<Slot>(std::max(kMinIndexSlots, 2 * index_.size())));
    for (const Slot& slot : old) {
      if (slot.blk != nullptr) {
        insert(slot.key, slot.blk);
      }
    }
  }
  insert(key, blk);
  ++block_count_;
  return blk;
}

void ShadowMemory::insert(std::uintptr_t key, ShadowBlock* blk) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(key);
  while (index_[i].blk != nullptr) {
    i = (i + 1) & mask;
  }
  index_[i] = Slot{key, blk};
}

ShadowBlock* ShadowMemory::find(std::uintptr_t key) {
  return const_cast<ShadowBlock*>(static_cast<const ShadowMemory*>(this)->find(key));
}

const ShadowBlock* ShadowMemory::find(std::uintptr_t key) const {
  if (index_.empty()) {
    return nullptr;
  }
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Slot& slot = index_[i];
    if (slot.blk == nullptr || slot.key == key) {
      return slot.blk;
    }
  }
}

void ShadowMemory::reset_range(std::uintptr_t base, std::size_t extent) {
  if (extent == 0) {
    return;
  }
  const std::uintptr_t first_granule = base / kGranuleBytes;
  const std::uintptr_t last_granule = (base + extent - 1) / kGranuleBytes;
  std::uintptr_t g = first_granule;
  for (;;) {
    const std::uintptr_t key = g / kGranulesPerBlock;
    const std::uintptr_t block_last = (key + 1) * kGranulesPerBlock - 1;
    const std::uintptr_t seg_last = std::min(last_granule, block_last);
    ShadowBlock* blk = find(key);
    if (blk != nullptr) {
      const std::size_t lo = static_cast<std::size_t>(g - key * kGranulesPerBlock);
      const std::size_t hi = static_cast<std::size_t>(seg_last - key * kGranulesPerBlock);
      BlockSummary& sum = blk->summary;
      if (summaries_ && lo == 0 && hi == kGranulesPerBlock - 1) {
        sum.reset_whole_block();  // the raw cells become don't-care: none is written
      } else {
        if (sum.overlaps(lo, hi)) {
          // The span's granules outside the segment keep the summary's
          // state; a summary disjoint from the segment stays as it is.
          if (sum.lo < lo) {
            materialize(*blk, sum.lo, std::min<std::size_t>(sum.hi, lo - 1));
          }
          if (hi < sum.hi) {
            materialize(*blk, std::max<std::size_t>(sum.lo, hi + 1), sum.hi);
          }
          sum.invalidate();
        }
        store_cells(*blk, lo, hi, kEmptyGranule);
      }
    }
    if (seg_last == last_granule) {
      break;
    }
    g = seg_last + 1;
  }
  // The cached block may point into the reset range; drop it so later
  // mutating lookups probe the index again.
  cached_block_ = nullptr;
  cached_key_ = ~std::uintptr_t{0};
}

void ShadowMemory::clear() {
  slabs_.clear();  // frees every cell page with its header
  index_ = {};
  block_count_ = 0;
  cell_pages_ = 0;
  denied_blocks_ = 0;
  cached_block_ = nullptr;
  cached_key_ = ~std::uintptr_t{0};
}

}  // namespace rsan
