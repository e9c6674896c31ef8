#include "rsan/shadow.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <type_traits>

namespace rsan {

namespace {

constexpr std::size_t kL1Bytes = (std::size_t{1} << kShadowL1Bits) * sizeof(ShadowBlock**);
constexpr std::size_t kL2Bytes = (std::size_t{1} << kShadowL2Bits) * sizeof(ShadowBlock*);

/// Anonymous demand-zero pages, deliberately not malloc/calloc: glibc's
/// sliding mmap threshold turns repeated large callocs into heap recycling +
/// full memset after the first free, which is exactly the per-session fixed
/// cost this table layout exists to avoid.
[[nodiscard]] void* map_zero(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

}  // namespace

ShadowBlock* ShadowMemory::allocate_block() {
  static_assert(std::is_trivially_destructible_v<ShadowBlock>,
                "slab teardown munmaps blocks without running destructors");
  if (slab_used_ == kBlocksPerSlab) {
    void* slab = map_zero(kBlocksPerSlab * sizeof(ShadowBlock));
    if (slab == nullptr) {
      return nullptr;
    }
    slabs_.push_back(static_cast<ShadowBlock*>(slab));
    slab_used_ = 0;
  }
  ShadowBlock* blk = slabs_.back() + slab_used_;
  ++slab_used_;
  init_summary(*blk);
  return blk;
}

void ShadowMemory::init_summary(ShadowBlock& blk) const {
  // Mapped-zero cells are exactly the value-initialized state, but a zero
  // BlockSummary reads as lo=0,hi=0 ("covers granule 0"): set it explicitly.
  if (summaries_) {
    blk.summary.reset_whole_block();
    blk.summary.deferred = false;  // the raw cells are empty already
  } else {
    blk.summary.invalidate();
  }
}

ShadowBlock* ShadowMemory::lookup_or_create(std::uintptr_t key) {
  if (ShadowBlock* existing = find(key)) {
    return existing;
  }
  // Budget check before any allocation (including L2 pages): at the cap the
  // lookup is denied rather than the process aborted.
  if (block_budget_ != 0 && block_count_ >= block_budget_) {
    ++denied_blocks_;
    return nullptr;
  }
  if (key < kDirectMappedBlockKeys) {
    if (l1_ == nullptr) {
      l1_ = static_cast<ShadowBlock***>(map_zero(kL1Bytes));
      if (l1_ == nullptr) {
        ++denied_blocks_;
        return nullptr;
      }
    }
    ShadowBlock**& page = l1_[key >> kShadowL2Bits];
    if (page == nullptr) {
      page = static_cast<ShadowBlock**>(map_zero(kL2Bytes));
      if (page == nullptr) {
        ++denied_blocks_;
        return nullptr;
      }
      pages_.push_back(page);
    }
    ShadowBlock*& slot = page[key & ((std::uintptr_t{1} << kShadowL2Bits) - 1)];
    if (slot == nullptr) {
      slot = allocate_block();
      if (slot == nullptr) {
        ++denied_blocks_;
        return nullptr;
      }
      ++block_count_;
    }
    return slot;
  }
  std::unique_ptr<ShadowBlock>& slot = overflow_[key];
  if (!slot) {
    slot = std::make_unique<ShadowBlock>();
    init_summary(*slot);
    ++block_count_;
  }
  return slot.get();
}

ShadowBlock* ShadowMemory::find(std::uintptr_t key) {
  return const_cast<ShadowBlock*>(static_cast<const ShadowMemory*>(this)->find(key));
}

const ShadowBlock* ShadowMemory::find(std::uintptr_t key) const {
  if (key < kDirectMappedBlockKeys) {
    if (l1_ == nullptr) {
      return nullptr;
    }
    ShadowBlock** page = l1_[key >> kShadowL2Bits];
    if (page == nullptr) {
      return nullptr;
    }
    return page[key & ((std::uintptr_t{1} << kShadowL2Bits) - 1)];
  }
  const auto it = overflow_.find(key);
  return it != overflow_.end() ? it->second.get() : nullptr;
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
        sum.reset_whole_block();  // the raw cells become don't-care: no 16 KiB fill
      } else {
        if (sum.overlaps(lo, hi)) {
          // The span's granules outside the segment keep the summary's
          // state; a summary disjoint from the segment stays as it is.
          if (sum.lo < lo) {
            blk->materialize(sum.lo, std::min<std::size_t>(sum.hi, lo - 1));
          }
          if (hi < sum.hi) {
            blk->materialize(std::max<std::size_t>(sum.lo, hi + 1), sum.hi);
          }
          sum.invalidate();
        }
        blk->store_cells(lo, hi, {});
      }
    }
    if (seg_last == last_granule) {
      break;
    }
    g = seg_last + 1;
  }
  // The cached block may point into the reset range; drop it so later
  // mutating lookups re-walk the table (mirrors the pre-reset behaviour).
  cached_block_ = nullptr;
  cached_key_ = ~std::uintptr_t{0};
}

void ShadowMemory::clear() {
  for (ShadowBlock** page : pages_) {
    ::munmap(page, kL2Bytes);
  }
  pages_.clear();
  if (l1_ != nullptr) {
    ::munmap(l1_, kL1Bytes);
    l1_ = nullptr;
  }
  for (ShadowBlock* slab : slabs_) {
    ::munmap(slab, kBlocksPerSlab * sizeof(ShadowBlock));
  }
  slabs_.clear();
  slab_used_ = kBlocksPerSlab;
  overflow_.clear();
  block_count_ = 0;
  denied_blocks_ = 0;
  cached_block_ = nullptr;
  cached_key_ = ~std::uintptr_t{0};
}

}  // namespace rsan
