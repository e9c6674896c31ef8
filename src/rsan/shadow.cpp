#include "rsan/shadow.hpp"

#include <algorithm>
#include <utility>

namespace rsan {

void RunList::join(std::size_t i, std::size_t lo, std::size_t hi, bool to_prev, bool to_next) {
  Run* runs = data();
  const bool whole = lo == runs[i].lo && hi == runs[i].hi;
  if (to_prev) {
    runs[i - 1].deferred = true;
    runs[i - 1].hi = to_next ? runs[i + 1].hi : static_cast<std::uint16_t>(hi);
    if (whole) {
      erase(i, to_next ? 2 : 1);
    } else {
      runs[i].lo = static_cast<std::uint16_t>(hi + 1);
    }
  } else {
    runs[i + 1].deferred = true;
    runs[i + 1].lo = static_cast<std::uint16_t>(lo);
    if (whole) {
      erase(i, 1);
    } else {
      runs[i].hi = static_cast<std::uint16_t>(lo - 1);
    }
  }
}

void RunList::erase(std::size_t pos, std::size_t n) {
  Run* runs = data();
  std::copy(runs + pos + n, runs + count_, runs + pos);
  const bool spilled = count_ > kInlineRuns;
  count_ = static_cast<std::uint8_t>(count_ - n);
  if (spilled && count_ <= kInlineRuns) {
    std::copy_n(runs, count_, inline_.data());
  }
}

void ShadowMemory::store_cells(ShadowBlock& blk, std::size_t lo, std::size_t hi,
                               const GranuleCells& pattern) {
  const bool empty = pattern == kEmptyGranule;
  for (std::size_t g = lo; g <= hi;) {
    const std::size_t p = g / kGranulesPerCellPage;
    const std::size_t page_hi = std::min(hi, (p + 1) * kGranulesPerCellPage - 1);
    if (blk.pages[p] != nullptr || !empty) {  // a missing page reads empty already
      ShadowCell* cells = writable_page(blk, p) + (g % kGranulesPerCellPage) * kShadowSlots;
      for (; g <= page_hi; ++g, cells += kShadowSlots) {
        std::copy(pattern.begin(), pattern.end(), cells);
      }
    }
    g = page_hi + 1;
  }
}

void ShadowMemory::replace_runs(ShadowBlock& blk, std::size_t lo, std::size_t hi,
                                const Run* runs, std::size_t n) {
  std::array<Run, kMergeRuns>& merged = merge_scratch_;
  std::size_t m = 0;
  const auto push = [&](const Run& run) {
    if (m > 0 && merged[m - 1].hi + 1 == run.lo && merged[m - 1].cells == run.cells) {
      merged[m - 1].hi = run.hi;
      merged[m - 1].deferred = merged[m - 1].deferred || run.deferred;
    } else {
      merged[m++] = run;
    }
  };
  for (Run run : blk.runs) {
    if (run.lo < lo) {
      run.hi = static_cast<std::uint16_t>(std::min<std::size_t>(run.hi, lo - 1));
      push(run);
    }
  }
  std::for_each(runs, runs + n, push);
  for (Run run : blk.runs) {
    if (run.hi > hi) {
      run.lo = static_cast<std::uint16_t>(std::max<std::size_t>(run.lo, hi + 1));
      push(run);
    }
  }
  while (m > kMaxRuns) {
    Run* narrowest =
        std::min_element(merged.begin(), merged.begin() + m,
                         [](const Run& a, const Run& b) { return a.width() < b.width(); });
    materialize(blk, *narrowest);
    std::copy(narrowest + 1, merged.begin() + m, narrowest);
    --m;
  }
  blk.runs.assign(merged.data(), m);
  CUSAN_DEBUG_ASSERT_MSG(blk.runs.canonical(),
                         "replace_runs left a run list out of canonical form");
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
  if (runs_) {
    // The missing cell pages read empty already: nothing is deferred.
    const Run empty{kEmptyGranule, 0, kGranulesPerBlock - 1, false};
    blk->runs.assign(&empty, 1);
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
      if (runs_) {
        // The raw cells under the empty run become don't-care: none is written.
        const Run empty{kEmptyGranule, static_cast<std::uint16_t>(lo),
                        static_cast<std::uint16_t>(hi), true};
        replace_runs(*blk, lo, hi, &empty, 1);
      } else {
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
