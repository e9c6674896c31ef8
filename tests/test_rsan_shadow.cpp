// Unit tests for the shadow memory (lazy blocks, granule addressing, reset,
// uniform runs, the block index and the raw-cell pages a block allocates on
// write).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rsan/shadow.hpp"

namespace {

using rsan::kBlockAppBytes;
using rsan::kGranuleBytes;
using rsan::kShadowSlots;
using rsan::ShadowCell;
using rsan::ShadowMemory;

TEST(ShadowMemoryTest, LazyAllocation) {
  ShadowMemory shadow;
  EXPECT_EQ(shadow.resident_blocks(), 0u);
  (void)shadow.granule(0x1000);
  EXPECT_EQ(shadow.resident_blocks(), 1u);
  (void)shadow.granule(0x1008);  // same block
  EXPECT_EQ(shadow.resident_blocks(), 1u);
  (void)shadow.granule(0x1000 + kBlockAppBytes);  // next block
  EXPECT_EQ(shadow.resident_blocks(), 2u);
  EXPECT_EQ(shadow.resident_bytes(), 2 * rsan::kShadowBlockBytes);
}

TEST(ShadowMemoryTest, GranuleCellsPersist) {
  ShadowMemory shadow;
  ShadowCell* cells = shadow.granule(0x2000);
  cells[0] = ShadowCell::make(1, 5, true);
  ShadowCell* again = shadow.granule(0x2000);
  EXPECT_EQ(again[0].raw, cells[0].raw);
  EXPECT_TRUE(again[0].valid());
  // A different granule in the same block has its own cells.
  ShadowCell* other = shadow.granule(0x2008);
  EXPECT_FALSE(other[0].valid());
}

TEST(ShadowMemoryTest, SameGranuleForAllBytesWithin) {
  ShadowMemory shadow;
  ShadowCell* base = shadow.granule(0x3000);
  for (std::uintptr_t off = 0; off < kGranuleBytes; ++off) {
    EXPECT_EQ(shadow.granule(0x3000 + off), base);
  }
  EXPECT_NE(shadow.granule(0x3000 + kGranuleBytes), base);
}

TEST(ShadowMemoryTest, LoadDoesNotAllocate) {
  ShadowMemory shadow;
  EXPECT_FALSE(shadow.load(0x4000)[0].valid());
  EXPECT_EQ(shadow.resident_blocks(), 0u);
  shadow.granule(0x4000)[0] = ShadowCell::make(1, 2, true);
  EXPECT_EQ(shadow.load(0x4000)[0].clock(), 2u);
  EXPECT_EQ(shadow.resident_blocks(), 1u);
}

TEST(ShadowMemoryTest, ResetRangeClearsCells) {
  ShadowMemory shadow;
  for (std::uintptr_t addr = 0x5000; addr < 0x5100; addr += kGranuleBytes) {
    shadow.granule(addr)[0] = ShadowCell::make(2, 9, false);
  }
  shadow.reset_range(0x5000, 0x100);
  for (std::uintptr_t addr = 0x5000; addr < 0x5100; addr += kGranuleBytes) {
    for (const ShadowCell cell : shadow.load(addr)) {
      EXPECT_FALSE(cell.valid());
    }
  }
  EXPECT_EQ(shadow.resident_blocks(), 1u);
}

TEST(ShadowMemoryTest, ResetRangeIsBounded) {
  ShadowMemory shadow;
  shadow.granule(0x6000 - kGranuleBytes)[0] = ShadowCell::make(1, 1, true);
  shadow.granule(0x6000)[0] = ShadowCell::make(1, 2, true);
  shadow.granule(0x6010)[0] = ShadowCell::make(1, 3, true);
  shadow.reset_range(0x6000, 0x10);
  EXPECT_TRUE(shadow.granule(0x6000 - kGranuleBytes)[0].valid());  // before range
  EXPECT_FALSE(shadow.granule(0x6000)[0].valid());
  EXPECT_FALSE(shadow.granule(0x6008)[0].valid());
  EXPECT_TRUE(shadow.granule(0x6010)[0].valid());  // after range
}

TEST(ShadowMemoryTest, ResetRangeSkipsAbsentBlocks) {
  ShadowMemory shadow;
  shadow.granule(0x10000)[0] = ShadowCell::make(1, 1, true);
  // Range spans many never-touched blocks plus the one above.
  shadow.reset_range(0x8000, 0x10000);
  EXPECT_FALSE(shadow.granule(0x10000)[0].valid());
  // No new blocks were materialized by the reset.
  EXPECT_EQ(shadow.resident_blocks(), 1u);
}

TEST(ShadowMemoryTest, ResetRangeZeroExtentIsNoop) {
  ShadowMemory shadow;
  shadow.granule(0x7000)[0] = ShadowCell::make(1, 1, true);
  shadow.reset_range(0x7000, 0);
  EXPECT_TRUE(shadow.granule(0x7000)[0].valid());
}

TEST(ShadowMemoryTest, ClearDropsEverything) {
  ShadowMemory shadow;
  (void)shadow.granule(0x1000);
  (void)shadow.granule(0x100000);
  shadow.clear();
  EXPECT_EQ(shadow.resident_blocks(), 0u);
  EXPECT_FALSE(shadow.load(0x1000)[0].valid());
  EXPECT_EQ(shadow.resident_blocks(), 0u);
}

TEST(ShadowMemoryTest, ResetRangePartialGranuleEdgesClearWholeGranules) {
  // A reset range that starts and ends mid-granule clears the full front and
  // back granules (tracking granularity is 8 bytes; a freed byte invalidates
  // its whole granule).
  ShadowMemory shadow;
  shadow.granule(0x8000)[0] = ShadowCell::make(1, 1, true);   // front granule
  shadow.granule(0x8008)[0] = ShadowCell::make(1, 2, true);   // interior
  shadow.granule(0x8010)[0] = ShadowCell::make(1, 3, true);   // back granule
  shadow.granule(0x8018)[0] = ShadowCell::make(1, 4, true);   // beyond
  shadow.reset_range(0x8003, 0x12);  // [0x8003, 0x8015): mid-granule both ends
  EXPECT_FALSE(shadow.granule(0x8000)[0].valid());
  EXPECT_FALSE(shadow.granule(0x8008)[0].valid());
  EXPECT_FALSE(shadow.granule(0x8010)[0].valid());
  EXPECT_TRUE(shadow.granule(0x8018)[0].valid());
}

TEST(ShadowMemoryTest, ResetRangeSpansAbsentMiddleBlocks) {
  // Present blocks on both ends of the range, absent blocks in the middle:
  // both ends are cleared and nothing is materialized in between.
  ShadowMemory shadow;
  const std::uintptr_t first_block = 0x20000;
  const std::uintptr_t last_block = first_block + 4 * kBlockAppBytes;
  shadow.granule(first_block + 8)[0] = ShadowCell::make(1, 1, true);
  shadow.granule(last_block + 8)[0] = ShadowCell::make(1, 2, true);
  EXPECT_EQ(shadow.resident_blocks(), 2u);
  shadow.reset_range(first_block, 5 * kBlockAppBytes);
  EXPECT_FALSE(shadow.granule(first_block + 8)[0].valid());
  EXPECT_FALSE(shadow.granule(last_block + 8)[0].valid());
  EXPECT_EQ(shadow.resident_blocks(), 2u);
}

TEST(ShadowMemoryTest, ResetRangeInvalidatesCachedBlockLookup) {
  // granule() caches the last block; a reset through the ShadowMemory API
  // must not leave the cache serving a stale pointer view of cleared cells.
  ShadowMemory shadow;
  shadow.granule(0x9000)[0] = ShadowCell::make(1, 7, true);  // block now cached
  shadow.reset_range(0x9000, kGranuleBytes);
  ShadowCell* cells = shadow.granule(0x9000);  // re-walks the table
  EXPECT_FALSE(cells[0].valid());
  cells[0] = ShadowCell::make(2, 3, false);
  EXPECT_TRUE(shadow.granule(0x9000)[0].valid());
  EXPECT_EQ(shadow.resident_blocks(), 1u);
}

// -- Runs on: uniform runs hold the state of their granules ------------------

using rsan::kGranulesPerBlock;

/// A run of `cells` over granules [lo, hi] whose raw cells are don't-care.
rsan::Run deferred_run(std::size_t lo, std::size_t hi, ShadowCell cell) {
  return rsan::Run{{cell}, static_cast<std::uint16_t>(lo), static_cast<std::uint16_t>(hi), true};
}

/// Make `run` the state of its granules.
void put(ShadowMemory& shadow, rsan::ShadowBlock& blk, const rsan::Run& run) {
  shadow.replace_runs(blk, run.lo, run.hi, &run, 1);
}

TEST(ShadowMemoryTest, FreshBlockIsAnEmptyWholeBlockRun) {
  ShadowMemory shadow{/*runs=*/true};
  const rsan::ShadowBlock* blk = shadow.block(0xB000);
  ASSERT_NE(blk, nullptr);
  ASSERT_EQ(blk->runs.size(), 1u);
  EXPECT_EQ(blk->runs[0].width(), kGranulesPerBlock);
  EXPECT_FALSE(blk->runs[0].deferred);  // the missing cell pages read empty already
  EXPECT_FALSE(shadow.load(0xB000 + 8 * kGranuleBytes)[0].valid());
  // Without runs a fresh block has none.
  ShadowMemory plain;
  EXPECT_EQ(plain.block(0xB000)->runs.size(), 0u);
}

TEST(ShadowMemoryTest, LoadReadsTheRunHoldingTheGranule) {
  ShadowMemory shadow{/*runs=*/true};
  rsan::ShadowBlock* blk = shadow.block(0xC000);
  put(shadow, *blk, deferred_run(4, 9, ShadowCell::make(2, 5, true)));
  shadow.replace_runs(*blk, 10, 10, nullptr, 0);  // granule 10 leaves the runs
  shadow.writable_cells(*blk, 10)[0] = ShadowCell::make(3, 6, false);
  EXPECT_EQ(shadow.load(0xC000 + 4 * kGranuleBytes)[0].clock(), 5u);
  EXPECT_EQ(shadow.load(0xC000 + 9 * kGranuleBytes + 7)[0].clock(), 5u);
  EXPECT_EQ(shadow.load(0xC000 + 10 * kGranuleBytes)[0].clock(), 6u);
  EXPECT_FALSE(shadow.load(0xC000 + 3 * kGranuleBytes)[0].valid());
  EXPECT_FALSE(shadow.load(0xC000 + 11 * kGranuleBytes)[0].valid());
}

TEST(ShadowMemoryTest, GranuleMaterializesAndDropsTheRuns) {
  ShadowMemory shadow{/*runs=*/true};
  rsan::ShadowBlock* blk = shadow.block(0xD000);
  put(shadow, *blk, deferred_run(0, kGranulesPerBlock - 1, ShadowCell::make(1, 3, true)));
  ShadowCell* cells = shadow.granule(0xD000 + 5 * kGranuleBytes);
  EXPECT_EQ(blk->runs.size(), 0u);
  EXPECT_EQ(cells[0].clock(), 3u);
  EXPECT_EQ(shadow.load(0xD000 + (kGranulesPerBlock - 1) * kGranuleBytes)[0].clock(), 3u);
}

TEST(ShadowMemoryTest, WholeBlockResetWritesNoCell) {
  ShadowMemory shadow{/*runs=*/true};
  rsan::ShadowBlock* blk = shadow.block(0xE000);
  put(shadow, *blk, deferred_run(0, kGranulesPerBlock - 1, ShadowCell::make(1, 4, true)));
  // Raw cells under a run are don't-care; a sentinel shows none is written.
  const ShadowCell sentinel = ShadowCell::make(7, 7, false);
  for (std::size_t g = 0; g < kGranulesPerBlock; ++g) {
    std::fill_n(shadow.writable_cells(*blk, g), kShadowSlots, sentinel);
  }
  shadow.reset_range(0xE000, kBlockAppBytes);
  for (std::size_t g = 0; g < kGranulesPerBlock; ++g) {
    for (std::size_t s = 0; s < kShadowSlots; ++s) {
      ASSERT_EQ(blk->cells(g)[s], sentinel) << "granule " << g << " slot " << s;
    }
  }
  ASSERT_EQ(blk->runs.size(), 1u);
  EXPECT_EQ(blk->runs[0].width(), kGranulesPerBlock);
  for (std::uintptr_t addr = 0xE000; addr < 0xE000 + kBlockAppBytes; addr += kGranuleBytes) {
    for (const ShadowCell cell : shadow.load(addr)) {
      ASSERT_FALSE(cell.valid());
    }
  }
}

TEST(ShadowMemoryTest, PartialResetWritesAnEmptyRun) {
  ShadowMemory shadow{/*runs=*/true};
  rsan::ShadowBlock* blk = shadow.block(0xF000);
  const ShadowCell cell = ShadowCell::make(1, 8, true);
  put(shadow, *blk, deferred_run(0, kGranulesPerBlock - 1, cell));
  shadow.reset_range(0xF000 + 10 * kGranuleBytes, 11 * kGranuleBytes);  // granules 10..20
  ASSERT_EQ(blk->runs.size(), 3u);
  EXPECT_EQ(blk->runs[1].lo, 10u);
  EXPECT_EQ(blk->runs[1].hi, 20u);
  for (std::size_t g = 0; g < kGranulesPerBlock; ++g) {
    const bool reset = g >= 10 && g <= 20;
    EXPECT_EQ(shadow.load(0xF000 + g * kGranuleBytes)[0].raw, reset ? 0 : cell.raw)
        << "granule " << g;
  }
  EXPECT_EQ(shadow.cell_pages(), 0u);  // the rest of the run is not materialized
}

TEST(ShadowMemoryTest, ResetOfARawGranuleKeepsTheRuns) {
  ShadowMemory shadow{/*runs=*/true};
  rsan::ShadowBlock* blk = shadow.block(0x11000);
  put(shadow, *blk, deferred_run(100, kGranulesPerBlock - 1, ShadowCell::make(1, 8, true)));
  shadow.replace_runs(*blk, 0, 99, nullptr, 0);  // granules 0..99 are raw
  shadow.writable_cells(*blk, 3)[0] = ShadowCell::make(2, 2, true);
  shadow.reset_range(0x11000 + 3 * kGranuleBytes, kGranuleBytes);
  ASSERT_EQ(blk->runs.size(), 2u);
  EXPECT_EQ(blk->runs[0].lo, 3u);
  EXPECT_EQ(blk->runs[0].hi, 3u);
  EXPECT_EQ(blk->runs[1].lo, 100u);
  EXPECT_FALSE(shadow.load(0x11000 + 3 * kGranuleBytes)[0].valid());
  EXPECT_EQ(shadow.load(0x11000 + 100 * kGranuleBytes)[0].clock(), 8u);
}

TEST(ShadowMemoryTest, AdjacentRunsWithEqualCellsCoalesce) {
  ShadowMemory shadow{/*runs=*/true};
  rsan::ShadowBlock* blk = shadow.block(0x12000);
  const ShadowCell cell = ShadowCell::make(1, 8, true);
  put(shadow, *blk, deferred_run(0, 99, cell));
  put(shadow, *blk, deferred_run(200, 299, cell));
  EXPECT_EQ(blk->runs.size(), 4u);
  put(shadow, *blk, deferred_run(100, 199, cell));
  ASSERT_EQ(blk->runs.size(), 2u);
  EXPECT_EQ(blk->runs[0].lo, 0u);
  EXPECT_EQ(blk->runs[0].hi, 299u);
  EXPECT_TRUE(blk->runs[0].deferred);
}

TEST(ShadowMemoryTest, ExceedingTheRunCapMaterializesTheNarrowestRun) {
  ShadowMemory shadow{/*runs=*/true};
  const std::uintptr_t base = 0x13000;
  rsan::ShadowBlock* blk = shadow.block(base);
  shadow.replace_runs(*blk, 0, kGranulesPerBlock - 1, nullptr, 0);  // all raw (and empty)
  EXPECT_EQ(blk->runs.size(), 0u);
  // kMaxRuns + 1 disjoint runs with distinct cells, evenly spaced; run 2 is
  // the narrowest.
  constexpr std::size_t kSpacing = kGranulesPerBlock / (rsan::kMaxRuns + 1);
  std::vector<std::uint64_t> expected(kGranulesPerBlock, 0);
  for (std::size_t k = 0; k <= rsan::kMaxRuns; ++k) {
    const std::size_t lo = k * kSpacing;
    const std::size_t hi = lo + (k == 2 ? 2 : 20 + k);
    const ShadowCell cell = ShadowCell::make(1, 10 + k, k % 2 == 0);
    const std::size_t before = blk->runs.size();
    put(shadow, *blk, deferred_run(lo, hi, cell));
    EXPECT_EQ(blk->runs.size(), std::min(before + 1, rsan::kMaxRuns)) << "run " << k;
    for (std::size_t g = lo; g <= hi; ++g) {
      expected[g] = cell.raw;
    }
  }
  // Run 2 left the list, and only it: its cells went to its raw granules.
  for (const rsan::Run& run : blk->runs) {
    EXPECT_NE(run.lo, 2 * kSpacing);
  }
  EXPECT_EQ(shadow.cell_pages(), 1u);
  EXPECT_EQ(blk->cells(2 * kSpacing + 1)[0].clock(), 12u);
  for (std::size_t g = 0; g < kGranulesPerBlock; ++g) {
    ASSERT_EQ(shadow.load(base + g * kGranuleBytes)[0].raw, expected[g]) << "granule " << g;
  }
}

// -- Block index ---------------------------------------------------------------

TEST(ShadowMemoryTest, IndexHandlesFarApartAddresses) {
  // Addresses >= 1 GiB apart and at the very bottom of the address space
  // resolve to distinct, persistent blocks.
  ShadowMemory shadow;
  const std::uintptr_t far_apart[] = {0x0, 0x40000000, 0x7f0000000000};
  int tag = 1;
  for (const std::uintptr_t addr : far_apart) {
    shadow.granule(addr)[0] = ShadowCell::make(1, static_cast<std::uint64_t>(tag++), true);
  }
  EXPECT_EQ(shadow.resident_blocks(), 3u);
  tag = 1;
  for (const std::uintptr_t addr : far_apart) {
    EXPECT_EQ(shadow.load(addr)[0].clock(), static_cast<std::uint64_t>(tag++));
  }
}

TEST(ShadowMemoryTest, KeysBeyond48BitsResolveLikeAnyOther) {
  // Keys past a 48-bit VA: granule addressing, reset and residency behave
  // exactly as for low addresses.
  if constexpr (sizeof(std::uintptr_t) < 8) {
    GTEST_SKIP() << "no addresses beyond 48 bits on 32-bit platforms";
  }
  ShadowMemory shadow;
  const std::uintptr_t high[] = {std::uintptr_t{1} << 50, std::uintptr_t{1} << 62,
                                 ~std::uintptr_t{0} - kBlockAppBytes + 1};
  std::uint64_t tag = 1;
  for (const std::uintptr_t addr : high) {
    shadow.granule(addr)[0] = ShadowCell::make(3, tag++, true);
  }
  EXPECT_EQ(shadow.resident_blocks(), 3u);
  tag = 1;
  for (const std::uintptr_t addr : high) {
    EXPECT_EQ(shadow.load(addr)[0].clock(), tag++);
  }
  EXPECT_FALSE(shadow.load(high[0] + kBlockAppBytes)[0].valid());
  EXPECT_EQ(shadow.resident_blocks(), 3u);
  shadow.reset_range(high[0], kGranuleBytes);
  EXPECT_FALSE(shadow.granule(high[0])[0].valid());
  EXPECT_EQ(shadow.load(high[1])[0].clock(), 2u);
}

TEST(ShadowMemoryTest, KeysWithCollidingLowBitsStayDistinct) {
  // Keys 2^28 apart agree in their low bits and in the bits the hash folds
  // in, so they share a home slot and form one long probe chain.
  if constexpr (sizeof(std::uintptr_t) < 8) {
    GTEST_SKIP() << "needs 64-bit addresses";
  }
  ShadowMemory shadow;
  constexpr std::size_t kKeys = 40;
  const auto addr_of = [](std::size_t i) {
    return (static_cast<std::uintptr_t>(i) << 28) * kBlockAppBytes + 8;
  };
  for (std::size_t i = 0; i < kKeys; ++i) {
    shadow.granule(addr_of(i))[0] = ShadowCell::make(1, i + 1, true);
  }
  EXPECT_EQ(shadow.resident_blocks(), kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(shadow.load(addr_of(i))[0].clock(), i + 1) << "key " << i;
  }
  // An absent key on the same chain reads empty and allocates nothing.
  EXPECT_EQ(shadow.block_if_present(addr_of(kKeys)), nullptr);
  EXPECT_FALSE(shadow.load(addr_of(kKeys))[0].valid());
  EXPECT_EQ(shadow.resident_blocks(), kKeys);
}

TEST(ShadowMemoryTest, BlocksKeepTheirAddressAcrossIndexGrowth) {
  // The index doubles several times; headers and raw cells never move, so a
  // cached block and granule pointers taken before stay valid.
  ShadowMemory shadow;
  const std::uintptr_t first = 0x100000;
  ShadowCell* const cells = shadow.granule(first);  // caches the block
  cells[0] = ShadowCell::make(1, 1, true);
  rsan::ShadowBlock* const blk = shadow.block(first);
  constexpr std::size_t kBlocks = 1000;
  for (std::size_t i = 1; i < kBlocks; ++i) {
    shadow.granule(first + i * kBlockAppBytes)[0] = ShadowCell::make(2, i, false);
    ASSERT_EQ(shadow.block_if_present(first), blk) << "after " << i << " blocks";
  }
  EXPECT_EQ(shadow.resident_blocks(), kBlocks);
  EXPECT_EQ(shadow.block(first), blk);
  EXPECT_EQ(shadow.block(first), blk);  // served from the cached block
  EXPECT_EQ(shadow.granule(first), cells);
  EXPECT_EQ(cells[0].clock(), 1u);
  for (std::size_t i = 1; i < kBlocks; ++i) {
    ASSERT_EQ(shadow.load(first + i * kBlockAppBytes)[0].clock(), i);
  }
}

TEST(ShadowMemoryTest, ClearThenReuse) {
  ShadowMemory shadow{/*runs=*/true};
  shadow.set_block_budget(100);
  for (std::size_t i = 0; i < 150; ++i) {
    (void)shadow.granule(0x200000 + i * kBlockAppBytes);
  }
  EXPECT_EQ(shadow.resident_blocks(), 100u);
  EXPECT_EQ(shadow.denied_blocks(), 50u);
  shadow.clear();
  EXPECT_EQ(shadow.resident_blocks(), 0u);
  EXPECT_EQ(shadow.resident_bytes(), 0u);
  EXPECT_EQ(shadow.denied_blocks(), 0u);
  EXPECT_EQ(shadow.block_if_present(0x200000), nullptr);
  // The same addresses come back as fresh blocks: one empty run, empty cells.
  for (std::size_t i = 0; i < 100; ++i) {
    const rsan::ShadowBlock* blk = shadow.block(0x200000 + i * kBlockAppBytes);
    ASSERT_NE(blk, nullptr);
    ASSERT_EQ(blk->runs.size(), 1u);
    ASSERT_EQ(blk->runs[0].width(), rsan::kGranulesPerBlock);
    ASSERT_FALSE(shadow.load(0x200000 + i * kBlockAppBytes)[0].valid());
  }
  EXPECT_EQ(shadow.resident_blocks(), 100u);
  EXPECT_EQ(shadow.block(0x200000 + 100 * kBlockAppBytes), nullptr);  // budget still holds
}

TEST(ShadowMemoryTest, CellPagesAreAllocatedOnlyWhereAGranuleIsWritten) {
  ShadowMemory shadow;
  const std::uintptr_t base = 0x300000;
  rsan::ShadowBlock* blk = shadow.block(base);
  ASSERT_NE(blk, nullptr);
  // Reads of unwritten granules see the shared empty granule: load() and the
  // raw-cell view a check-only scan reads allocate nothing.
  for (std::size_t g = 0; g < rsan::kGranulesPerBlock; ++g) {
    ASSERT_FALSE(shadow.load(base + g * kGranuleBytes)[0].valid());
    ASSERT_EQ(blk->cells(g), rsan::kEmptyGranule.data());
  }
  // Neither does a partial reset of unwritten granules.
  shadow.reset_range(base + 3 * kGranuleBytes, 300 * kGranuleBytes);
  EXPECT_EQ(shadow.cell_pages(), 0u);
  // A single granule write allocates exactly the one page that holds it.
  const std::size_t g = rsan::kGranulesPerCellPage + 5;
  shadow.writable_cells(*blk, g)[1] = ShadowCell::make(1, 2, true);
  EXPECT_EQ(shadow.cell_pages(), 1u);
  for (std::size_t p = 0; p < rsan::kCellPages; ++p) {
    EXPECT_EQ(blk->pages[p] != nullptr, p == 1) << "page " << p;
  }
  EXPECT_EQ(shadow.load(base + g * kGranuleBytes)[1].clock(), 2u);
  EXPECT_FALSE(shadow.load(base + (g + 1) * kGranuleBytes)[1].valid());  // zeroed page
  // Storing empty cells over a missing page allocates nothing either.
  shadow.reset_range(base, 2 * kGranuleBytes);
  EXPECT_EQ(shadow.cell_pages(), 1u);
  // clear() frees every page with its header (LeakSanitizer checks this).
  shadow.clear();
  EXPECT_EQ(shadow.cell_pages(), 0u);
}

TEST(ShadowMemoryTest, RunStoresAndResetsAllocateNoCellPage) {
  ShadowMemory shadow{/*runs=*/true};
  rsan::ShadowBlock* blk = shadow.block(0x310000);
  ASSERT_NE(blk, nullptr);
  put(shadow, *blk, deferred_run(0, kGranulesPerBlock - 1, ShadowCell::make(1, 2, true)));
  EXPECT_EQ(shadow.load(0x310000 + 7 * kGranuleBytes)[0].clock(), 2u);
  shadow.reset_range(0x310000 + 8 * kGranuleBytes, 3 * kGranuleBytes);  // a partial reset
  EXPECT_FALSE(shadow.load(0x310000 + 9 * kGranuleBytes)[0].valid());
  shadow.reset_range(0x310000, kBlockAppBytes);  // a whole-block reset
  EXPECT_FALSE(shadow.load(0x310000)[0].valid());
  EXPECT_EQ(shadow.cell_pages(), 0u);
}

}  // namespace
