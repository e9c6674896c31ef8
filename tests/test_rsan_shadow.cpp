// Unit tests for the shadow memory (lazy blocks, granule addressing, reset,
// uniform runs and their in-place edits, the block index and the raw-cell
// pages a block allocates on write).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.hpp"
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

TEST(ShadowMemoryTest, InPlaceRunStoresMatchReplaceRunsAndStayCanonical) {
  // Two run-keeping shadows take the same seeded edits. A store of one cell
  // inside one run goes through store_in_run on one and replace_runs on the
  // other; multi-run replacements (resets and scans, leaving raw gaps) go
  // through replace_runs on both. After every edit both run lists are
  // canonical and equal run for run, and every granule loads the same state.
  ShadowMemory in_place{/*runs=*/true};
  ShadowMemory replaced{/*runs=*/true};
  const std::uintptr_t base = 0x400000;
  constexpr std::size_t kBlocks = 3;
  // Cells vary in slots 0 and 1 over three values each, so that neighbours
  // one store apart, and equal neighbours, are common.
  const std::array<ShadowCell, 3> values = {ShadowCell{}, ShadowCell::make(1, 3, true),
                                            ShadowCell::make(2, 4, false)};
  common::SplitMix64 rng(20261019);
  const auto random_cells = [&] {
    return rsan::GranuleCells{values[rng.next_below(3)], values[rng.next_below(3)]};
  };
  std::size_t joins = 0;    // whole-run stores that joined a neighbour
  std::size_t splices = 0;  // edge stores that moved a boundary
  std::size_t splits = 0;   // stores that needed replace_runs
  for (std::size_t step = 0; step < 6000; ++step) {
    const std::uintptr_t addr = base + rng.next_below(kBlocks) * kBlockAppBytes;
    rsan::ShadowBlock& a = *in_place.block(addr);
    rsan::ShadowBlock& b = *replaced.block(addr);
    if (rng.next_below(4) != 0 && a.runs.size() > 0) {
      const std::size_t i = rng.next_below(a.runs.size());
      const rsan::Run run = a.runs[i];
      std::size_t lo = run.lo;
      std::size_t hi = run.hi;
      switch (rng.next_below(4)) {
        case 0:  // the whole run
          break;
        case 1:  // from its lo, as a rightward walk
          hi = lo + rng.next_below(run.width());
          break;
        case 2:  // to its hi, as a leftward walk
          lo = hi - rng.next_below(run.width());
          break;
        default:
          lo += rng.next_below(run.width());
          hi = lo + rng.next_below(run.hi - lo + 1u);
          break;
      }
      std::size_t slot = rng.next_below(2);
      ShadowCell cell = values[rng.next_below(values.size())];
      // Half the time the cell an adjacent neighbour holds in the one slot
      // it differs from the run in, if there is exactly one.
      const auto one_slot_apart = [&](const rsan::Run& other) {
        std::size_t differ = 0;
        for (std::size_t s = 0; s < kShadowSlots; ++s) {
          if (other.cells[s] != run.cells[s]) {
            ++differ;
            slot = s;
          }
        }
        return differ == 1;
      };
      if (rng.next_below(2) == 0 && i > 0 && a.runs[i - 1].hi + 1u == run.lo &&
          one_slot_apart(a.runs[i - 1])) {
        cell = a.runs[i - 1].cells[slot];
      } else if (rng.next_below(2) == 0 && i + 1 < a.runs.size() &&
                 run.hi + 1u == a.runs[i + 1].lo && one_slot_apart(a.runs[i + 1])) {
        cell = a.runs[i + 1].cells[slot];
      }
      if (cell == run.cells[slot]) {
        continue;  // the runtime never stores a cell a slot holds
      }
      const std::size_t before = a.runs.size();
      const bool whole = lo == run.lo && hi == run.hi;
      in_place.store_in_run(a, i, lo, hi, slot, cell);
      rsan::Run piece{run.cells, static_cast<std::uint16_t>(lo), static_cast<std::uint16_t>(hi),
                      true};
      piece.cells[slot] = cell;
      replaced.replace_runs(b, lo, hi, &piece, 1);
      if (a.runs.size() < before) {
        ++joins;
      } else if (a.runs.size() == before && !whole) {
        ++splices;
      } else if (a.runs.size() > before) {
        ++splits;
      }
    } else {
      // Up to three disjoint pieces inside [lo, hi]; what they leave out is raw.
      const std::size_t lo = rng.next_below(kGranulesPerBlock);
      const std::size_t hi = lo + rng.next_below(std::min<std::size_t>(kGranulesPerBlock - lo, 64));
      std::vector<rsan::Run> pieces;
      for (std::size_t g = lo; g <= hi && pieces.size() < 3;) {
        const std::size_t p_lo = g + rng.next_below(hi - g + 1);
        const std::size_t p_hi = p_lo + rng.next_below(hi - p_lo + 1);
        pieces.push_back(rsan::Run{random_cells(), static_cast<std::uint16_t>(p_lo),
                                   static_cast<std::uint16_t>(p_hi), true});
        g = p_hi + 2;  // a gap, so the pieces stay disjoint and unjoined
      }
      in_place.replace_runs(a, lo, hi, pieces.data(), pieces.size());
      replaced.replace_runs(b, lo, hi, pieces.data(), pieces.size());
    }
    ASSERT_TRUE(a.runs.canonical()) << "step " << step;
    ASSERT_TRUE(b.runs.canonical()) << "step " << step;
    ASSERT_EQ(a.runs.size(), b.runs.size()) << "step " << step;
    for (std::size_t k = 0; k < a.runs.size(); ++k) {
      ASSERT_EQ(a.runs[k].lo, b.runs[k].lo) << "step " << step << " run " << k;
      ASSERT_EQ(a.runs[k].hi, b.runs[k].hi) << "step " << step << " run " << k;
      ASSERT_EQ(a.runs[k].cells, b.runs[k].cells) << "step " << step << " run " << k;
      ASSERT_EQ(a.runs[k].deferred, b.runs[k].deferred) << "step " << step << " run " << k;
    }
    const std::uintptr_t block_base = addr - addr % kBlockAppBytes;
    for (std::size_t g = 0; g < kGranulesPerBlock; ++g) {
      ASSERT_EQ(in_place.load(block_base + g * kGranuleBytes),
                replaced.load(block_base + g * kGranuleBytes))
          << "step " << step << " granule " << g;
    }
  }
  EXPECT_GT(joins, 0u);
  EXPECT_GT(splices, 0u);
  EXPECT_GT(splits, 0u);
}

TEST(ShadowMemoryTest, WholeRunStoreJoinsEqualNeighbours) {
  // A whole-run store that makes a run equal to both neighbours leaves one
  // run, spilled runs moving back inline once they fit.
  ShadowMemory shadow{/*runs=*/true};
  rsan::ShadowBlock* blk = shadow.block(0x500000);
  const ShadowCell held = ShadowCell::make(1, 2, true);
  const ShadowCell other = ShadowCell::make(2, 3, true);
  put(shadow, *blk, deferred_run(0, 9, held));
  put(shadow, *blk, deferred_run(10, 19, other));
  put(shadow, *blk, deferred_run(20, kGranulesPerBlock - 1, held));
  ASSERT_EQ(blk->runs.size(), 3u);
  shadow.store_in_run(*blk, 1, 10, 19, 0, held);
  ASSERT_EQ(blk->runs.size(), 1u);
  EXPECT_EQ(blk->runs[0].lo, 0u);
  EXPECT_EQ(blk->runs[0].hi, kGranulesPerBlock - 1);
  EXPECT_EQ(blk->runs[0].cells[0], held);
  EXPECT_TRUE(blk->runs[0].deferred);
}

TEST(ShadowMemoryTest, EdgeStoreMovesTheBoundaryToAnEqualNeighbour) {
  ShadowMemory shadow{/*runs=*/true};
  rsan::ShadowBlock* blk = shadow.block(0x510000);
  const ShadowCell read = ShadowCell::make(1, 2, false);
  put(shadow, *blk, deferred_run(0, 4, read));  // the granules a walk has read
  ASSERT_EQ(blk->runs.size(), 2u);
  // The walk's next read, at the lo of the run after it, is a boundary move.
  shadow.store_in_run(*blk, 1, 5, 5, 0, read);
  ASSERT_EQ(blk->runs.size(), 2u);
  EXPECT_EQ(blk->runs[0].hi, 5u);
  EXPECT_EQ(blk->runs[1].lo, 6u);
  // And from the other side, at the hi of the run before it.
  shadow.store_in_run(*blk, 0, 5, 5, 0, ShadowCell{});
  EXPECT_EQ(blk->runs[0].hi, 4u);
  EXPECT_EQ(blk->runs[1].lo, 5u);
  EXPECT_FALSE(shadow.load(0x510000 + 5 * kGranuleBytes)[0].valid());
  EXPECT_EQ(shadow.load(0x510000 + 4 * kGranuleBytes)[0], read);
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
