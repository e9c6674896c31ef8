// Shadow memory for memory-access tracking, modelled after ThreadSanitizer:
// application memory is tracked at 8-byte granularity; each granule owns a
// small fixed number of shadow cells recording the most recent accesses as
// (context, epoch, access-kind) triples packed into 64 bits.
//
// Shadow blocks cover 4 KiB of application memory and are kept in a flat
// two-level direct-map table: an L1 directory indexed by the high bits of
// the block key points at lazily allocated L2 pages of block pointers, so a
// granule lookup is two indexed loads with no hashing. Blocks themselves are
// still allocated lazily on first touch, so reserved shadow stays
// proportional to the amount of memory actually tracked — the property
// behind the paper's Fig. 11/12 observations. Addresses beyond the
// direct-mapped VA range (48 bits) fall back to a hashed overflow map so
// correctness never depends on the platform's address layout.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rsan/clock.hpp"

namespace rsan {

/// One shadow cell packed into 64 bits:
///   [63]    valid
///   [62]    is_write
///   [61:42] context id (20 bits)
///   [41:0]  epoch / clock value (42 bits)
struct ShadowCell {
  std::uint64_t raw{0};

  static constexpr std::uint64_t kValidBit = 1ULL << 63;
  static constexpr std::uint64_t kWriteBit = 1ULL << 62;
  static constexpr int kCtxShift = 42;
  static constexpr std::uint64_t kCtxMask = (1ULL << 20) - 1;
  static constexpr std::uint64_t kClockMask = (1ULL << 42) - 1;

  [[nodiscard]] static ShadowCell make(CtxId ctx, std::uint64_t clock, bool is_write) {
    ShadowCell cell;
    cell.raw = kValidBit | (is_write ? kWriteBit : 0) |
               ((static_cast<std::uint64_t>(ctx) & kCtxMask) << kCtxShift) | (clock & kClockMask);
    return cell;
  }

  [[nodiscard]] bool valid() const { return (raw & kValidBit) != 0; }
  [[nodiscard]] bool is_write() const { return (raw & kWriteBit) != 0; }
  [[nodiscard]] CtxId ctx() const { return static_cast<CtxId>((raw >> kCtxShift) & kCtxMask); }
  [[nodiscard]] std::uint64_t clock() const { return raw & kClockMask; }
};

/// Number of shadow cells per 8-byte granule (ThreadSanitizer uses 4).
inline constexpr std::size_t kShadowSlots = 4;
/// Application bytes per granule.
inline constexpr std::size_t kGranuleBytes = 8;
/// Application bytes covered by one shadow block.
inline constexpr std::size_t kBlockAppBytes = 4096;
inline constexpr std::size_t kGranulesPerBlock = kBlockAppBytes / kGranuleBytes;

/// Two-level table geometry: 48 bits of direct-mapped VA split into a block
/// offset (12 bits), an L2 page index and an L1 directory index.
inline constexpr unsigned kShadowL1Bits = 18;
inline constexpr unsigned kShadowL2Bits = 18;
inline constexpr std::uintptr_t kDirectMappedBlockKeys =
    std::uintptr_t{1} << (kShadowL1Bits + kShadowL2Bits);

/// Per-block uniform summary, maintained by the runtime's shadow fast path
/// (see rsan::Runtime::access_range). For granules in [lo, hi] the summary's
/// cells ARE the shadow state: once a store went to the summary alone
/// (`deferred`), the raw per-granule cells there are don't-care until the
/// span shrinks, and only then are the dropped granules materialized
/// (ShadowBlock::materialize). One representative scan of the summary
/// decides a whole segment inside the span. `lo > hi` means "no summary";
/// summaries exist only in a ShadowMemory built with summaries on.
struct BlockSummary {
  std::array<ShadowCell, kShadowSlots> cells{};  ///< contents of every granule in [lo, hi]
  std::uint16_t lo{1};                           ///< first granule index covered
  std::uint16_t hi{0};                           ///< last granule index covered
  /// Raw cells in [lo, hi] may differ from `cells`. False when they were
  /// just written by a scan, or are the mapped-zero cells of a fresh block.
  bool deferred{false};

  [[nodiscard]] bool covers(std::size_t g_lo, std::size_t g_hi) const {
    return lo <= g_lo && g_hi <= hi;
  }
  [[nodiscard]] bool overlaps(std::size_t g_lo, std::size_t g_hi) const {
    return lo <= hi && lo <= g_hi && g_lo <= hi;
  }
  void invalidate() {
    lo = 1;
    hi = 0;
  }
  /// Empty cells over the whole block: the state of a freed block, whose
  /// raw cells may still hold old epochs.
  void reset_whole_block() {
    cells = {};
    lo = 0;
    hi = kGranulesPerBlock - 1;
    deferred = true;
  }
};

struct ShadowBlock {
  // cells[granule * kShadowSlots + slot]
  std::array<ShadowCell, kGranulesPerBlock * kShadowSlots> cells{};
  BlockSummary summary{};

  /// Write `pattern` into the raw cells of granules [lo, hi], storing only
  /// the cells that differ: empty cells over demand-zero slab pages then
  /// fault no page in.
  void store_cells(std::size_t lo, std::size_t hi,
                   const std::array<ShadowCell, kShadowSlots>& pattern) {
    for (std::size_t g = lo; g <= hi; ++g) {
      for (std::size_t s = 0; s < kShadowSlots; ++s) {
        ShadowCell& cell = cells[g * kShadowSlots + s];
        if (cell.raw != pattern[s].raw) {
          cell = pattern[s];
        }
      }
    }
  }
  /// Granules [lo, hi] (inside the summary span) are about to leave the
  /// summary: give them the summary's cells as their raw state. An empty
  /// lo > hi range stores nothing.
  void materialize(std::size_t lo, std::size_t hi) {
    if (summary.deferred) {
      store_cells(lo, hi, summary.cells);
    }
  }
};

class ShadowMemory {
 public:
  /// With `summaries` on (the runtime's shadow fast path) a fresh block, and
  /// a block a reset covers whole, is one empty whole-block summary instead
  /// of 16 KiB of written cells.
  explicit ShadowMemory(bool summaries = false) : summaries_(summaries) {}
  ~ShadowMemory() { clear(); }
  ShadowMemory(const ShadowMemory&) = delete;
  ShadowMemory& operator=(const ShadowMemory&) = delete;

  /// Shadow block covering `addr`; allocates on first touch. Returns nullptr
  /// when a block budget is set and exhausted (the caller degrades tracking
  /// for the address instead of aborting; see Runtime::access_range).
  [[nodiscard]] ShadowBlock* block(std::uintptr_t addr) {
    const std::uintptr_t key = addr / kBlockAppBytes;
    if (key == cached_key_ && cached_block_ != nullptr) {
      return cached_block_;
    }
    ShadowBlock* blk = lookup_or_create(key);
    if (blk != nullptr) {
      cached_key_ = key;
      cached_block_ = blk;
    }
    return blk;
  }

  /// Shadow block covering `addr`, or nullptr if never touched.
  [[nodiscard]] const ShadowBlock* block_if_present(std::uintptr_t addr) const {
    return find(addr / kBlockAppBytes);
  }

  /// Raw shadow cells for the granule containing `addr`; allocates the block
  /// on first touch. Returned pointer is to kShadowSlots consecutive cells
  /// (nullptr when the block budget is exhausted). The block's summary is
  /// materialized and dropped first, so the raw cells are the whole state.
  [[nodiscard]] ShadowCell* granule(std::uintptr_t addr) {
    ShadowBlock* blk = block(addr);
    if (blk == nullptr) {
      return nullptr;
    }
    blk->materialize(blk->summary.lo, blk->summary.hi);
    blk->summary.invalidate();
    const std::size_t granule_idx = (addr % kBlockAppBytes) / kGranuleBytes;
    return blk->cells.data() + granule_idx * kShadowSlots;
  }

  /// Shadow state of the granule containing `addr`: the summary's cells
  /// inside a summarized span, the raw cells elsewhere, all-invalid if the
  /// block was never touched (read-only; does not allocate).
  [[nodiscard]] std::array<ShadowCell, kShadowSlots> load(std::uintptr_t addr) const {
    const ShadowBlock* blk = find(addr / kBlockAppBytes);
    if (blk == nullptr) {
      return {};
    }
    const std::size_t granule_idx = (addr % kBlockAppBytes) / kGranuleBytes;
    if (blk->summary.covers(granule_idx, granule_idx)) {
      return blk->summary.cells;
    }
    std::array<ShadowCell, kShadowSlots> out;
    std::copy_n(blk->cells.data() + granule_idx * kShadowSlots, kShadowSlots, out.begin());
    return out;
  }

  /// Drop all shadow state for [base, base+extent) — used when memory is
  /// freed so stale epochs cannot produce false races on reuse. Only clears
  /// blocks that exist; granules partially overlapped by the range edges are
  /// cleared whole, matching the tracking granularity. With summaries on, a
  /// segment covering a whole block resets only its summary; a partial
  /// segment materializes the rest of the summary span and drops it.
  void reset_range(std::uintptr_t base, std::size_t extent);

  [[nodiscard]] std::size_t resident_blocks() const { return block_count_; }
  /// Reserved shadow bytes (blocks × block size). What the shadow adds to
  /// RSS can be lower: a block whose granules stay summarized never writes
  /// its raw cells, so their demand-zero slab pages are never faulted in.
  [[nodiscard]] std::size_t resident_bytes() const { return block_count_ * sizeof(ShadowBlock); }

  /// Cap the number of resident shadow blocks (0 = unlimited). When the cap
  /// is hit, first-touch lookups return nullptr instead of allocating —
  /// tracking degrades, the process does not die (CUSAN_SHADOW_MAX_MB).
  void set_block_budget(std::size_t blocks) { block_budget_ = blocks; }
  [[nodiscard]] std::size_t block_budget() const { return block_budget_; }
  /// First-touch lookups denied by the budget since the last clear().
  [[nodiscard]] std::uint64_t denied_blocks() const { return denied_blocks_; }

  void clear();

 private:
  [[nodiscard]] ShadowBlock* lookup_or_create(std::uintptr_t key);
  [[nodiscard]] ShadowBlock* find(std::uintptr_t key);
  [[nodiscard]] const ShadowBlock* find(std::uintptr_t key) const;

  /// Blocks are carved from mmap'd slabs of this many blocks (~1 MiB), so a
  /// fresh block is demand-zero kernel pages, not a 16 KiB memset — and only
  /// the cells actually written ever get faulted in.
  static constexpr std::size_t kBlocksPerSlab = 64;

  [[nodiscard]] ShadowBlock* allocate_block();
  /// Fresh-block state: an empty whole-block summary when summaries are on,
  /// no summary otherwise.
  void init_summary(ShadowBlock& blk) const;

  /// L1 directory (2^kShadowL1Bits L2-page pointers), L2 pages
  /// (2^kShadowL2Bits block pointers) and block slabs come straight from
  /// anonymous mmap, NOT malloc/calloc: a fresh 2 MiB table is zero pages the
  /// kernel faults in on demand, with no eager memset, and teardown munmaps
  /// `pages_`/`slabs_` instead of scanning every slot. (calloc is not enough:
  /// glibc's mmap threshold slides up when a large chunk is freed, so from
  /// the second runtime in a process onward calloc recycles heap memory and
  /// memsets the full table.) Both construction and destruction therefore
  /// cost O(resident blocks), not O(table size) — what lets a session
  /// executor cycle thousands of short-lived runtimes per process without
  /// paying megabytes of memset each.
  ShadowBlock*** l1_{nullptr};
  std::vector<ShadowBlock**> pages_;  ///< mmap'd L2 pages (teardown)
  std::vector<ShadowBlock*> slabs_;   ///< mmap'd block slabs (teardown)
  std::size_t slab_used_{kBlocksPerSlab};  ///< blocks carved from slabs_.back()
  /// Blocks whose key exceeds the direct-mapped range (exotic address
  /// layouts only; empty on mainstream 48-bit-VA platforms).
  std::unordered_map<std::uintptr_t, std::unique_ptr<ShadowBlock>> overflow_;
  bool summaries_{false};
  std::size_t block_count_{0};
  std::size_t block_budget_{0};
  std::uint64_t denied_blocks_{0};
  std::uintptr_t cached_key_{~std::uintptr_t{0}};
  ShadowBlock* cached_block_{nullptr};
};

}  // namespace rsan
