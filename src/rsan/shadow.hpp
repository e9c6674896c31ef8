// Shadow memory for memory-access tracking, modelled after ThreadSanitizer:
// application memory is tracked at 8-byte granularity; each granule owns a
// small fixed number of shadow cells recording the most recent accesses as
// (context, epoch, access-kind) triples packed into 64 bits.
//
// A shadow block covers 4 KiB of application memory. Its header (the block
// summary and four cell-page pointers) sits in a per-slab header array, and
// one open-addressing index maps block keys to headers. The block's 16 KiB
// of raw cells are four 4 KiB heap pages, each allocated and zeroed on the
// first write to one of its granules; a missing page reads as empty cells.
// A fresh or whole-block-reset block is its summary alone, so a block whose
// granules stay summarized owns no cell page. Reserved shadow and
// setup/teardown cost thus stay proportional to the memory actually tracked
// (paper Fig. 11/12).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
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
  [[nodiscard]] bool operator==(const ShadowCell&) const = default;
};

/// Number of shadow cells per 8-byte granule (ThreadSanitizer uses 4).
inline constexpr std::size_t kShadowSlots = 4;
/// Application bytes per granule.
inline constexpr std::size_t kGranuleBytes = 8;
/// Application bytes covered by one shadow block.
inline constexpr std::size_t kBlockAppBytes = 4096;
inline constexpr std::size_t kGranulesPerBlock = kBlockAppBytes / kGranuleBytes;
inline constexpr std::size_t kBlockCells = kGranulesPerBlock * kShadowSlots;
/// Raw cells are allocated in 4 KiB pages, kCellPages to a block.
inline constexpr std::size_t kCellsPerPage = 4096 / sizeof(ShadowCell);
inline constexpr std::size_t kGranulesPerCellPage = kCellsPerPage / kShadowSlots;
inline constexpr std::size_t kCellPages = kBlockCells / kCellsPerPage;

/// The cells of one granule.
using GranuleCells = std::array<ShadowCell, kShadowSlots>;
/// What every granule on a missing cell page reads as: shared, read-only
/// and empty.
inline constexpr GranuleCells kEmptyGranule{};

/// Per-block uniform summary, maintained by the runtime's shadow fast path
/// (see rsan::Runtime::access_range). For granules in [lo, hi] the summary's
/// cells ARE the shadow state: once a store went to the summary alone
/// (`deferred`), the raw per-granule cells there are don't-care until the
/// span shrinks, and only then are the dropped granules materialized
/// (ShadowMemory::materialize). One representative scan of the summary
/// decides a whole segment inside the span. `lo > hi` means "no summary";
/// summaries exist only in a ShadowMemory built with summaries on.
struct BlockSummary {
  GranuleCells cells{};     ///< contents of every granule in [lo, hi]
  std::uint16_t lo{1};      ///< first granule index covered
  std::uint16_t hi{0};      ///< last granule index covered
  /// Raw cells in [lo, hi] may differ from `cells`. False when they were
  /// just written by a scan, or are the missing (empty) pages of a fresh
  /// block.
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

/// A block's header: its summary and its raw cells, which live apart in
/// pages allocated on first write, so writing the summary allocates nothing.
struct ShadowBlock {
  BlockSummary summary{};
  /// Raw cells, kGranulesPerCellPage granules to a page. A null page holds
  /// only empty cells.
  std::array<std::unique_ptr<ShadowCell[]>, kCellPages> pages;

  /// The raw cells of granule `g` (read-only; a granule on a missing page
  /// reads as kEmptyGranule).
  [[nodiscard]] const ShadowCell* cells(std::size_t g) const {
    const ShadowCell* page = pages[g / kGranulesPerCellPage].get();
    return page == nullptr ? kEmptyGranule.data()
                           : page + (g % kGranulesPerCellPage) * kShadowSlots;
  }
};

/// What one resident block costs when all its cells are written: its header
/// plus its raw cells. The block budget and resident_bytes() count in these
/// units.
inline constexpr std::size_t kShadowBlockBytes =
    sizeof(ShadowBlock) + sizeof(ShadowCell) * kBlockCells;

class ShadowMemory {
 public:
  /// With `summaries` on (the runtime's shadow fast path) a fresh block, and
  /// a block a reset covers whole, is one empty whole-block summary instead
  /// of 16 KiB of written cells.
  explicit ShadowMemory(bool summaries = false) : summaries_(summaries) {}
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
    materialize(*blk, blk->summary.lo, blk->summary.hi);
    blk->summary.invalidate();
    return writable_cells(*blk, (addr % kBlockAppBytes) / kGranuleBytes);
  }

  /// Writable raw cells of granule `g` of `blk`: allocates and zeroes the
  /// granule's cell page on its first write.
  [[nodiscard]] ShadowCell* writable_cells(ShadowBlock& blk, std::size_t g) {
    std::unique_ptr<ShadowCell[]>& page = blk.pages[g / kGranulesPerCellPage];
    if (page == nullptr) {
      page = std::make_unique<ShadowCell[]>(kCellsPerPage);
      ++cell_pages_;
    }
    return page.get() + (g % kGranulesPerCellPage) * kShadowSlots;
  }

  /// Granules [lo, hi] of `blk` (inside the summary span) are about to leave
  /// the summary: give them the summary's cells as their raw state. An empty
  /// lo > hi range stores nothing.
  void materialize(ShadowBlock& blk, std::size_t lo, std::size_t hi) {
    if (blk.summary.deferred) {
      store_cells(blk, lo, hi, blk.summary.cells);
    }
  }

  /// Shadow state of the granule containing `addr`: the summary's cells
  /// inside a summarized span, the raw cells elsewhere, all-invalid if the
  /// block was never touched (read-only; does not allocate).
  [[nodiscard]] GranuleCells load(std::uintptr_t addr) const {
    const ShadowBlock* blk = find(addr / kBlockAppBytes);
    if (blk == nullptr) {
      return {};
    }
    const std::size_t granule_idx = (addr % kBlockAppBytes) / kGranuleBytes;
    if (blk->summary.covers(granule_idx, granule_idx)) {
      return blk->summary.cells;
    }
    GranuleCells out;
    std::copy_n(blk->cells(granule_idx), kShadowSlots, out.begin());
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
  /// Reserved shadow bytes (blocks × kShadowBlockBytes). What the shadow
  /// adds to RSS can be lower: a block whose granules stay summarized never
  /// writes its raw cells, so it owns no cell page.
  [[nodiscard]] std::size_t resident_bytes() const { return block_count_ * kShadowBlockBytes; }
  /// Cell pages allocated since the last clear() (all still held).
  [[nodiscard]] std::size_t cell_pages() const { return cell_pages_; }

  /// Cap the number of resident shadow blocks (0 = unlimited). When the cap
  /// is hit, first-touch lookups return nullptr instead of allocating —
  /// tracking degrades, the process does not die (CUSAN_SHADOW_MAX_MB).
  void set_block_budget(std::size_t blocks) { block_budget_ = blocks; }
  [[nodiscard]] std::size_t block_budget() const { return block_budget_; }
  /// First-touch lookups denied by the budget since the last clear().
  [[nodiscard]] std::uint64_t denied_blocks() const { return denied_blocks_; }

  void clear();

 private:
  /// One index slot; `blk == nullptr` marks it empty.
  struct Slot {
    std::uintptr_t key{0};
    ShadowBlock* blk{nullptr};
  };
  static constexpr std::size_t kBlocksPerSlab = 64;
  static constexpr std::size_t kMinIndexSlots = 64;

  [[nodiscard]] ShadowBlock* lookup_or_create(std::uintptr_t key);
  [[nodiscard]] ShadowBlock* find(std::uintptr_t key);
  [[nodiscard]] const ShadowBlock* find(std::uintptr_t key) const;
  /// Home slot of `key`. Inside one aligned 4 GiB region `key >> 20` is a
  /// constant, so a dense range of up to index_.size() blocks there lands
  /// in distinct slots.
  [[nodiscard]] std::size_t home(std::uintptr_t key) const {
    return (key ^ (key >> 20)) & (index_.size() - 1);
  }
  void insert(std::uintptr_t key, ShadowBlock* blk);
  /// Give granules [lo, hi] of `blk` the raw cells `pattern`. A granule that
  /// already holds them is not written, so storing empty cells over a
  /// missing page allocates nothing.
  void store_cells(ShadowBlock& blk, std::size_t lo, std::size_t hi, const GranuleCells& pattern);

  /// Linear probing over a power-of-two table at load <= 1/2, doubled when
  /// a new block would pass that load.
  std::vector<Slot> index_;
  /// Block headers, kBlocksPerSlab to an array reserved up front so header
  /// addresses never move.
  std::vector<std::vector<ShadowBlock>> slabs_;
  bool summaries_{false};
  std::size_t block_count_{0};
  std::size_t cell_pages_{0};
  std::size_t block_budget_{0};
  std::uint64_t denied_blocks_{0};
  std::uintptr_t cached_key_{~std::uintptr_t{0}};
  ShadowBlock* cached_block_{nullptr};
};

}  // namespace rsan
