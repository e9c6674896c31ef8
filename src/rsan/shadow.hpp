// Shadow memory for memory-access tracking, modelled after ThreadSanitizer:
// application memory is tracked at 8-byte granularity; each granule owns a
// small fixed number of shadow cells recording the most recent accesses as
// (context, epoch, access-kind) triples packed into 64 bits.
//
// A shadow block covers 4 KiB of application memory. Its header (a short
// list of uniform runs and four cell-page pointers) sits in a per-slab header
// array, and one open-addressing index maps block keys to headers. The
// block's 16 KiB of raw cells are four 4 KiB heap pages, each allocated and
// zeroed on the first write to one of its granules; a missing page reads as
// empty cells. A fresh or whole-block-reset block is one empty run, so a
// block whose granules stay in runs owns no cell page. Reserved shadow and
// setup/teardown cost thus stay proportional to the memory actually tracked
// (paper Fig. 11/12).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.hpp"
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

/// Uniform runs one block holds at most; past the cap the narrowest run is
/// materialized to raw cells (ShadowMemory::replace_runs). Where an
/// allocator packs small buffers into one block, a block needs up to twelve:
/// in TeaLeaf, a host staging vector (its memcpy-written edge rows, the rows
/// a walking read has passed and those it has not), a partial-sum array and
/// the gaps between them.
inline constexpr std::size_t kMaxRuns = 12;

/// A uniform run of a block, maintained by the runtime's shadow fast path
/// (see rsan::Runtime::access_range): every granule in [lo, hi] holds
/// `cells`, and those cells ARE the shadow state there. The raw cells under
/// a run are don't-care; `deferred` says they may differ from `cells`
/// (a store went to the run alone), so the run writes them when it leaves
/// the list. Granules outside every run keep their state in the raw cells.
struct Run {
  GranuleCells cells{};
  std::uint16_t lo{};
  std::uint16_t hi{};
  bool deferred{false};

  [[nodiscard]] std::size_t width() const { return hi - lo + 1; }
};

/// A block's uniform runs, in the canonical form every edit keeps: sorted by
/// `lo`, disjoint, no two adjacent runs (one's `hi` + 1 the next one's `lo`)
/// with equal cells, at most kMaxRuns. Empty when the ShadowMemory keeps no
/// runs (the reference scan). Up to kInlineRuns runs live in the header; a
/// block that needs more moves them to a kMaxRuns array allocated on first
/// need and kept, so a header stays small.
class RunList {
 public:
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] const Run* begin() const {
    return count_ > kInlineRuns ? spill_.get() : inline_.data();
  }
  [[nodiscard]] const Run* end() const { return begin() + count_; }
  [[nodiscard]] const Run& operator[](std::size_t i) const { return begin()[i]; }
  /// The run holding granule `g`, or nullptr.
  [[nodiscard]] const Run* find(std::size_t g) const {
    for (const Run& run : *this) {
      if (g <= run.hi) {
        return g >= run.lo ? &run : nullptr;
      }
    }
    return nullptr;
  }
  /// Index of the first run ending at or after granule `g` (size() if none).
  [[nodiscard]] std::size_t first_from(std::size_t g) const {
    const Run* runs = begin();
    std::size_t i = 0;
    while (i < count_ && runs[i].hi < g) {
      ++i;
    }
    return i;
  }
  /// Whether the list is in canonical form (see the class comment).
  [[nodiscard]] bool canonical() const {
    const Run* runs = begin();
    for (std::size_t k = 0; k < count_; ++k) {
      if (runs[k].lo > runs[k].hi || runs[k].hi >= kGranulesPerBlock) {
        return false;
      }
      if (k > 0 && (runs[k - 1].hi >= runs[k].lo ||
                    (runs[k - 1].hi + 1u == runs[k].lo && runs[k - 1].cells == runs[k].cells))) {
        return false;
      }
    }
    return count_ <= kMaxRuns;
  }
  void assign(const Run* runs, std::size_t n) {
    Run* dst = inline_.data();
    if (n > kInlineRuns) {
      if (spill_ == nullptr) {
        spill_ = std::make_unique<Run[]>(kMaxRuns);
      }
      dst = spill_.get();
    }
    std::copy_n(runs, n, dst);
    count_ = static_cast<std::uint8_t>(n);
  }
  /// Store `cell` into slot `slot` of granules [lo, hi], which lie inside
  /// run `i` (the cell is new to that slot), in place where that adds no
  /// run: [lo, hi] is the whole run, or it starts (ends) the run and the
  /// adjacent run before (after) it holds the resulting cells. The piece
  /// joins each adjacent run with equal cells, so the list comes out as
  /// ShadowMemory::replace_runs would make it. Returns false, changing
  /// nothing, when the piece needs a run of its own.
  bool try_store(std::size_t i, std::size_t lo, std::size_t hi, std::size_t slot,
                 ShadowCell cell) {
    Run* runs = data();
    // Whether `other` holds run i's cells with `cell` in `slot` (compared
    // slot by slot: no copy of the cells is built).
    const auto holds_result = [&](const Run& other) {
      for (std::size_t s = 0; s < kShadowSlots; ++s) {
        if (other.cells[s] != (s == slot ? cell : runs[i].cells[s])) {
          return false;
        }
      }
      return true;
    };
    const bool at_lo = lo == runs[i].lo;
    const bool at_hi = hi == runs[i].hi;
    const bool joins_prev =
        at_lo && i > 0 && runs[i - 1].hi + 1u == lo && holds_result(runs[i - 1]);
    const bool joins_next =
        at_hi && i + 1 < count_ && hi + 1 == runs[i + 1].lo && holds_result(runs[i + 1]);
    if (joins_prev || joins_next) {
      join(i, lo, hi, joins_prev, joins_next);
    } else if (at_lo && at_hi) {
      runs[i].cells[slot] = cell;
      runs[i].deferred = true;
    } else {
      return false;
    }
    return true;
  }
  void clear() { count_ = 0; }

 private:
  static constexpr std::size_t kInlineRuns = 2;

  [[nodiscard]] Run* data() { return count_ > kInlineRuns ? spill_.get() : inline_.data(); }
  /// try_store's joins: granules [lo, hi] of run `i` go to the adjacent run
  /// before it (`to_prev`), after it (`to_next`) or both, which hold their
  /// new cells already. When they are the whole run, run `i` leaves the list.
  void join(std::size_t i, std::size_t lo, std::size_t hi, bool to_prev, bool to_next);
  /// Drop runs [pos, pos + n), moving the rest back inline when they fit.
  void erase(std::size_t pos, std::size_t n);

  std::uint8_t count_{0};  // first, so it shares a cache line with the first run
  std::array<Run, kInlineRuns> inline_{};
  std::unique_ptr<Run[]> spill_;
};

/// A block's header: its runs and its raw cells, which live apart in pages
/// allocated on first write, so storing into a run allocates nothing.
struct ShadowBlock {
  RunList runs;
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
  /// With `runs` on (the runtime's shadow fast path) a fresh block is one
  /// empty whole-block run instead of 16 KiB of written cells, and a reset
  /// writes an empty run.
  explicit ShadowMemory(bool runs = false) : runs_(runs) {}
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
  /// (nullptr when the block budget is exhausted). The block's runs are
  /// materialized and dropped first, so the raw cells are the whole state.
  [[nodiscard]] ShadowCell* granule(std::uintptr_t addr) {
    ShadowBlock* blk = block(addr);
    if (blk == nullptr) {
      return nullptr;
    }
    for (const Run& run : blk->runs) {
      materialize(*blk, run);
    }
    blk->runs.clear();
    return writable_cells(*blk, (addr % kBlockAppBytes) / kGranuleBytes);
  }

  /// Writable raw cells of cell page `p` of `blk`: allocates and zeroes the
  /// page on its first write.
  [[nodiscard]] ShadowCell* writable_page(ShadowBlock& blk, std::size_t p) {
    std::unique_ptr<ShadowCell[]>& page = blk.pages[p];
    if (page == nullptr) {
      page = std::make_unique<ShadowCell[]>(kCellsPerPage);
      ++cell_pages_;
    }
    return page.get();
  }

  /// Writable raw cells of granule `g` of `blk` (allocates its page).
  [[nodiscard]] ShadowCell* writable_cells(ShadowBlock& blk, std::size_t g) {
    return writable_page(blk, g / kGranulesPerCellPage) +
           (g % kGranulesPerCellPage) * kShadowSlots;
  }

  /// Make `runs` (sorted, disjoint, inside [lo, hi]) the uniform runs of
  /// granules [lo, hi] of `blk`; the granules of [lo, hi] they leave out
  /// hold their state in the raw cells. Runs outside [lo, hi] keep their
  /// cells, adjacent runs with equal cells coalesce, and while the block has
  /// more than kMaxRuns runs the narrowest (the first of equals) is
  /// materialized to raw cells and dropped.
  void replace_runs(ShadowBlock& blk, std::size_t lo, std::size_t hi, const Run* runs,
                    std::size_t n);

  /// Store `cell` into slot `slot` of granules [lo, hi], which lie inside
  /// run `i` of `blk` (the cell is new to that slot): replace_runs with that
  /// one piece, done in place (RunList::try_store) unless it splits the run.
  [[gnu::always_inline]] void store_in_run(ShadowBlock& blk, std::size_t i, std::size_t lo,
                                           std::size_t hi, std::size_t slot, ShadowCell cell) {
    if (!blk.runs.try_store(i, lo, hi, slot, cell)) {
      Run piece{blk.runs[i].cells, static_cast<std::uint16_t>(lo), static_cast<std::uint16_t>(hi),
                true};
      piece.cells[slot] = cell;
      replace_runs(blk, lo, hi, &piece, 1);
    }
    CUSAN_DEBUG_ASSERT_MSG(blk.runs.canonical(), "a store left a run list out of canonical form");
  }

  /// Shadow state of the granule containing `addr`: a run's cells inside a
  /// run, the raw cells elsewhere, all-invalid if the block was never
  /// touched (read-only; does not allocate).
  [[nodiscard]] GranuleCells load(std::uintptr_t addr) const {
    const ShadowBlock* blk = find(addr / kBlockAppBytes);
    if (blk == nullptr) {
      return {};
    }
    const std::size_t granule_idx = (addr % kBlockAppBytes) / kGranuleBytes;
    if (const Run* run = blk->runs.find(granule_idx); run != nullptr) {
      return run->cells;
    }
    GranuleCells out;
    std::copy_n(blk->cells(granule_idx), kShadowSlots, out.begin());
    return out;
  }

  /// Drop all shadow state for [base, base+extent) — used when memory is
  /// freed so stale epochs cannot produce false races on reuse. Only clears
  /// blocks that exist; granules partially overlapped by the range edges are
  /// cleared whole, matching the tracking granularity. With runs on, each
  /// block segment becomes one empty run and no raw cell is written.
  void reset_range(std::uintptr_t base, std::size_t extent);

  [[nodiscard]] std::size_t resident_blocks() const { return block_count_; }
  /// Reserved shadow bytes (blocks × kShadowBlockBytes). What the shadow
  /// adds to RSS can be lower: a block whose granules stay in runs never
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
  /// `run` is leaving its block's list: give its granules its cells as their
  /// raw state (a no-op unless deferred).
  void materialize(ShadowBlock& blk, const Run& run) {
    if (run.deferred) {
      store_cells(blk, run.lo, run.hi, run.cells);
    }
  }
  /// Give granules [lo, hi] of `blk` the raw cells `pattern`, one page
  /// pointer per cell page. Empty cells are not stored on a missing page, so
  /// they allocate nothing.
  void store_cells(ShadowBlock& blk, std::size_t lo, std::size_t hi, const GranuleCells& pattern);

  /// Linear probing over a power-of-two table at load <= 1/2, doubled when
  /// a new block would pass that load.
  std::vector<Slot> index_;
  /// Block headers, kBlocksPerSlab to an array reserved up front so header
  /// addresses never move.
  std::vector<std::vector<ShadowBlock>> slabs_;
  bool runs_{false};
  /// replace_runs' merge buffer: at most kMaxRuns runs before the replaced
  /// range, kMaxRuns after it, and 2 * kMaxRuns + 1 inside it. A member, so
  /// a call does not zero it.
  static constexpr std::size_t kMergeRuns = 4 * kMaxRuns + 1;
  std::array<Run, kMergeRuns> merge_scratch_;
  std::size_t block_count_{0};
  std::size_t cell_pages_{0};
  std::size_t block_budget_{0};
  std::uint64_t denied_blocks_{0};
  std::uintptr_t cached_key_{~std::uintptr_t{0}};
  ShadowBlock* cached_block_{nullptr};
};

}  // namespace rsan
