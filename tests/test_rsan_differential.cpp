// Differential shadow oracle for the rsan fast path (tentpole guard):
// replays seeded random traces — range accesses (aligned and unaligned,
// single-granule to multi-block), fiber switches, acquire/release pairs and
// shadow resets — through three independent detectors:
//
//   1. a Runtime with use_shadow_fast_path = true  (uniform runs),
//   2. a Runtime with use_shadow_fast_path = false (reference scan),
//   3. NaiveDetector, a straight port of the per-granule loop kept here as a
//      test-only class over a plain per-granule hash map (no blocks, no
//      caches), so a bug in the shared production scan cannot hide.
//
// After every access the per-call race verdicts must agree across all three
// and every block of the fast runtime holds its runs in canonical form
// (RunList::canonical); after every trace the race totals, report lists
// (labels and access kinds included) and the final shadow contents (read
// through ShadowMemory::load, which sees uniform runs) must be identical.
// Three trace families:
//   - random: 51 parameter cases x 20 traces each;
//   - widened, 20 x 20: also block-aligned whole-block ranges, partial resets
//     inside a run, and writes by another context that start inside one;
//   - shared-block, 20 x 20: widened plus two to four regions at 64-byte
//     offsets that share blocks, accessed in turn by different contexts,
//     halo rows at region edges, 1-granule reads walking a freshly written
//     region, storms of narrow accesses that overflow a block's runs, walks
//     of 1-granule reads rightward from a run's lo and leftward from its hi
//     (each step an in-place boundary move), and whole-run stores that make
//     a run equal to its neighbour (an in-place join).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "rsan/runtime.hpp"
#include "metric_value.hpp"

namespace {

using rsan::CtxId;
using rsan::kGranuleBytes;
using rsan::kShadowSlots;
using rsan::ShadowCell;

constexpr std::size_t kArenaPages = 6;
constexpr std::size_t kArenaBytes = kArenaPages * 4096;
constexpr std::size_t kReportLimit = 256;

// Test-only reference detector: the seed implementation's access_range loop
// verbatim, over an unordered_map keyed by granule index. Mirrors clocks,
// sync objects, slot eviction, per-call report throttling and report dedup.
class NaiveDetector {
 public:
  struct Report {
    std::uintptr_t addr{};
    std::size_t size{};
    CtxId cur{};
    CtxId prev{};
    std::uint64_t cur_clock{};
    std::uint64_t prev_clock{};
    bool cur_is_write{};
    bool prev_is_write{};
  };

  explicit NaiveDetector(int contexts) {
    clocks_.resize(static_cast<std::size_t>(contexts));
    clocks_[0].tick(0);
    for (CtxId id = 1; id < static_cast<CtxId>(contexts); ++id) {
      clocks_[id].join(clocks_[0]);
      clocks_[0].tick(0);
      clocks_[id].tick(id);
    }
  }

  void switch_to(CtxId ctx) { current_ = ctx; }

  void release(const void* key) {
    syncs_[reinterpret_cast<std::uintptr_t>(key)].join(clocks_[current_]);
    clocks_[current_].tick(current_);
  }

  void acquire(const void* key) {
    const auto it = syncs_.find(reinterpret_cast<std::uintptr_t>(key));
    if (it != syncs_.end()) {
      clocks_[current_].join(it->second);
    }
  }

  void reset(std::uintptr_t base, std::size_t extent) {
    if (extent == 0) {
      return;
    }
    for (std::uintptr_t g = base / kGranuleBytes; g <= (base + extent - 1) / kGranuleBytes; ++g) {
      granules_.erase(g);
    }
  }

  /// Returns true when the call detected a race (the per-call verdict).
  bool access(std::uintptr_t base, std::size_t size, bool is_write) {
    if (size == 0) {
      return false;
    }
    const std::uint64_t cur_clock = clocks_[current_].get(current_);
    const ShadowCell fresh = ShadowCell::make(current_, cur_clock, is_write);
    bool reported_this_call = false;
    for (std::uintptr_t g = base / kGranuleBytes; g <= (base + size - 1) / kGranuleBytes; ++g) {
      auto& cells = granules_[g];
      int store_slot = -1;
      for (std::size_t s = 0; s < kShadowSlots; ++s) {
        ShadowCell& cell = cells[s];
        if (!cell.valid()) {
          if (store_slot < 0) {
            store_slot = static_cast<int>(s);
          }
          continue;
        }
        const CtxId prev_ctx = cell.ctx();
        if (prev_ctx == current_) {
          if (cell.is_write() == is_write || is_write) {
            store_slot = static_cast<int>(s);
          }
          continue;
        }
        if (!is_write && !cell.is_write()) {
          continue;
        }
        if (cell.clock() > (clocks_[current_].get(prev_ctx) & ShadowCell::kClockMask)) {
          if (!reported_this_call) {
            reported_this_call = true;
            ++races_;
            const std::uintptr_t race_lo = std::max(g * kGranuleBytes, base);
            const std::uintptr_t race_hi = std::min((g + 1) * kGranuleBytes, base + size);
            record_report(race_lo, race_hi - race_lo, cur_clock, is_write, cell);
          }
        }
      }
      if (store_slot < 0) {
        // Stalest-epoch eviction (min clock, ties to the lowest slot) — the
        // policy the runtime's reference scan uses.
        store_slot = 0;
        for (std::size_t s = 1; s < kShadowSlots; ++s) {
          if (cells[s].clock() < cells[static_cast<std::size_t>(store_slot)].clock()) {
            store_slot = static_cast<int>(s);
          }
        }
      }
      cells[store_slot] = fresh;
    }
    return reported_this_call;
  }

  [[nodiscard]] std::uint64_t races() const { return races_; }
  [[nodiscard]] const std::vector<Report>& reports() const { return reports_; }

  /// Cells of the granule containing `addr`; all-invalid when never stored.
  [[nodiscard]] std::array<ShadowCell, kShadowSlots> granule(std::uintptr_t addr) const {
    const auto it = granules_.find(addr / kGranuleBytes);
    return it != granules_.end() ? it->second : std::array<ShadowCell, kShadowSlots>{};
  }

 private:
  void record_report(std::uintptr_t addr, std::size_t size, std::uint64_t cur_clock, bool is_write,
                     const ShadowCell& prev) {
    const CtxId lo = current_ < prev.ctx() ? current_ : prev.ctx();
    const CtxId hi = current_ < prev.ctx() ? prev.ctx() : current_;
    const std::uint64_t key = (static_cast<std::uint64_t>(lo) << 44) ^
                              (static_cast<std::uint64_t>(hi) << 24) ^ (addr >> 12);
    if (!dedup_.insert(key).second || reports_.size() >= kReportLimit) {
      return;
    }
    reports_.push_back(Report{addr, size, current_, prev.ctx(), cur_clock, prev.clock(), is_write,
                              prev.is_write()});
  }

  std::vector<rsan::VectorClock> clocks_;
  std::unordered_map<std::uintptr_t, rsan::VectorClock> syncs_;
  std::unordered_map<std::uintptr_t, std::array<ShadowCell, kShadowSlots>> granules_;
  std::vector<Report> reports_;
  std::unordered_set<std::uint64_t> dedup_;
  CtxId current_{0};
  std::uint64_t races_{0};
};

struct Trace {
  std::uint64_t seed{};
};

class ShadowDifferentialP : public ::testing::TestWithParam<std::uint64_t> {};

std::uintptr_t arena_base() {
  static std::vector<std::byte> storage(kArenaBytes + 4096);
  const auto raw = reinterpret_cast<std::uintptr_t>(storage.data());
  return (raw + 4095) & ~std::uintptr_t{4095};
}

/// The fast runtime's block `block` (arena-relative), or nullptr.
const rsan::ShadowBlock* fast_block(const rsan::Runtime& fast, std::uintptr_t base,
                                    std::size_t block) {
  return fast.shadow().block_if_present(base + block * 4096);
}

/// A uniform run of the fast runtime's block `block`, picked by `rng`, or
/// nullptr when the block has none.
const rsan::Run* pick_run(const rsan::Runtime& fast, std::uintptr_t base, std::size_t block,
                          common::SplitMix64& rng) {
  const rsan::ShadowBlock* blk = fast_block(fast, base, block);
  if (blk == nullptr || blk->runs.size() == 0) {
    return nullptr;
  }
  return &blk->runs[rng.next_below(blk->runs.size())];
}

/// Trace generators: random accesses; plus block-aligned ranges and writes
/// and resets aimed at runs (widened); plus neighbouring regions that share
/// blocks (shared-block).
enum class Family { kRandom, kWidened, kSharedBlock };

struct TraceStats {
  std::uint64_t fastpath_elided{};
  /// Narrow-write storms after which a block held kMaxRuns runs.
  std::uint64_t run_cap_hits{};
  /// Whole-run stores after which the run had joined its equal neighbour.
  std::uint64_t run_joins{};
};

void run_trace(std::uint64_t seed, Family family, TraceStats& stats) {
  common::SplitMix64 rng(seed);
  const int contexts = 2 + static_cast<int>(rng.next_below(3));
  const int events = 120 + static_cast<int>(rng.next_below(80));
  const std::uintptr_t base = arena_base();

  // Shared-block family: two to four regions back to back from a 64-byte
  // offset, as a 64-byte-aligned device allocator places them, so
  // neighbouring regions share blocks. Two regions are TeaLeaf-sized
  // (8,704 bytes) half of the time.
  struct Region {
    std::uintptr_t addr;
    std::size_t size;
  };
  std::vector<Region> regions;
  if (family == Family::kSharedBlock) {
    const std::size_t n = 2 + rng.next_below(3);
    const bool tealeaf = n == 2 && rng.next_below(2) == 0;
    std::uintptr_t at = base + 64;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t size =
          tealeaf ? 8704 : 64 * (1 + rng.next_below((kArenaBytes / 64 - 1) / n - 1));
      regions.push_back(Region{at, size});
      at += size;
    }
  }
  std::size_t next_region = 0;

  rsan::RuntimeConfig fast_config;
  fast_config.use_shadow_fast_path = true;
  fast_config.report_limit = kReportLimit;
  rsan::RuntimeConfig slow_config = fast_config;
  slow_config.use_shadow_fast_path = false;
  obs::MetricsRegistry fast_metrics;
  rsan::Runtime fast(fast_metrics, fast_config);
  obs::MetricsRegistry slow_metrics;
  rsan::Runtime slow(slow_metrics, slow_config);
  NaiveDetector naive(contexts);

  std::vector<CtxId> fast_ids{fast.host_ctx()};
  std::vector<CtxId> slow_ids{slow.host_ctx()};
  for (int i = 1; i < contexts; ++i) {
    fast_ids.push_back(fast.create_fiber(rsan::CtxKind::kUserFiber, "f" + std::to_string(i)));
    slow_ids.push_back(slow.create_fiber(rsan::CtxKind::kUserFiber, "f" + std::to_string(i)));
  }

  static std::array<int, 4> keys{};
  struct LastAccess {
    int ctx{-1};
    std::uintptr_t addr{};
    std::size_t size{};
    bool is_write{};
  };
  LastAccess last;

  const obs::Counter& fast_races = fast_metrics.counter("rsan.races_detected");
  const obs::Counter& slow_races = slow_metrics.counter("rsan.races_detected");
  const auto switch_to = [&](int ctx) {
    fast.switch_to_fiber(fast_ids[static_cast<std::size_t>(ctx)]);
    slow.switch_to_fiber(slow_ids[static_cast<std::size_t>(ctx)]);
    naive.switch_to(static_cast<CtxId>(ctx));
  };
  const auto release = [&](int ctx, std::size_t key) {
    switch_to(ctx);
    fast.happens_before(&keys[key]);
    slow.happens_before(&keys[key]);
    naive.release(&keys[key]);
  };
  const auto acquire = [&](int ctx, std::size_t key) {
    switch_to(ctx);
    fast.happens_after(&keys[key]);
    slow.happens_after(&keys[key]);
    naive.acquire(&keys[key]);
  };
  const auto do_access = [&](int ctx, std::uintptr_t addr, std::size_t size, bool is_write,
                             const char* label = nullptr) {
    switch_to(ctx);
    const std::uint64_t fast_before = fast_races.value();
    const std::uint64_t slow_before = slow_races.value();
    const auto* ptr = reinterpret_cast<const void*>(addr);
    if (is_write) {
      fast.write_range(ptr, size, label != nullptr ? label : "w");
      slow.write_range(ptr, size, label != nullptr ? label : "w");
    } else {
      fast.read_range(ptr, size, label != nullptr ? label : "r");
      slow.read_range(ptr, size, label != nullptr ? label : "r");
    }
    const bool naive_raced = naive.access(addr, size, is_write);
    const bool fast_raced = fast_races.value() != fast_before;
    const bool slow_raced = slow_races.value() != slow_before;
    ASSERT_EQ(fast_raced, slow_raced)
        << "fast/slow verdict diverged: seed " << seed << " addr " << (addr - base) << " size "
        << size << (is_write ? " write" : " read");
    ASSERT_EQ(fast_raced, naive_raced)
        << "fast/naive verdict diverged: seed " << seed << " addr " << (addr - base) << " size "
        << size << (is_write ? " write" : " read");
    for (std::size_t block = 0; block < kArenaPages; ++block) {
      const rsan::ShadowBlock* blk = fast_block(fast, base, block);
      ASSERT_TRUE(blk == nullptr || blk->runs.canonical())
          << "run list out of canonical form: seed " << seed << " block " << block << " after "
          << (addr - base) << " size " << size << (is_write ? " write" : " read");
    }
    last = LastAccess{ctx, addr, size, is_write};
  };

  for (int e = 0; e < events; ++e) {
    const int ctx = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(contexts)));
    const auto choice = rng.next_below(family == Family::kRandom    ? 100
                                       : family == Family::kWidened ? 130
                                                                    : 195);
    if (choice >= 180) {  // shared-block generator only: aim at one run
      const std::size_t block = (regions[rng.next_below(regions.size())].addr - base) / 4096;
      const rsan::Run* picked = pick_run(fast, base, block, rng);
      if (picked == nullptr) {
        continue;
      }
      const rsan::Run run = *picked;
      const std::uintptr_t run_addr = base + block * 4096 + run.lo * kGranuleBytes;
      const int reader = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(contexts)));
      const std::size_t steps = std::min<std::size_t>(run.width(), 64);
      if (choice < 185) {
        // A walk of 1-granule reads rightward from the run's lo: the first
        // splits the run, each later one moves the boundary, and a walk over
        // the whole run ends in a whole-run store that joins its neighbour.
        for (std::size_t i = 0; i < steps && !testing::Test::HasFatalFailure(); ++i) {
          do_access(reader, run_addr + i * kGranuleBytes, kGranuleBytes, false, "load");
        }
      } else if (choice < 190) {
        // The same walk leftward from the run's hi.
        for (std::size_t i = 0; i < steps && !testing::Test::HasFatalFailure(); ++i) {
          do_access(reader, run_addr + (run.width() - 1 - i) * kGranuleBytes, kGranuleBytes,
                    false, "load");
        }
      } else if (run.width() >= 2) {
        // A context writes the run at a fresh epoch and reads its tail; its
        // read of the head is then a whole-run store that makes the head
        // equal to the tail, so the two must join.
        const std::size_t head = 1 + rng.next_below(run.width() - 1);
        release(ctx, rng.next_below(keys.size()));
        do_access(ctx, run_addr, run.width() * kGranuleBytes, true, "memcpy");
        do_access(ctx, run_addr + head * kGranuleBytes, (run.width() - head) * kGranuleBytes,
                  false, "tail");
        do_access(ctx, run_addr, head * kGranuleBytes, false, "head");
        const rsan::ShadowBlock* blk = fast_block(fast, base, block);
        const rsan::Run* joined = blk != nullptr ? blk->runs.find(run.lo) : nullptr;
        if (joined != nullptr && joined->hi >= run.hi) {
          ++stats.run_joins;
        }
      }
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    } else if (choice >= 130) {  // shared-block generator only
      const Region& region = regions[rng.next_below(regions.size())];
      const std::size_t row = std::min<std::size_t>(64 * (1 + rng.next_below(8)), region.size / 2);
      if (choice < 145) {
        // A kernel on the next region in turn: whole access or interior write.
        const Region& r = regions[next_region++ % regions.size()];
        if (rng.next_below(2) == 0 && r.size > 2 * row) {
          do_access(ctx, r.addr + row, r.size - 2 * row, true, "interior");
        } else {
          do_access(ctx, r.addr, r.size, rng.next_below(2) == 0, "kernel");
        }
      } else if (choice < 155) {
        // A halo row at either edge of a region.
        const std::uintptr_t addr =
            rng.next_below(2) == 0 ? region.addr : region.addr + region.size - row;
        do_access(ctx, addr, row, rng.next_below(2) == 0, "halo");
      } else if (choice < 163) {
        // A fresh write of the region, then a context walks 1-granule reads
        // across its first granules, ordered after the write half the time.
        do_access(ctx, region.addr, region.size, true, "memcpy");
        const int reader = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(contexts)));
        if (rng.next_below(2) == 0) {
          release(ctx, 0);
          acquire(reader, 0);
        }
        const std::size_t steps = std::min<std::size_t>(region.size / kGranuleBytes, 48);
        for (std::size_t i = 0; i < steps && !testing::Test::HasFatalFailure(); ++i) {
          do_access(reader, region.addr + i * kGranuleBytes, kGranuleBytes, false, "load");
        }
      } else if (choice < 170) {
        // Partial reset inside a run of a block the region lies in.
        const std::size_t block = (region.addr - base) / 4096;
        if (const rsan::Run* run = pick_run(fast, base, block, rng); run != nullptr) {
          const std::size_t g_lo = run->lo + rng.next_below(run->width());
          const std::size_t g_hi = g_lo + rng.next_below(run->hi - g_lo + 1u);
          const std::uintptr_t addr = base + block * 4096 + g_lo * kGranuleBytes;
          const std::size_t size = (g_hi - g_lo + 1) * kGranuleBytes;
          fast.reset_shadow_range(reinterpret_cast<const void*>(addr), size);
          slow.reset_shadow_range(reinterpret_cast<const void*>(addr), size);
          naive.reset(addr, size);
        }
      } else {
        // A storm of narrow accesses at fresh epochs into one block: more
        // distinct runs than a block holds, so runs are materialized.
        const std::size_t block = rng.next_below(kArenaPages);
        for (std::size_t k = 0; k < rsan::kMaxRuns + 2 && !testing::Test::HasFatalFailure();
             ++k) {
          const int who = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(contexts)));
          release(who, rng.next_below(keys.size()));
          const std::size_t g = rng.next_below(4096 / kGranuleBytes - 3);
          do_access(who, base + block * 4096 + g * kGranuleBytes,
                    (1 + rng.next_below(3)) * kGranuleBytes, rng.next_below(2) == 0, "narrow");
        }
        const rsan::ShadowBlock* blk = fast_block(fast, base, block);
        if (blk != nullptr && blk->runs.size() == rsan::kMaxRuns) {
          ++stats.run_cap_hits;
        }
      }
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    } else if (choice >= 100) {  // widened and shared-block: aim at runs
      const std::size_t block = rng.next_below(kArenaPages);
      const rsan::Run* run = choice >= 115 ? pick_run(fast, base, block, rng) : nullptr;
      const std::size_t blocks = 1 + rng.next_below(std::min<std::size_t>(3, kArenaPages - block));
      if (choice >= 110 && choice < 115) {
        // Whole-block reset: each block becomes one empty run.
        const auto* ptr = reinterpret_cast<const void*>(base + block * 4096);
        fast.reset_shadow_range(ptr, blocks * 4096);
        slow.reset_shadow_range(ptr, blocks * 4096);
        naive.reset(base + block * 4096, blocks * 4096);
      } else if (choice < 110 || run == nullptr) {
        // Block-aligned whole-block range of one to three blocks.
        do_access(ctx, base + block * 4096, blocks * 4096, rng.next_below(2) == 0);
      } else if (choice < 120) {
        // Partial reset inside a run.
        const std::size_t g_lo = run->lo + rng.next_below(run->width());
        const std::size_t g_hi = g_lo + rng.next_below(run->hi - g_lo + 1u);
        const std::uintptr_t addr = base + block * 4096 + g_lo * kGranuleBytes;
        const std::size_t size = (g_hi - g_lo + 1) * kGranuleBytes;
        fast.reset_shadow_range(reinterpret_cast<const void*>(addr), size);
        slow.reset_shadow_range(reinterpret_cast<const void*>(addr), size);
        naive.reset(addr, size);
      } else {
        // A write that starts inside a run, by the context after the one
        // whose cell the run holds: a race unless ordered.
        const ShadowCell held = run->cells[0];
        const int owner = held.valid() ? static_cast<int>(held.ctx()) : 0;
        const std::size_t g = run->lo + rng.next_below(run->width());
        const std::uintptr_t addr =
            base + block * 4096 + g * kGranuleBytes + rng.next_below(kGranuleBytes);
        const std::size_t max_size = std::min<std::size_t>(base + kArenaBytes - addr, 2 * 4096);
        do_access((owner + 1) % contexts, addr, 1 + rng.next_below(max_size), true);
      }
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    } else if (choice < 40) {  // fresh random access
      const std::size_t size = rng.next_below(10) < 9
                                   ? 1 + rng.next_below(128)
                                   : 129 + rng.next_below(2 * 4096);
      const std::uintptr_t offset = rng.next_below(kArenaBytes - size);
      do_access(ctx, base + offset, size, rng.next_below(2) == 0);
      if (testing::Test::HasFatalFailure()) {
        return;
      }
    } else if (choice < 58) {  // repeat the previous access (fast-path food)
      if (last.ctx >= 0) {
        do_access(last.ctx, last.addr, last.size, last.is_write);
        if (testing::Test::HasFatalFailure()) {
          return;
        }
      }
    } else if (choice < 70) {  // switch only
      fast.switch_to_fiber(fast_ids[static_cast<std::size_t>(ctx)]);
      slow.switch_to_fiber(slow_ids[static_cast<std::size_t>(ctx)]);
      naive.switch_to(static_cast<CtxId>(ctx));
    } else if (choice < 82) {  // release
      release(ctx, rng.next_below(keys.size()));
    } else if (choice < 94) {  // acquire
      acquire(ctx, rng.next_below(keys.size()));
    } else {  // reset a sub-range
      const std::size_t size = 1 + rng.next_below(4096);
      const std::uintptr_t offset = rng.next_below(kArenaBytes - size);
      fast.reset_shadow_range(reinterpret_cast<const void*>(base + offset), size);
      slow.reset_shadow_range(reinterpret_cast<const void*>(base + offset), size);
      naive.reset(base + offset, size);
    }
  }

  // Final race totals and report lists: fast == slow == naive.
  EXPECT_EQ(fast_races.value(), slow_races.value()) << "seed " << seed;
  EXPECT_EQ(fast_races.value(), naive.races()) << "seed " << seed;
  ASSERT_EQ(fast.reports().size(), slow.reports().size()) << "seed " << seed;
  ASSERT_EQ(fast.reports().size(), naive.reports().size()) << "seed " << seed;
  for (std::size_t i = 0; i < fast.reports().size(); ++i) {
    const rsan::RaceReport& f = fast.reports()[i];
    const rsan::RaceReport& s = slow.reports()[i];
    const NaiveDetector::Report& n = naive.reports()[i];
    EXPECT_EQ(f.addr, s.addr) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.access_size, s.access_size) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.current.ctx, s.current.ctx) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.previous.ctx, s.previous.ctx) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.current.clock, s.current.clock) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.previous.clock, s.previous.clock) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.current.label, s.current.label) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.previous.label, s.previous.label) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.current.is_write, s.current.is_write) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.previous.is_write, s.previous.is_write) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.addr, n.addr) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.access_size, n.size) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.current.ctx, n.cur) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.previous.ctx, n.prev) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.current.clock, n.cur_clock) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.previous.clock, n.prev_clock) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.current.is_write, n.cur_is_write) << "seed " << seed << " report " << i;
    EXPECT_EQ(f.previous.is_write, n.prev_is_write) << "seed " << seed << " report " << i;
  }

  // Final shadow contents over the whole arena: cell-for-cell identical.
  // load() reads a granule inside a uniform run from the run, which is the
  // authority there (the raw cells under it are don't-care).
  EXPECT_EQ(fast.shadow().resident_blocks(), slow.shadow().resident_blocks()) << "seed " << seed;
  for (std::uintptr_t addr = base; addr < base + kArenaBytes; addr += kGranuleBytes) {
    const std::array<ShadowCell, kShadowSlots> fast_cells = fast.shadow().load(addr);
    const std::array<ShadowCell, kShadowSlots> slow_cells = slow.shadow().load(addr);
    const std::array<ShadowCell, kShadowSlots> naive_cells = naive.granule(addr);
    for (std::size_t s = 0; s < kShadowSlots; ++s) {
      const std::uint64_t f = fast_cells[s].raw;
      const std::uint64_t sl = slow_cells[s].raw;
      ASSERT_EQ(f, sl) << "fast/slow shadow diverged: seed " << seed << " offset "
                       << (addr - base) << " slot " << s;
      ASSERT_EQ(f, naive_cells[s].raw) << "fast/naive shadow diverged: seed " << seed
                                       << " offset " << (addr - base) << " slot " << s;
    }
  }

  // The slow runtime must never take a fast path; the fast runtime's
  // engagement is accumulated and asserted per test case.
  EXPECT_EQ(metric_value(slow_metrics, "rsan.fastpath_block_hits"), 0u);
  EXPECT_EQ(metric_value(slow_metrics, "rsan.fastpath_granules_elided"), 0u);
  stats.fastpath_elided += metric_value(fast_metrics, "rsan.fastpath_granules_elided");
}

void run_case(std::uint64_t case_seed, Family family) {
  TraceStats stats;
  for (std::uint64_t t = 0; t < 20; ++t) {
    run_trace(case_seed * 7919 + t * 104729 + 1, family, stats);
    if (testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The oracle is vacuous if the fast path never engages; the repeat-heavy
  // generator guarantees hits in every 20-trace batch.
  EXPECT_GT(stats.fastpath_elided, 0u) << "fast path never engaged for case seed " << case_seed;
  if (family == Family::kSharedBlock) {
    EXPECT_GT(stats.run_cap_hits, 0u) << "no block reached the run cap, case seed " << case_seed;
    EXPECT_GT(stats.run_joins, 0u) << "no whole-run store joined a run, case seed " << case_seed;
  }
}

TEST_P(ShadowDifferentialP, FastAndReferenceShadowsAgreeOnRandomTraces) {
  run_case(GetParam(), Family::kRandom);
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, ShadowDifferentialP, ::testing::Range<std::uint64_t>(1, 52));

class ShadowDifferentialWidenedP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShadowDifferentialWidenedP, FastAndReferenceShadowsAgreeOnSummaryAimedTraces) {
  run_case(GetParam(), Family::kWidened);
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, ShadowDifferentialWidenedP,
                         ::testing::Range<std::uint64_t>(1, 21));

class ShadowDifferentialSharedBlockP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShadowDifferentialSharedBlockP, FastAndReferenceShadowsAgreeOnSharedBlockTraces) {
  run_case(GetParam(), Family::kSharedBlock);
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, ShadowDifferentialSharedBlockP,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
