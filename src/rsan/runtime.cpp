#include "rsan/runtime.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/diagnostics.hpp"
#include "obs/ring.hpp"
#include "schedsim/execution_graph.hpp"

namespace rsan {

namespace {

/// The bytes of granule `g` of block `block_key` inside the access
/// [base, base + size): a race on the granule is attributed to them, not to
/// the whole annotated range.
struct GranuleBytes {
  std::uintptr_t addr;
  std::size_t size;
};
[[nodiscard]] GranuleBytes granule_bytes(std::uintptr_t block_key, std::size_t g,
                                         std::uintptr_t base, std::size_t size) {
  const std::uintptr_t gaddr = (block_key * kGranulesPerBlock + g) * kGranuleBytes;
  const std::uintptr_t lo = std::max(gaddr, base);
  return {lo, std::min(gaddr + kGranuleBytes, base + size) - lo};
}

/// Eviction victim when every slot is valid and none is subsumable: the slot
/// holding the stalest epoch (lowest clock; ties break to the lowest index).
/// Stale epochs are the least likely to witness a future race, and the choice
/// is a pure function of the cells — granules with identical state pick the
/// same victim, which keeps uniform shadow blocks uniform.
[[nodiscard]] int evict_victim(const ShadowCell* cells) {
  int victim = 0;
  for (std::size_t s = 1; s < kShadowSlots; ++s) {
    if (cells[s].clock() < cells[static_cast<std::size_t>(victim)].clock()) {
      victim = static_cast<int>(s);
    }
  }
  return victim;
}

/// What the reference scan decides for one granule's cells: the first
/// racing cell in slot order (invalid if none), and the slot the fresh cell
/// goes to (-1 when every slot is valid and none is subsumable). Inlined:
/// it is the per-granule body of the reference scan.
struct Decision {
  ShadowCell racing;
  int store_slot;
};
[[nodiscard, gnu::always_inline]] inline Decision decide(const ShadowCell* cells, CtxId current,
                                                         const VectorClock& clock,
                                                         bool is_write) {
  Decision d{{}, -1};
  for (std::size_t s = 0; s < kShadowSlots; ++s) {
    const ShadowCell cell = cells[s];
    if (!cell.valid()) {
      if (d.store_slot < 0) {
        d.store_slot = static_cast<int>(s);
      }
      continue;
    }
    const CtxId prev_ctx = cell.ctx();
    if (prev_ctx == current) {
      // Program order on the same context: never a race. Subsume the old
      // epoch if the access kinds match (write subsumes read as well).
      if (cell.is_write() == is_write || is_write) {
        d.store_slot = static_cast<int>(s);
      }
      continue;
    }
    if (!is_write && !cell.is_write()) {
      continue;  // read-read never races
    }
    // Happens-before check: the previous access is ordered before the
    // current one iff its epoch is visible in the current clock.
    if (cell.clock() > (clock.get(prev_ctx) & ShadowCell::kClockMask) && !d.racing.valid()) {
      d.racing = cell;
    }
  }
  return d;
}

}  // namespace

bool default_shadow_fast_path() {
  const char* env = std::getenv("CUSAN_SHADOW_FAST_PATH");
  return env == nullptr || std::string_view{env} != "0";
}

std::size_t default_shadow_max_bytes() {
  const char* env = std::getenv("CUSAN_SHADOW_MAX_MB");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  char* end = nullptr;
  const unsigned long long mb = std::strtoull(env, &end, 10);
  if (end == env || (end != nullptr && *end != '\0')) {
    return 0;
  }
  return static_cast<std::size_t>(mb) * 1024 * 1024;
}

Runtime::Runtime(obs::MetricsRegistry& metrics, RuntimeConfig config)
    : config_(config), shadow_(config_.use_shadow_fast_path), metrics_(metrics) {
  if (config_.shadow_max_bytes != 0) {
    // At least one block so a capped runtime still tracks something.
    shadow_.set_block_budget(
        std::max<std::size_t>(1, config_.shadow_max_bytes / kShadowBlockBytes));
  }
  host_ = create_fiber(CtxKind::kHostThread, "host");
  current_ = host_;
}

CtxId Runtime::create_fiber(CtxKind kind, std::string name) {
  const auto id = static_cast<CtxId>(contexts_.size());
  CUSAN_ASSERT_MSG(id <= ShadowCell::kCtxMask, "context id space exhausted");
  auto ctx = std::make_unique<Context>();
  ctx->info = ContextInfo{id, kind, std::move(name), true};
  ctx->history.resize(config_.history_size);
  if (current_ != kInvalidCtx) {
    // Fiber creation synchronizes creator -> fiber (release semantics): the
    // fiber inherits the creator's clock, and the creator's epoch advances
    // so its *later* accesses are not mistaken as ordered before the fiber.
    ctx->clock.join(contexts_[current_]->clock);
    contexts_[current_]->clock.tick(current_);
  }
  ctx->clock.tick(id);
  contexts_.push_back(std::move(ctx));
  return id;
}

void Runtime::destroy_fiber(CtxId id) {
  CUSAN_ASSERT(id < contexts_.size());
  CUSAN_ASSERT_MSG(id != current_, "cannot destroy the current fiber");
  contexts_[id]->info.alive = false;
}

void Runtime::switch_to_fiber(CtxId id) {
  CUSAN_ASSERT(id < contexts_.size());
  CUSAN_ASSERT_MSG(contexts_[id]->info.alive, "switch to destroyed fiber");
  if (id != current_) {
    metrics_.fiber_switches.increment();
    current_ = id;
  }
}

const ContextInfo& Runtime::context(CtxId id) const {
  CUSAN_ASSERT(id < contexts_.size());
  return contexts_[id]->info;
}

void Runtime::happens_before(const void* key) {
  metrics_.hb_before.increment();
  Context& cur = *contexts_[current_];
  auto& clock = sync_objects_[reinterpret_cast<std::uintptr_t>(key)];
  clock.join(cur.clock);
  cur.clock.tick(current_);
  if (schedsim::GraphRecorder::enabled()) {
    schedsim::GraphRecorder::instance().record_release(config_.rank, current_, key);
  }
}

void Runtime::happens_after(const void* key) {
  metrics_.hb_after.increment();
  const auto it = sync_objects_.find(reinterpret_cast<std::uintptr_t>(key));
  if (it == sync_objects_.end()) {
    return;  // acquiring a never-released object is a no-op (TSan semantics)
  }
  Context& cur = *contexts_[current_];
  cur.clock.join(it->second);
  if (schedsim::GraphRecorder::enabled()) {
    schedsim::GraphRecorder::instance().record_acquire(config_.rank, current_, key);
  }
}

bool Runtime::has_sync_object(const void* key) const {
  return sync_objects_.contains(reinterpret_cast<std::uintptr_t>(key));
}

void Runtime::release_sync_object(const void* key) {
  sync_objects_.erase(reinterpret_cast<std::uintptr_t>(key));
  if (schedsim::GraphRecorder::enabled()) {
    // The key's address may be recycled for an unrelated sync object; retire
    // its pending release nodes so no false cross-object edge appears.
    schedsim::GraphRecorder::instance().record_key_retire(key);
  }
}

void Runtime::read_range(const void* addr, std::size_t size, const char* label) {
  metrics_.read_range_calls.increment();
  metrics_.read_range_bytes.add(size);
  access_range(addr, size, /*is_write=*/false, label);
}

void Runtime::write_range(const void* addr, std::size_t size, const char* label) {
  metrics_.write_range_calls.increment();
  metrics_.write_range_bytes.add(size);
  access_range(addr, size, /*is_write=*/true, label);
}

void Runtime::plain_read(const void* addr, std::size_t size) {
  metrics_.plain_reads.increment();
  access_range(addr, size, /*is_write=*/false, nullptr);
}

void Runtime::plain_write(const void* addr, std::size_t size) {
  metrics_.plain_writes.increment();
  access_range(addr, size, /*is_write=*/true, nullptr);
}

void Runtime::reset_shadow_range(const void* addr, std::size_t size) {
  shadow_.reset_range(reinterpret_cast<std::uintptr_t>(addr), size);
  if (!regions_.empty() && size != 0) {
    // Freed/reused memory also forgets its proven regions, exactly like its
    // shadow cells.
    const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t hi = lo + size;
    std::erase_if(regions_, [&](const ProvenRegion& r) {
      return r.base < hi && lo < r.base + r.size;
    });
  }
  flush_tally();  // a partial reset may materialize cells onto new pages
}

void Runtime::proven_range(const void* addr, std::size_t size, bool is_write, const char* label,
                           bool /*unused*/) {
  if (!config_.track_memory || size == 0) {
    return;
  }
  Context& cur = *contexts_[current_];
  if (cur.ignore_depth > 0) {
    metrics_.ignored_accesses.increment();
    return;
  }
  metrics_.proven_range_calls.increment();
  metrics_.proven_bytes.add(size);
  const std::uint64_t cur_clock = cur.clock.get(current_);
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(addr);
  record_history(cur, base, size, is_write, label, cur_clock);

  Access access{base, size, is_write, label, cur, cur_clock,
                ShadowCell::make(current_, cur_clock, is_write)};
  // Check-only shadow scan: same conflict logic as the tracked path, but
  // through block_if_present — a block nobody ever stored into holds no
  // conflicting epochs, so it is skipped without allocating. On a pure
  // proven working set the shadow table therefore stays empty forever.
  const std::uintptr_t first = base / kGranuleBytes;
  const std::uintptr_t last = (base + size - 1) / kGranuleBytes;
  for (std::uintptr_t g = first;;) {
    const std::uintptr_t key = g / kGranulesPerBlock;
    const std::uintptr_t seg_last = std::min(last, (key + 1) * kGranulesPerBlock - 1);
    const std::size_t g_lo = static_cast<std::size_t>(g - key * kGranulesPerBlock);
    const std::size_t g_hi = static_cast<std::size_t>(seg_last - key * kGranulesPerBlock);
    if (const ShadowBlock* blk = shadow_.block_if_present(g * kGranuleBytes); blk != nullptr) {
      ++tally_.proven_scan_blocks;
      check_only_block(*blk, key, g_lo, g_hi, access);
    } else {
      ++tally_.proven_block_skips;
    }
    if (seg_last == last) {
      break;
    }
    g = seg_last + 1;
  }
  check_regions(access);

  // Publish (or refresh) the region: it stands in for the cells a tracked
  // launch would have stored, so future conflicting accesses race against it
  // with identical happens-before logic. Keyed by (ctx, range, kind) — the
  // steady-state kernel loop updates one record in place.
  bool found = false;
  for (ProvenRegion& r : regions_) {
    if (r.ctx == current_ && r.base == base && r.size == size && r.is_write == is_write) {
      r.clock = cur_clock;
      found = true;
      break;
    }
  }
  if (!found) {
    regions_.push_back(ProvenRegion{base, size, current_, cur_clock, is_write});
  }
  flush_tally();
}

void Runtime::check_only_block(const ShadowBlock& blk, std::uintptr_t block_key, std::size_t g_lo,
                               std::size_t g_hi, Access& a) {
  const RunList& runs = blk.runs;
  std::size_t i = runs.first_from(g_lo);
  for (std::size_t g = g_lo; g <= g_hi; ++g) {
    // A granule of a uniform run stands for the whole run: one check decides
    // it, then the loop jumps past the run.
    const bool in_run = i < runs.size() && runs[i].lo <= g;
    const ShadowCell* cells = in_run ? runs[i].cells.data() : blk.cells(g);
    if (const Decision d = decide(cells, current_, a.cur.clock, a.is_write); d.racing.valid()) {
      note_race(d.racing, block_key, g, a);
    }
    if (in_run) {
      g = std::min<std::size_t>(runs[i++].hi, g_hi);  // loop increment moves past the run
    }
  }
}

void Runtime::note_race(ShadowCell racing, std::uintptr_t block_key, std::size_t g, Access& a) {
  if (!a.reported) {
    a.reported = true;
    const GranuleBytes at = granule_bytes(block_key, g, a.base, a.size);
    report_race(at.addr, at.size, a.is_write, a.label, a.cur_clock, racing);
  }
}

void Runtime::check_regions(Access& a) {
  if (regions_.empty()) {
    return;
  }
  // Extents are rounded to shadow granules so region-vs-access conflicts
  // trigger on exactly the byte ranges cell-vs-access conflicts would.
  const std::uintptr_t a_lo = (a.base / kGranuleBytes) * kGranuleBytes;
  const std::uintptr_t a_hi = ((a.base + a.size - 1) / kGranuleBytes + 1) * kGranuleBytes;
  for (const ProvenRegion& r : regions_) {
    if (r.ctx == current_) {
      continue;  // program order: never a race
    }
    if (!a.is_write && !r.is_write) {
      continue;  // read-read never races
    }
    const std::uintptr_t r_lo = (r.base / kGranuleBytes) * kGranuleBytes;
    const std::uintptr_t r_hi = ((r.base + r.size - 1) / kGranuleBytes + 1) * kGranuleBytes;
    if (r_hi <= a_lo || a_hi <= r_lo) {
      continue;
    }
    ++tally_.region_checks;
    if (r.clock > a.cur.clock.get(r.ctx) && !a.reported) {
      a.reported = true;
      const std::uintptr_t race_lo = std::max({r_lo, a_lo, a.base});
      const std::uintptr_t race_hi = std::min({r_hi, a_hi, a.base + a.size});
      report_race(race_lo, race_hi > race_lo ? race_hi - race_lo : 1, a.is_write, a.label,
                  a.cur_clock, ShadowCell::make(r.ctx, r.clock, r.is_write));
    }
  }
}

void Runtime::ignore_begin() { ++contexts_[current_]->ignore_depth; }

void Runtime::ignore_end() {
  CUSAN_ASSERT_MSG(contexts_[current_]->ignore_depth > 0, "unbalanced ignore_end");
  --contexts_[current_]->ignore_depth;
}

bool Runtime::ignoring() const { return contexts_[current_]->ignore_depth > 0; }

void Runtime::clear_reports() {
  reports_.clear();
  report_dedup_.clear();
}

const char* Runtime::intern(std::string label) {
  interned_.push_back(std::move(label));
  return interned_.back().c_str();
}

void Runtime::access_range(const void* addr, std::size_t size, bool is_write, const char* label) {
  if (!config_.track_memory || size == 0) {
    return;
  }
  Context& cur = *contexts_[current_];
  if (cur.ignore_depth > 0) {
    metrics_.ignored_accesses.increment();
    return;
  }
  const std::uint64_t cur_clock = cur.clock.get(current_);
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(addr);
  record_history(cur, base, size, is_write, label, cur_clock);

  const std::uintptr_t first = base / kGranuleBytes;
  const std::uintptr_t last = (base + size - 1) / kGranuleBytes;
  Access access{base, size, is_write, label, cur, cur_clock,
                ShadowCell::make(current_, cur_clock, is_write)};
  bool degraded = false;

  for (std::uintptr_t g = first;;) {
    const std::uintptr_t key = g / kGranulesPerBlock;
    const std::uintptr_t seg_last = std::min(last, (key + 1) * kGranulesPerBlock - 1);
    const std::size_t g_lo = static_cast<std::size_t>(g - key * kGranulesPerBlock);
    const std::size_t g_hi = static_cast<std::size_t>(seg_last - key * kGranulesPerBlock);
    ShadowBlock* blkp = shadow_.block(g * kGranuleBytes);
    if (blkp == nullptr) {
      // Block budget exhausted (CUSAN_SHADOW_MAX_MB): this segment is not
      // tracked. Count the degradation and keep going — soundness of the
      // tracked part is preserved, the process stays alive.
      ++tally_.degraded_blocks;
      degraded = true;
    } else {
      store_block(*blkp, key, g_lo, g_hi, access);
    }
    if (seg_last == last) {
      break;
    }
    g = seg_last + 1;
  }

  // Proven regions published by elided launches are checked with the same
  // conflict rules as shadow cells (no-op while prove-and-elide is off).
  check_regions(access);

  if (degraded) {
    metrics_.degraded_accesses.increment();
  }
  flush_tally();
}

int Runtime::store_slot(const Run& run, std::uintptr_t block_key, std::size_t g,
                        std::size_t width, Access& a) {
  // Every granule of the run holds its cells, so the reference scan has one
  // outcome for all `width` granules from `g`, races included: run it once
  // on the cells.
  const Decision d = decide(run.cells.data(), current_, a.cur.clock, a.is_write);
  if (d.racing.valid()) {
    note_race(d.racing, block_key, g, a);
  }
  tally_.fastpath_granules_elided += width;
  if (d.store_slot >= 0) {
    return d.store_slot;
  }
  // The victim is a pure function of the cells: the same for every granule
  // of the run, and the one the reference scan picks.
  tally_.slot_evictions += width;
  return evict_victim(run.cells.data());
}

void Runtime::store_block(ShadowBlock& blk, std::uintptr_t block_key, std::size_t g_lo,
                          std::size_t g_hi, Access& a) {
  const RunList& runs = blk.runs;
  std::size_t i = runs.first_from(g_lo);
  if (i < runs.size() && runs[i].lo <= g_lo && g_hi <= runs[i].hi) {
    // The segment lies inside one run, as most do: `fresh` goes into one run
    // slot, not into a slot of each granule, and splits the run at the
    // segment edges.
    const Run& run = runs[i];
    const auto slot =
        static_cast<std::size_t>(store_slot(run, block_key, g_lo, g_hi - g_lo + 1, a));
    ++tally_.fastpath_block_hits;
    if (run.cells[slot] == a.fresh) {
      return;  // a bit-exact no-op store
    }
    if (run.lo == g_lo && run.hi == g_hi) {
      blk.runs.store(i, slot, a.fresh);  // no split, so no list surgery
      return;
    }
    Run piece{run.cells, static_cast<std::uint16_t>(g_lo), static_cast<std::uint16_t>(g_hi), true};
    piece.cells[slot] = a.fresh;
    shadow_.replace_runs(blk, g_lo, g_hi, &piece, 1);
    return;
  }
  // Walk the segment in granule order, so a race is attributed to its first
  // racing granule as in the reference scan. `out` collects the uniform runs
  // of [g_lo, g_hi] after the access: one piece per run the segment
  // overlaps, plus each raw stretch between them that comes out uniform.
  std::array<Run, 2 * kMaxRuns + 1>& out = run_scratch_;
  std::size_t n = 0;
  bool scanned = false;
  for (std::size_t g = g_lo; g <= g_hi;) {
    if (i < runs.size() && runs[i].lo <= g) {
      const Run& run = runs[i++];
      Run& piece = out[n++];
      piece = Run{run.cells, static_cast<std::uint16_t>(g),
                  static_cast<std::uint16_t>(std::min<std::size_t>(run.hi, g_hi)), run.deferred};
      const auto slot = static_cast<std::size_t>(store_slot(run, block_key, g, piece.width(), a));
      if (piece.cells[slot] != a.fresh) {
        piece.cells[slot] = a.fresh;
        piece.deferred = true;
      }
      g = piece.hi + 1u;
    } else {
      const std::size_t hi =
          i < runs.size() ? std::min<std::size_t>(g_hi, runs[i].lo - 1u) : g_hi;
      if (scan_raw(blk, block_key, g, hi, a, out[n].cells)) {
        out[n].lo = static_cast<std::uint16_t>(g);
        out[n].hi = static_cast<std::uint16_t>(hi);
        out[n++].deferred = false;  // the scan just stored these raw cells
      }
      scanned = true;
      g = hi + 1;
    }
  }
  if (!config_.use_shadow_fast_path) {
    return;  // the reference scan keeps no runs
  }
  ++(scanned ? tally_.fastpath_block_misses : tally_.fastpath_block_hits);
  shadow_.replace_runs(blk, g_lo, g_hi, out.data(), n);
}

bool Runtime::scan_raw(ShadowBlock& blk, std::uintptr_t block_key, std::size_t lo, std::size_t hi,
                       Access& a, GranuleCells& uniform) {
  // The reference per-granule scan. Every granule scanned is stored into,
  // which allocates its cell page; one page pointer serves up to 128
  // granules.
  bool is_uniform = config_.use_shadow_fast_path;
  // Locals, so the cell stores below cannot make the compiler reload them.
  const VectorClock& clock = a.cur.clock;
  const bool is_write = a.is_write;
  const ShadowCell fresh = a.fresh;
  for (std::size_t g = lo; g <= hi;) {
    const std::size_t p = g / kGranulesPerCellPage;
    const std::size_t page_hi = std::min(hi, (p + 1) * kGranulesPerCellPage - 1);
    ShadowCell* cells = shadow_.writable_page(blk, p) + (g % kGranulesPerCellPage) * kShadowSlots;
    for (; g <= page_hi; ++g, cells += kShadowSlots) {
      const Decision d = decide(cells, current_, clock, is_write);
      if (d.racing.valid()) {
        note_race(d.racing, block_key, g, a);
      }
      int slot = d.store_slot;
      if (slot < 0) {
        // Evict the stalest epoch (ties to the lowest slot). The choice is a
        // pure function of the granule's cells, so granules with identical
        // state evolve identically, which the uniform runs rely on.
        slot = evict_victim(cells);
        ++tally_.slot_evictions;
      }
      cells[slot] = fresh;
      if (!is_uniform) {
        continue;
      }
      if (g == lo) {
        std::copy_n(cells, kShadowSlots, uniform.begin());
      } else if (!std::equal(uniform.begin(), uniform.end(), cells)) {
        is_uniform = false;
      }
    }
  }
  return is_uniform;
}

void Runtime::flush_tally() {
  const auto flush = [](std::uint64_t& n, obs::Counter& counter) {
    if (n != 0) {
      counter.add(n);
      n = 0;
    }
  };
  flush(tally_.fastpath_block_hits, metrics_.fastpath_block_hits);
  flush(tally_.fastpath_block_misses, metrics_.fastpath_block_misses);
  flush(tally_.fastpath_granules_elided, metrics_.fastpath_granules_elided);
  flush(tally_.degraded_blocks, metrics_.degraded_blocks);
  flush(tally_.proven_scan_blocks, metrics_.proven_scan_blocks);
  flush(tally_.proven_block_skips, metrics_.proven_block_skips);
  flush(tally_.region_checks, metrics_.region_checks);
  flush(tally_.slot_evictions, metrics_.slot_evictions);
  if (shadow_.cell_pages() != cell_pages_counted_) {
    metrics_.cell_pages.add(shadow_.cell_pages() - cell_pages_counted_);
    cell_pages_counted_ = shadow_.cell_pages();
  }
}

void Runtime::record_history(Context& ctx, std::uintptr_t base, std::size_t size, bool is_write,
                             const char* label, std::uint64_t clock) {
  if (ctx.history.empty()) {
    return;
  }
  AccessRecord& rec = ctx.history[ctx.history_next];
  ctx.history_next = (ctx.history_next + 1) % ctx.history.size();
  rec = AccessRecord{base, size, label, clock, is_write};
}

const Runtime::AccessRecord* Runtime::find_history(const Context& ctx, std::uintptr_t addr,
                                                   std::uint64_t clock, bool is_write) const {
  const AccessRecord* best = nullptr;
  for (const AccessRecord& rec : ctx.history) {
    if (rec.size == 0 || rec.is_write != is_write) {
      continue;
    }
    if (addr < rec.base || addr >= rec.base + rec.size) {
      continue;
    }
    if ((rec.clock & ShadowCell::kClockMask) == clock) {
      return &rec;  // exact epoch match
    }
    if (best == nullptr || rec.clock > best->clock) {
      best = &rec;  // fall back to the most recent covering record
    }
  }
  return best;
}

void Runtime::report_race(std::uintptr_t addr, std::size_t access_size, bool cur_is_write,
                          const char* cur_label, std::uint64_t cur_clock, const ShadowCell& prev) {
  const Context& prev_ctx = *contexts_[prev.ctx()];
  const Context& cur_ctx = *contexts_[current_];

  RaceReport report;
  report.addr = addr;
  report.access_size = access_size;
  report.current = RaceAccess{current_, cur_ctx.info.kind, cur_ctx.info.name, cur_is_write,
                              cur_clock, cur_label != nullptr ? cur_label : ""};
  report.previous = RaceAccess{prev.ctx(), prev_ctx.info.kind, prev_ctx.info.name, prev.is_write(),
                               prev.clock(), ""};
  if (const AccessRecord* rec = find_history(prev_ctx, addr, prev.clock(), prev.is_write());
      rec != nullptr && rec->label != nullptr) {
    report.previous.label = rec->label;
  }

  if (!suppressions_.empty() && suppressions_.matches(report)) {
    metrics_.races_suppressed.increment();
    return;
  }
  metrics_.races_detected.increment();

  // Dedupe by (unordered context pair, page) so one bad kernel/MPI pairing
  // produces a single report per buffer region rather than millions per
  // granule (and not one per access direction).
  const CtxId lo = current_ < prev.ctx() ? current_ : prev.ctx();
  const CtxId hi = current_ < prev.ctx() ? prev.ctx() : current_;
  const std::uint64_t key = (static_cast<std::uint64_t>(lo) << 44) ^
                            (static_cast<std::uint64_t>(hi) << 24) ^ (addr >> 12);
  if (!report_dedup_.insert(key).second) {
    return;
  }
  if (reports_.size() >= config_.report_limit) {
    return;
  }
  CUSAN_LOG_INFO("{}", format_report(report));
  obs::emit_diagnostic(obs::Diagnostic{"rsan.race", obs::Severity::kError, obs::bound_rank(),
                                       format_report(report), 0});
  reports_.push_back(std::move(report));
}

}  // namespace rsan
