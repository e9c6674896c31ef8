// The rsan analysis runtime: a ThreadSanitizer-equivalent happens-before
// data race detector built around the annotation/fiber API surface the paper
// relies on (AnnotateHappensBefore/After, tsan_read_range/tsan_write_range,
// fiber create/switch).
//
// One Runtime instance exists per MPI rank (mirroring one TSan instance per
// MPI process). All calls into a Runtime must come from its rank's host
// thread: like the real tool, all analysis happens at API-interception time
// on the host thread, with fibers modelling the logical concurrency of CUDA
// streams and non-blocking MPI requests. Detection is therefore fully
// deterministic and independent of physical scheduling.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "rsan/clock.hpp"
#include "rsan/report.hpp"
#include "rsan/shadow.hpp"
#include "rsan/suppressions.hpp"

namespace rsan {

/// Default for RuntimeConfig::use_shadow_fast_path: true unless the
/// CUSAN_SHADOW_FAST_PATH environment variable is set to "0" (the CI leg that
/// pins the reference scan uses this).
[[nodiscard]] bool default_shadow_fast_path();

/// Default for RuntimeConfig::shadow_max_bytes: CUSAN_SHADOW_MAX_MB
/// megabytes, or 0 (unlimited) when unset/invalid.
[[nodiscard]] std::size_t default_shadow_max_bytes();

struct RuntimeConfig {
  /// Ablation knob (paper §V-B): when false, read_range/write_range become
  /// no-ops, removing all shadow-memory work while keeping fibers and
  /// happens-before bookkeeping intact.
  bool track_memory = true;
  /// Maximum number of stored race reports (all races are still counted).
  std::size_t report_limit = 256;
  /// Per-context access-history ring size, used to attach operation labels
  /// to the "previous access" side of reports.
  std::size_t history_size = 64;
  /// Ablation knob for the shadow fast path: each block keeps its uniform
  /// runs, and a segment inside a run is decided once on the run's cells
  /// instead of per granule. Detection results are bit-identical either
  /// way — the differential oracle and the dual-mode check_cutests run
  /// enforce this; the flag exists so the reference scan stays exercised and
  /// the speedup stays measurable.
  bool use_shadow_fast_path = default_shadow_fast_path();
  /// Upper bound on resident shadow memory (0 = unlimited). At the cap,
  /// tracking degrades for untracked blocks — counted in
  /// rsan.degraded_blocks/degraded_accesses — instead of aborting the run
  /// (robustness under substrate memory pressure).
  std::size_t shadow_max_bytes = default_shadow_max_bytes();
  /// Owning rank, for the execution-graph recorder (schedsim): sync events
  /// this runtime records land on the rank's host lane. -1 = unattributed
  /// (raw rsan unit tests outside a capi session).
  int rank = -1;
};

struct ContextInfo {
  CtxId id{kInvalidCtx};
  CtxKind kind{CtxKind::kHostThread};
  std::string name;
  bool alive{true};
};

class Runtime {
 public:
  /// Event counts go to `metrics` as rsan.<name> (together with cusan's CUDA
  /// counters they regenerate the paper's Table I); it must outlive the
  /// Runtime.
  explicit Runtime(obs::MetricsRegistry& metrics, RuntimeConfig config = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // -- Contexts / fibers ----------------------------------------------------

  /// Create a new fiber. Its clock starts as a copy of the creating
  /// context's clock (like thread creation, fiber creation is a
  /// synchronization point: everything that happened before the create
  /// happens before all fiber events).
  CtxId create_fiber(CtxKind kind, std::string name);

  /// Mark a fiber dead. Its clock and name are retained so that races
  /// against past accesses still produce meaningful reports.
  void destroy_fiber(CtxId id);

  /// Switch the executing host thread onto `id`. Carries no synchronization
  /// (matches TSan fiber semantics).
  void switch_to_fiber(CtxId id);

  [[nodiscard]] CtxId current_ctx() const { return current_; }
  [[nodiscard]] CtxId host_ctx() const { return host_; }
  [[nodiscard]] const ContextInfo& context(CtxId id) const;
  [[nodiscard]] std::size_t context_count() const { return contexts_.size(); }

  // -- Synchronization annotations -------------------------------------------

  /// Release: publish the current context's clock on the sync object `key`,
  /// then advance the current context's epoch.
  void happens_before(const void* key);

  /// Acquire: join the sync object's stored clock (if any) into the current
  /// context's clock.
  void happens_after(const void* key);

  [[nodiscard]] bool has_sync_object(const void* key) const;

  /// Drop a sync object (e.g. stream destroyed). Safe if absent.
  void release_sync_object(const void* key);

  // -- Memory access annotations ---------------------------------------------

  /// Annotate a range access. `label` should describe the operation (it is
  /// surfaced in race reports); use intern() for dynamically built labels.
  void read_range(const void* addr, std::size_t size, const char* label = nullptr);
  void write_range(const void* addr, std::size_t size, const char* label = nullptr);

  /// Single-element access instrumentation — what the TSan compiler pass
  /// emits for plain host loads/stores.
  void plain_read(const void* addr, std::size_t size);
  void plain_write(const void* addr, std::size_t size);

  /// Prove-and-elide annotation (cusan CUSAN_PROVE_ELIDE): race-CHECKS the
  /// range against shadow cells and proven regions exactly like
  /// read_range/write_range would, but stores no shadow cells — instead it
  /// publishes (or refreshes) a byte-precise *proven region* carrying the
  /// current context's epoch. Future conflicting accesses by other contexts
  /// race against the region with the same happens-before logic they would
  /// apply to cells, so verdicts stay bit-identical while proven launches
  /// leave the shadow table untouched (never-touched blocks are skipped in
  /// O(1) without allocating). The trailing bool has no effect: it keeps the
  /// symbol that bench_e2e's traced twin wraps (bench_e2e/wrap_table.inc).
  void proven_range(const void* addr, std::size_t size, bool is_write, const char* label = nullptr,
                    bool /*unused*/ = true);

  /// Live proven regions (tests / diagnostics).
  [[nodiscard]] std::size_t proven_region_count() const { return regions_.size(); }

  /// Forget all shadow state for a range (memory freed / reused).
  void reset_shadow_range(const void* addr, std::size_t size);

  /// TSan's AnnotateIgnore{Reads,Writes}Begin/End: while the current
  /// context's ignore depth is positive, its memory accesses are neither
  /// tracked nor checked (synchronization annotations stay active). Nests.
  void ignore_begin();
  void ignore_end();
  [[nodiscard]] bool ignoring() const;

  // -- Reports / stats ---------------------------------------------------------

  [[nodiscard]] const std::vector<RaceReport>& reports() const { return reports_; }
  void clear_reports();
  [[nodiscard]] std::size_t shadow_resident_bytes() const { return shadow_.resident_bytes(); }
  /// Read-only view of the shadow table (differential oracle / tests).
  [[nodiscard]] const ShadowMemory& shadow() const { return shadow_; }

  /// Intern a dynamically built label; the returned pointer stays valid for
  /// the Runtime's lifetime.
  const char* intern(std::string label);

  /// Suppression patterns (TSan suppression-file style); matched reports are
  /// counted in rsan.races_suppressed instead of being reported.
  [[nodiscard]] SuppressionList& suppressions() { return suppressions_; }
  [[nodiscard]] const SuppressionList& suppressions() const { return suppressions_; }

 private:
  /// Handles on the rsan.* counters of the registry passed at construction.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& r) : registry(r) {}
    obs::MetricsRegistry& registry;
    obs::Counter& fiber_switches = registry.counter("rsan.fiber_switches");
    /// AnnotateHappensBefore (release) calls.
    obs::Counter& hb_before = registry.counter("rsan.hb_before");
    /// AnnotateHappensAfter (acquire) calls.
    obs::Counter& hb_after = registry.counter("rsan.hb_after");
    obs::Counter& read_range_calls = registry.counter("rsan.read_range_calls");
    obs::Counter& write_range_calls = registry.counter("rsan.write_range_calls");
    obs::Counter& read_range_bytes = registry.counter("rsan.read_range_bytes");
    obs::Counter& write_range_bytes = registry.counter("rsan.write_range_bytes");
    /// Single-access instrumentation (TSan pass analog).
    obs::Counter& plain_reads = registry.counter("rsan.plain_reads");
    obs::Counter& plain_writes = registry.counter("rsan.plain_writes");
    /// Race events (at most one per range call).
    obs::Counter& races_detected = registry.counter("rsan.races_detected");
    /// Race events silenced by a suppression.
    obs::Counter& races_suppressed = registry.counter("rsan.races_suppressed");
    /// Accesses skipped inside ignore scopes.
    obs::Counter& ignored_accesses = registry.counter("rsan.ignored_accesses");
    // Shadow fast path (all zero when use_shadow_fast_path is false).
    /// Block segments decided on their block's uniform runs alone.
    obs::Counter& fastpath_block_hits = registry.counter("rsan.fastpath_block_hits");
    /// Block segments with at least one granule on the per-granule scan.
    obs::Counter& fastpath_block_misses = registry.counter("rsan.fastpath_block_misses");
    /// Granule scans skipped by deciding on a run's cells.
    obs::Counter& fastpath_granules_elided = registry.counter("rsan.fastpath_granules_elided");
    // Degradation under shadow_max_bytes (zero when no cap is hit).
    /// Block segments untracked (budget denied allocation).
    obs::Counter& degraded_blocks = registry.counter("rsan.degraded_blocks");
    /// Range calls with at least one untracked segment.
    obs::Counter& degraded_accesses = registry.counter("rsan.degraded_accesses");
    // Prove-and-elide (all zero when CUSAN_PROVE_ELIDE is off).
    obs::Counter& proven_range_calls = registry.counter("rsan.proven_range_calls");
    obs::Counter& proven_bytes = registry.counter("rsan.proven_bytes");
    /// Resident blocks scanned check-only.
    obs::Counter& proven_scan_blocks = registry.counter("rsan.proven_scan_blocks");
    /// Never-touched blocks skipped in O(1).
    obs::Counter& proven_block_skips = registry.counter("rsan.proven_block_skips");
    /// Access-vs-proven-region overlap checks.
    obs::Counter& region_checks = registry.counter("rsan.region_checks");
    /// Granules whose stalest epoch was dropped to make room for a new store
    /// (all four slots valid, none subsumable). Nonzero means the cell array
    /// may have forgotten a conflicting epoch, which is why the prove-elide
    /// differential oracle keys its strictness on it.
    obs::Counter& slot_evictions = registry.counter("rsan.slot_evictions");
    /// Raw-cell pages allocated (one per 128 granules first written).
    obs::Counter& cell_pages = registry.counter("rsan.cell_pages");
  };

  /// Per-block and per-granule events of one range call, summed here and
  /// added to the metrics once when the call ends (flush_tally).
  struct Tally {
    std::uint64_t fastpath_block_hits{};
    std::uint64_t fastpath_block_misses{};
    std::uint64_t fastpath_granules_elided{};
    std::uint64_t degraded_blocks{};
    std::uint64_t proven_scan_blocks{};
    std::uint64_t proven_block_skips{};
    std::uint64_t region_checks{};
    std::uint64_t slot_evictions{};
  };

  struct AccessRecord {
    std::uintptr_t base{};
    std::size_t size{};
    const char* label{nullptr};
    std::uint64_t clock{};
    bool is_write{false};
  };

  struct Context {
    ContextInfo info;
    VectorClock clock;
    std::vector<AccessRecord> history;  // ring buffer
    std::size_t history_next{0};
    int ignore_depth{0};
  };

  /// One proven-region record: stands in for the shadow cells an elided
  /// launch would have stored. Keyed by (ctx, base, size, kind) so a repeated
  /// launch refreshes its epoch in place; byte extents are granule-rounded at
  /// check time to match the shadow's tracking granularity exactly.
  struct ProvenRegion {
    std::uintptr_t base{};
    std::size_t size{};
    CtxId ctx{kInvalidCtx};
    std::uint64_t clock{};
    bool is_write{false};
  };

  /// One range call as the block scans see it.
  struct Access {
    std::uintptr_t base;
    std::size_t size;
    bool is_write;
    const char* label;
    const Context& cur;
    std::uint64_t cur_clock;
    ShadowCell fresh;  ///< the cell the call stores
    bool reported{false};  ///< this call already reported a race
  };

  void access_range(const void* addr, std::size_t size, bool is_write, const char* label);
  void check_regions(Access& a);
  void check_only_block(const ShadowBlock& blk, std::uintptr_t block_key, std::size_t g_lo,
                        std::size_t g_hi, Access& a);
  void store_block(ShadowBlock& blk, std::uintptr_t block_key, std::size_t g_lo, std::size_t g_hi,
                   Access& a);
  /// The slot `fresh` goes into in `width` granules of `run` from granule
  /// `g`, decided once on the run's cells (races noted, tallies counted).
  int store_slot(const Run& run, std::uintptr_t block_key, std::size_t g, std::size_t width,
                 Access& a);
  /// Reference scan of raw granules [lo, hi]. With the fast path on, returns
  /// whether they came out uniform, with their cells in `uniform`.
  bool scan_raw(ShadowBlock& blk, std::uintptr_t block_key, std::size_t lo, std::size_t hi,
                Access& a, GranuleCells& uniform);
  /// A race against the valid cell `racing` at granule `g` of block
  /// `block_key`: the first such race of the call is reported.
  void note_race(ShadowCell racing, std::uintptr_t block_key, std::size_t g, Access& a);
  void flush_tally();
  void record_history(Context& ctx, std::uintptr_t base, std::size_t size, bool is_write,
                      const char* label, std::uint64_t clock);
  [[nodiscard]] const AccessRecord* find_history(const Context& ctx, std::uintptr_t addr,
                                                 std::uint64_t clock, bool is_write) const;
  void report_race(std::uintptr_t addr, std::size_t access_size, bool cur_is_write,
                   const char* cur_label, std::uint64_t cur_clock, const ShadowCell& prev);

  RuntimeConfig config_;
  std::vector<std::unique_ptr<Context>> contexts_;
  CtxId host_{kInvalidCtx};
  CtxId current_{kInvalidCtx};
  ShadowMemory shadow_;
  std::unordered_map<std::uintptr_t, VectorClock> sync_objects_;
  Metrics metrics_;
  Tally tally_;
  /// shadow_.cell_pages() when flush_tally() last added to rsan.cell_pages.
  std::size_t cell_pages_counted_{0};
  SuppressionList suppressions_;
  std::vector<RaceReport> reports_;
  std::unordered_set<std::uint64_t> report_dedup_;
  std::deque<std::string> interned_;
  /// Proven regions published by elided launches (linear scan: a handful of
  /// hot kernels per rank). Cleared per-range by reset_shadow_range.
  std::vector<ProvenRegion> regions_;
  /// store_block's output runs (one per run a segment overlaps, one per raw
  /// stretch between them); a member, so a call does not zero it.
  std::array<Run, 2 * kMaxRuns + 1> run_scratch_;
};

}  // namespace rsan
