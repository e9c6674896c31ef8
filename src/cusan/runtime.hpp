// The CuSan runtime (paper §IV-A): receives callbacks from the instrumented
// CUDA API (emitted by capi, standing in for the LLVM pass of §IV-B2) and
// maps CUDA's concurrency/synchronization semantics onto the rsan (TSan)
// fiber and annotation API.
//
//  * every CUDA stream is a distinct fiber;
//  * a kernel launch switches to the stream fiber, annotates each pointer
//    argument's whole allocation range per its statically derived access
//    mode (sizes resolved via TypeART), and starts a happens-before arc;
//  * explicit and implicit synchronization terminates arcs;
//  * legacy default-stream semantics are modelled by fanning arcs out to /
//    in from blocking streams (paper Fig. 3 / §IV-A-e).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cusan/sync_model.hpp"
#include "cusan/trace.hpp"
#include "cusim/device.hpp"
#include "kir/access_analysis.hpp"
#include "kir/affine_analysis.hpp"
#include "kir/interval_analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "rsan/runtime.hpp"
#include "typeart/runtime.hpp"

namespace cusan {

/// Prove-and-elide mode (CUSAN_PROVE_ELIDE, docs/architecture.md):
///  * kOff  — every launch annotates tracked ranges (paper behaviour).
///  * kFull — arguments whose affine summary satisfies theorem 1 (per-thread
///            disjointness) take the proven-region path: a check-only shadow
///            scan plus a region publish, with zero shadow-cell stores.
enum class ProveElide : std::uint8_t { kOff, kFull };

/// The mode a CUSAN_PROVE_ELIDE value names: "off" or "" is kOff, "full" is
/// kFull, anything else is unrecognized (nullopt).
[[nodiscard]] std::optional<ProveElide> parse_prove_elide(std::string_view value);

/// CUSAN_PROVE_ELIDE environment default, parsed once per process. Unset
/// means kOff; an unrecognized value is reported once on stderr and also
/// means kOff.
[[nodiscard]] ProveElide default_prove_elide();

struct Config {
  /// Ablation knob (paper §V-B): when false, kernel/memcpy/memset memory
  /// ranges are not annotated, but fibers and synchronization modelling stay
  /// active. The paper reports near-vanilla overhead in this mode.
  bool track_memory_accesses = true;
  /// When true (default), kernel arguments whose kir interval summary bounds
  /// the touched byte sub-range are annotated only over those sub-ranges
  /// (clamped to the TypeART allocation); ⊤ summaries fall back to the whole
  /// allocation. When false, every argument uses the paper's whole-range
  /// annotation (ablation baseline).
  bool use_access_intervals = true;
  /// Prove-and-elide mode; see ProveElide. Detection verdicts are
  /// bit-identical either way (enforced by the differential tests): elision
  /// trades dynamic tracking work against static proof obligations.
  ProveElide prove_elide = default_prove_elide();
};

/// One pointer argument of a kernel launch, paired with the access mode the
/// kir dataflow analysis derived for the corresponding parameter.
struct KernelArgAccess {
  const void* ptr{nullptr};
  kir::AccessMode mode{kir::AccessMode::kNone};
  /// Byte-precise access intervals for the parameter (relative to `ptr`);
  /// nullptr means "unknown" and is treated as ⊤ (whole allocation).
  const kir::ParamIntervals* intervals{nullptr};
  /// Affine summary + theorem-1 verdict for the parameter; nullptr (or a
  /// proof that is not race_free) keeps the argument on the tracked path.
  const kir::ParamProof* proof{nullptr};
};

class Runtime {
 public:
  /// `tsan`, `types` and `metrics` must outlive the Runtime. One Runtime per
  /// rank. CUDA-level event counts (the "CUDA" block of the paper's Table I)
  /// go to `metrics` as cusan.<name>.
  Runtime(rsan::Runtime* tsan, typeart::Runtime* types, obs::MetricsRegistry& metrics,
          Config config = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // -- Stream / event lifecycle callbacks --------------------------------------

  void on_stream_create(const cusim::Stream* stream);
  void on_stream_destroy(const cusim::Stream* stream);
  void on_event_create(const cusim::Event* event);
  void on_event_destroy(const cusim::Event* event);

  // -- Kernel launches -----------------------------------------------------------

  /// `kernel_name` must have static storage duration (it labels reports).
  void on_kernel_launch(const cusim::Stream* stream, const char* kernel_name,
                        std::span<const KernelArgAccess> args);

  // -- Explicit synchronization -----------------------------------------------------

  void on_stream_synchronize(const cusim::Stream* stream);
  /// Terminate the arcs of every stream of every bound device.
  void on_device_synchronize();
  /// cudaDeviceSynchronize with an explicit device (multi-GPU ranks): only
  /// that device's streams are synchronized.
  void on_device_synchronize(const cusim::Device* device);
  void on_event_record(const cusim::Event* event, const cusim::Stream* stream);
  void on_event_synchronize(const cusim::Event* event);
  void on_stream_wait_event(const cusim::Stream* stream, const cusim::Event* event);
  /// Successful cudaStreamQuery — a busy-wait synchronization point (§III-B1).
  void on_stream_query_success(const cusim::Stream* stream);
  void on_event_query_success(const cusim::Event* event);

  // -- Memory operations (implicit synchronization, §III-B2) -----------------------

  void on_memcpy(void* dst, const void* src, std::size_t bytes, cusim::MemcpyDir dir);
  void on_memcpy_async(void* dst, const void* src, std::size_t bytes, cusim::MemcpyDir dir,
                       const cusim::Stream* stream);
  void on_memset(void* dst, std::size_t bytes);
  void on_memset_async(void* dst, std::size_t bytes, const cusim::Stream* stream);

  /// cudaMemcpy2D(Async): per-row access annotations, memcpy synchrony.
  void on_memcpy_2d(void* dst, std::size_t dpitch, const void* src, std::size_t spitch,
                    std::size_t width, std::size_t height, cusim::MemcpyDir dir,
                    const cusim::Stream* stream, bool async);
  /// cudaMemPrefetchAsync: an ordering-only stream op — prefetching does not
  /// constitute a data access, so no ranges are annotated.
  void on_mem_prefetch(const cusim::Stream* stream);
  /// cudaLaunchHostFunc: a stream op whose body's accesses are opaque to the
  /// analysis (documented limitation); ordering semantics are modelled.
  void on_host_func(const cusim::Stream* stream);

  // -- Allocation lifecycle ----------------------------------------------------------

  /// Clears shadow state for freed device memory so address reuse cannot
  /// produce stale-epoch false races.
  void on_free(const void* ptr);

  [[nodiscard]] rsan::Runtime& tsan() { return *tsan_; }
  [[nodiscard]] typeart::Runtime& typeart_rt() { return *types_; }
  /// Register a device with this runtime ("context per CUDA device",
  /// paper §IV-A-a). May be called multiple times for multi-GPU ranks; the
  /// first bound device is the primary one (its legacy stream backs the
  /// no-stream memory-op overloads).
  void bind_device(const cusim::Device* device) { devices_.push_back(device); }
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }

 private:
  /// Handles on the cusan.* counters of the registry passed at construction.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& r) : registry(r) {}
    obs::MetricsRegistry& registry;
    /// User streams + default stream on first use.
    obs::Counter& streams_created = registry.counter("cusan.streams_created");
    obs::Counter& events_created = registry.counter("cusan.events_created");
    obs::Counter& event_records = registry.counter("cusan.event_records");
    /// Memset + memsetAsync.
    obs::Counter& memsets = registry.counter("cusan.memsets");
    /// Memcpy + memcpyAsync.
    obs::Counter& memcpys = registry.counter("cusan.memcpys");
    /// Device/stream/event synchronize + successful queries + streamWaitEvent.
    obs::Counter& sync_calls = registry.counter("cusan.sync_calls");
    obs::Counter& kernel_launches = registry.counter("cusan.kernel_launches");
    /// cudaMemPrefetchAsync hints.
    obs::Counter& prefetches = registry.counter("cusan.prefetches");
    /// cudaLaunchHostFunc callbacks.
    obs::Counter& host_funcs = registry.counter("cusan.host_funcs");
    /// Semantic happens-before arcs started by CuSan.
    obs::Counter& hb_before = registry.counter("cusan.hb_before");
    /// Semantic happens-before arcs terminated by CuSan.
    obs::Counter& hb_after = registry.counter("cusan.hb_after");
    /// Pointer args with no TypeART allocation info.
    obs::Counter& unknown_kernel_args = registry.counter("cusan.unknown_kernel_args");
    /// Args annotated via bounded byte intervals.
    obs::Counter& interval_kernel_args = registry.counter("cusan.interval_kernel_args");
    /// Args annotated whole-allocation (⊤ fallback).
    obs::Counter& whole_range_kernel_args = registry.counter("cusan.whole_range_kernel_args");
    /// Bytes covered by interval annotations.
    obs::Counter& interval_bytes_annotated = registry.counter("cusan.interval_bytes_annotated");
    /// Allocation bytes skipped thanks to intervals.
    obs::Counter& interval_bytes_elided = registry.counter("cusan.interval_bytes_elided");
    /// rsan range calls issued for kernel arguments.
    obs::Counter& kernel_annotation_calls = registry.counter("cusan.kernel_annotation_calls");
    // Prove-and-elide (CUSAN_PROVE_ELIDE; all zero when off).
    /// Launches with at least one elided argument.
    obs::Counter& proof_elided_launches = registry.counter("cusan.proof_elided_launches");
    /// Arguments elided via an affine proof.
    obs::Counter& proof_elided_args = registry.counter("cusan.proof_elided_args");
    /// Bytes covered by elided annotations.
    obs::Counter& proof_elided_bytes = registry.counter("cusan.proof_elided_bytes");
    /// Proofs voided by aliasing pointer arguments.
    obs::Counter& proof_alias_rejects = registry.counter("cusan.proof_alias_rejects");
  };

  struct StreamState {
    rsan::CtxId fiber{rsan::kInvalidCtx};
    const cusim::Device* device{nullptr};
    bool is_default{false};
    bool non_blocking{false};
    std::uint64_t ops_issued{0};
    // Legacy-barrier dirty tracking: last observed op counts of the "other
    // side" when this stream last acquired it.
    std::uint64_t default_ops_acquired{0};
    char complete_key{};  ///< &complete_key is the stream's HB sync object
    char submit_key{};    ///< &submit_key orders host -> fiber at op issue
    std::uint64_t acquired_by_default{0};  ///< this stream's ops_issued when default last acquired it
  };

  struct EventState {
    const cusim::Stream* stream{nullptr};
    char key{};  ///< &key is the event's HB sync object
  };

  StreamState& stream_state(const cusim::Stream* stream);
  EventState& event_state(const cusim::Event* event);

  /// Common op-issue protocol: submit-order sync, fiber switch, legacy
  /// barrier acquires. Leaves the current fiber ON the stream fiber; caller
  /// must call finish_op afterwards.
  void begin_op(StreamState& ss);
  /// Start the completion arc (+ legacy fan-out) and return to the host.
  void finish_op(StreamState& ss);

  /// Annotate an access against the *whole allocation* containing `ptr`
  /// (paper §V-B); falls back to [ptr, ptr+fallback_size) for untracked
  /// memory.
  void annotate_access(const void* ptr, std::size_t fallback_size, bool read, bool write,
                       const char* label);

  /// Interval-refined kernel-argument annotation: when the kir summary bounds
  /// the touched byte sub-ranges, annotate only those ranges (clamped to the
  /// TypeART allocation extent); directions whose summary is ⊤/unknown fall
  /// back to whole-allocation annotate_access.
  void annotate_kernel_arg(const KernelArgAccess& arg, const char* label);

  /// Per-argument elision plan, built at launch when prove_elide is on. The
  /// interval vectors are clamped to the allocation and relative to `base`.
  struct ArgPlan {
    bool elide{false};
    bool read{false};
    bool write{false};
    const char* base{nullptr};
    std::size_t extent{0};
    std::vector<kir::Interval> read_iv;
    std::vector<kir::Interval> write_iv;
  };

  /// Kernel-argument annotation for one launch: decides per-arg elision
  /// (alias guard + bounded affine resolution) and routes each argument to
  /// the proven or the tracked path.
  void launch_args(const char* kernel_name, std::span<const KernelArgAccess> args);

  [[nodiscard]] const char* kernel_arg_label(const char* kernel_name, std::size_t arg_index,
                                             kir::AccessMode mode);
  [[nodiscard]] cusim::MemKind kind_of(const void* ptr) const;

  static void trace_record(TraceKind kind, std::uint64_t bytes = 0,
                           const char* detail = nullptr) {
    // Every observed CUDA call is an instant on the rank's host track
    // (emit_instant is one relaxed load when CUSAN_TRACE is off).
    obs::emit_instant(to_obs_kind(kind), obs::kHostTrack,
                      detail != nullptr ? detail : to_string(kind), bytes);
  }

  rsan::Runtime* tsan_;
  typeart::Runtime* types_;
  std::vector<const cusim::Device*> devices_;
  Config config_;
  Metrics metrics_;
  std::unordered_map<const cusim::Stream*, StreamState> streams_;
  std::unordered_map<const cusim::Event*, EventState> events_;
  std::unordered_map<const cusim::Device*, StreamState*> default_states_;
  std::unordered_map<std::uint64_t, const char*> label_cache_;
  /// Per-kernel elision metrics (cusan.prove_elide.<kernel>.launches),
  /// cached by kernel name.
  std::unordered_map<const void*, obs::Counter*> elide_metrics_;
};

}  // namespace cusan
