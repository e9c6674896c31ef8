#include "cusan/runtime.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace cusan {

std::optional<ProveElide> parse_prove_elide(std::string_view value) {
  if (value.empty() || value == "off") {
    return ProveElide::kOff;
  }
  if (value == "full") {
    return ProveElide::kFull;
  }
  return std::nullopt;
}

ProveElide default_prove_elide() {
  // Parsed exactly once per process (thread-safe magic static), so a bad
  // value is reported once, not once per session.
  static const ProveElide mode = [] {
    const char* env = std::getenv("CUSAN_PROVE_ELIDE");
    if (env == nullptr) {
      return ProveElide::kOff;
    }
    if (const std::optional<ProveElide> parsed = parse_prove_elide(env)) {
      return *parsed;
    }
    std::fprintf(stderr,
                 "cusan: unrecognized CUSAN_PROVE_ELIDE value '%s' (expected off|full)\n", env);
    return ProveElide::kOff;
  }();
  return mode;
}

Runtime::Runtime(rsan::Runtime* tsan, typeart::Runtime* types, obs::MetricsRegistry& metrics,
                 Config config)
    : tsan_(tsan), types_(types), config_(config), metrics_(metrics) {
  CUSAN_ASSERT(tsan != nullptr && types != nullptr);
}

// -- Stream / event lifecycle ------------------------------------------------------

Runtime::StreamState& Runtime::stream_state(const cusim::Stream* stream) {
  CUSAN_ASSERT(stream != nullptr);
  const auto it = streams_.find(stream);
  if (it != streams_.end()) {
    return it->second;
  }
  StreamState state;
  state.device = stream->device();
  state.is_default = stream->is_default();
  state.non_blocking = stream->is_non_blocking();
  const std::string name = state.is_default
                               ? std::string("default stream")
                               : common::format("stream {}", stream->id());
  state.fiber = tsan_->create_fiber(rsan::CtxKind::kStreamFiber, name);
  metrics_.slot("cusan.streams_created").increment_owned();
  auto [pos, inserted] = streams_.emplace(stream, state);
  CUSAN_ASSERT(inserted);
  if (state.is_default) {
    default_states_[state.device] = &pos->second;
  }
  return pos->second;
}

Runtime::EventState& Runtime::event_state(const cusim::Event* event) {
  CUSAN_ASSERT(event != nullptr);
  return events_[event];
}

void Runtime::on_stream_create(const cusim::Stream* stream) {
  trace_record(TraceKind::kStreamCreate);
  (void)stream_state(stream);
}

void Runtime::on_stream_destroy(const cusim::Stream* stream) {
  trace_record(TraceKind::kStreamDestroy);
  const auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return;
  }
  // cudaStreamDestroy waits for the stream's work: terminate its arc.
  tsan_->happens_after(&it->second.complete_key);
  metrics_.slot("cusan.hb_after").increment_owned();
  tsan_->release_sync_object(&it->second.complete_key);
  tsan_->release_sync_object(&it->second.submit_key);
  tsan_->destroy_fiber(it->second.fiber);
  if (default_states_[it->second.device] == &it->second) {
    default_states_.erase(it->second.device);
  }
  streams_.erase(it);
}

void Runtime::on_event_create(const cusim::Event* event) {
  trace_record(TraceKind::kEventCreate);
  (void)event_state(event);
  metrics_.slot("cusan.events_created").increment_owned();
}

void Runtime::on_event_destroy(const cusim::Event* event) {
  trace_record(TraceKind::kEventDestroy);
  const auto it = events_.find(event);
  if (it == events_.end()) {
    return;
  }
  tsan_->release_sync_object(&it->second.key);
  events_.erase(it);
}

// -- Op issue protocol ---------------------------------------------------------------

void Runtime::begin_op(StreamState& ss) {
  // Order host -> stream fiber at op submission (FIFO launch order). This is
  // internal plumbing, deliberately not counted in the Table I HB counters.
  tsan_->happens_before(&ss.submit_key);
  tsan_->switch_to_fiber(ss.fiber);
  tsan_->happens_after(&ss.submit_key);

  // Legacy default-stream barrier, acquire side (paper Fig. 3): an op on the
  // default stream starts only after all prior work on blocking streams; an
  // op on a blocking stream starts only after all prior default-stream work.
  // A per-thread-mode default stream (created non-blocking, §VI-B) carries
  // no barriers in either direction.
  StreamState* default_state = nullptr;
  if (const auto it = default_states_.find(ss.device); it != default_states_.end()) {
    default_state = it->second;
  }
  if (ss.is_default && !ss.non_blocking) {
    for (auto& [stream, other] : streams_) {
      if (&other == &ss || other.non_blocking || other.device != ss.device) {
        continue;
      }
      if (other.ops_issued > other.acquired_by_default) {
        tsan_->happens_after(&other.complete_key);
        other.acquired_by_default = other.ops_issued;
        metrics_.slot("cusan.hb_after").increment_owned();
      }
    }
  } else if (!ss.non_blocking && default_state != nullptr && !default_state->non_blocking &&
             default_state->ops_issued > ss.default_ops_acquired) {
    tsan_->happens_after(&default_state->complete_key);
    ss.default_ops_acquired = default_state->ops_issued;
    metrics_.slot("cusan.hb_after").increment_owned();
  }
}

void Runtime::finish_op(StreamState& ss) {
  tsan_->happens_before(&ss.complete_key);
  metrics_.slot("cusan.hb_before").increment_owned();
  ++ss.ops_issued;
  if (ss.is_default && !ss.non_blocking) {
    // Fan the arc out to every blocking stream of the same device (paper
    // §V-A1): a later synchronization on such a stream must also cover this
    // default-stream op, because legacy semantics block the stream behind it.
    for (auto& [stream, other] : streams_) {
      if (&other == &ss || other.non_blocking || other.device != ss.device) {
        continue;
      }
      tsan_->happens_before(&other.complete_key);
      metrics_.slot("cusan.hb_before").increment_owned();
    }
  }
  tsan_->switch_to_fiber(tsan_->host_ctx());
}

// -- Kernel launches ---------------------------------------------------------------------

const char* Runtime::kernel_arg_label(const char* kernel_name, std::size_t arg_index,
                                      kir::AccessMode mode) {
  const std::uint64_t key = reinterpret_cast<std::uintptr_t>(kernel_name) * 31 +
                            arg_index * 4 + static_cast<std::uint64_t>(mode);
  const auto it = label_cache_.find(key);
  if (it != label_cache_.end()) {
    return it->second;
  }
  const char* label = tsan_->intern(
      common::format("kernel '{}' arg {} [{}]", kernel_name, arg_index, to_string(mode)));
  label_cache_.emplace(key, label);
  return label;
}

void Runtime::annotate_access(const void* ptr, std::size_t fallback_size, bool read, bool write,
                              const char* label) {
  // Paper §V-B: kernel argument accesses cover the *whole* allocation the
  // pointer belongs to, since the static analysis cannot bound the touched
  // sub-range. TypeART resolves the allocation extent.
  const void* base = ptr;
  std::size_t size = fallback_size;
  if (const auto info = types_->find(ptr); info.has_value()) {
    base = reinterpret_cast<const void*>(info->base);
    size = info->extent;
  } else if (fallback_size == 0) {
    metrics_.slot("cusan.unknown_kernel_args").increment_owned();
    return;
  }
  if (read) {
    metrics_.slot("cusan.kernel_annotation_calls").increment_owned();
    tsan_->read_range(base, size, label);
  }
  if (write) {
    metrics_.slot("cusan.kernel_annotation_calls").increment_owned();
    tsan_->write_range(base, size, label);
  }
}

void Runtime::annotate_kernel_arg(const KernelArgAccess& arg, const char* label) {
  const bool read = kir::reads(arg.mode);
  const bool write = kir::writes(arg.mode);
  const kir::ParamIntervals* pi = arg.intervals;
  const bool use_intervals = config_.use_access_intervals && pi != nullptr;
  const bool read_bounded = read && use_intervals && pi->read.is_bounded();
  const bool write_bounded = write && use_intervals && pi->write.is_bounded();
  if (!read_bounded && !write_bounded) {
    // ⊤ (or unknown) summary in every active direction: paper behaviour,
    // annotate the whole allocation.
    metrics_.slot("cusan.whole_range_kernel_args").increment_owned();
    annotate_access(arg.ptr, 0, read, write, label);
    return;
  }
  metrics_.slot("cusan.interval_kernel_args").increment_owned();
  // Resolve the allocation so intervals can be clamped to its extent.
  // Untracked pointers keep the bounded sub-ranges relative to the raw
  // pointer — strictly more information than the unknown-arg drop.
  const auto* ptr_bytes = static_cast<const char*>(arg.ptr);
  const char* alloc_lo = ptr_bytes;
  const char* alloc_hi = nullptr;
  bool tracked = false;
  if (const auto info = types_->find(arg.ptr); info.has_value()) {
    alloc_lo = reinterpret_cast<const char*>(info->base);
    alloc_hi = alloc_lo + info->extent;
    tracked = true;
  }
  const bool delegates = (read && !read_bounded) || (write && !write_bounded);
  if (!tracked && !delegates) {
    // annotate_access would have counted it
    metrics_.slot("cusan.unknown_kernel_args").increment_owned();
  }
  const auto annotate_set = [&](const kir::IntervalSet& set, bool is_write) {
    std::uint64_t covered = 0;
    for (const kir::Interval& iv : set.intervals()) {
      const char* lo = ptr_bytes + iv.lo;
      const char* hi = ptr_bytes + iv.hi;
      if (tracked) {
        lo = std::max(lo, alloc_lo);
        hi = std::min(hi, alloc_hi);
      }
      if (hi <= lo) {
        continue;
      }
      const auto bytes = static_cast<std::size_t>(hi - lo);
      covered += bytes;
      metrics_.slot("cusan.kernel_annotation_calls").increment_owned();
      if (is_write) {
        tsan_->write_range(lo, bytes, label);
      } else {
        tsan_->read_range(lo, bytes, label);
      }
    }
    metrics_.slot("cusan.interval_bytes_annotated").add_owned(covered);
    if (tracked) {
      const auto extent = static_cast<std::uint64_t>(alloc_hi - alloc_lo);
      metrics_.slot("cusan.interval_bytes_elided").add_owned(extent > covered ? extent - covered : 0);
    }
  };
  if (read) {
    if (read_bounded) {
      annotate_set(pi->read, /*is_write=*/false);
    } else {
      annotate_access(arg.ptr, 0, /*read=*/true, /*write=*/false, label);
    }
  }
  if (write) {
    if (write_bounded) {
      annotate_set(pi->write, /*is_write=*/true);
    } else {
      annotate_access(arg.ptr, 0, /*read=*/false, /*write=*/true, label);
    }
  }
}

void Runtime::on_kernel_launch(const cusim::Stream* stream, const char* kernel_name,
                               std::span<const KernelArgAccess> args) {
  metrics_.slot("cusan.kernel_launches").increment_owned();
  trace_record(TraceKind::kKernelLaunch, 0, kernel_name);
  StreamState& ss = stream_state(stream);
  begin_op(ss);
  if (config_.track_memory_accesses) {
    launch_args(kernel_name, args);
  }
  finish_op(ss);
}

void Runtime::launch_args(const char* kernel_name, std::span<const KernelArgAccess> args) {
  // Elision derives its footprints from the byte-precise affine summaries, so
  // it is only consistent with interval-precision annotations: under the
  // paper's whole-range mode an elided argument would silently shrink to its
  // proven sub-range and erase the coarse-annotation races that mode is meant
  // to emulate.
  const bool prove = config_.prove_elide != ProveElide::kOff && config_.use_access_intervals;
  std::vector<ArgPlan> plans;
  if (prove) {
    plans.resize(args.size());
    // Pass 1: resolve allocations and build candidate footprints. An
    // argument is an elision candidate when theorem 1 proved the parameter
    // race-free and every active direction resolves to bounded byte
    // intervals; ⊤ in any active direction keeps the whole argument on the
    // tracked path (partial elision of one direction would leave the other
    // direction's cells racing against our own region).
    struct AllocUse {
      std::size_t arg_count{0};
      bool any_write{false};
    };
    std::unordered_map<const void*, AllocUse> uses;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const KernelArgAccess& arg = args[i];
      if (arg.ptr == nullptr || arg.mode == kir::AccessMode::kNone) {
        continue;
      }
      ArgPlan& plan = plans[i];
      plan.read = kir::reads(arg.mode);
      plan.write = kir::writes(arg.mode);
      const auto info = types_->find(arg.ptr);
      if (info.has_value()) {
        plan.base = reinterpret_cast<const char*>(info->base);
        plan.extent = info->extent;
        AllocUse& use = uses[plan.base];
        ++use.arg_count;
        use.any_write |= plan.write;
      }
      if (plan.base == nullptr || arg.proof == nullptr || !arg.proof->race_free) {
        continue;  // untracked or unproven: tracked path
      }
      const std::int64_t off = static_cast<const char*>(arg.ptr) - plan.base;
      const auto clamp_resolve = [&](const kir::AffineSet& set, std::vector<kir::Interval>& out) {
        if (set.is_empty()) {
          return true;  // direction provably untouched
        }
        const kir::IntervalSet resolved = set.resolve();
        if (!resolved.is_bounded()) {
          return false;
        }
        for (const kir::Interval& iv : resolved.intervals()) {
          const std::int64_t lo = std::max<std::int64_t>(iv.lo + off, 0);
          const std::int64_t hi =
              std::min<std::int64_t>(iv.hi + off, static_cast<std::int64_t>(plan.extent));
          if (hi > lo) {
            out.push_back(kir::Interval{lo, hi});
          }
        }
        return true;
      };
      bool ok = true;
      if (plan.read) {
        ok = clamp_resolve(arg.proof->read, plan.read_iv);
      }
      if (ok && plan.write) {
        ok = clamp_resolve(arg.proof->write, plan.write_iv);
      }
      plan.elide = ok;
    }
    // Pass 2: alias guard. Theorem 1 reasons about parameters as distinct
    // memory objects; two arguments landing in the same allocation with a
    // write among them void every proof over that allocation.
    for (ArgPlan& plan : plans) {
      if (plan.elide) {
        const AllocUse& use = uses[plan.base];
        if (use.arg_count > 1 && use.any_write) {
          plan.elide = false;
          metrics_.slot("cusan.proof_alias_rejects").increment_owned();
        }
      }
    }
  }

  bool any_elided = false;
  std::uint64_t elided_bytes = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const KernelArgAccess& arg = args[i];
    if (arg.ptr == nullptr || arg.mode == kir::AccessMode::kNone) {
      continue;
    }
    const char* label = kernel_arg_label(kernel_name, i, arg.mode);
    if (!prove || !plans[i].elide) {
      annotate_kernel_arg(arg, label);
      continue;
    }
    const ArgPlan& plan = plans[i];
    any_elided = true;
    metrics_.slot("cusan.proof_elided_args").increment_owned();
    for (const kir::Interval& iv : plan.read_iv) {
      elided_bytes += static_cast<std::uint64_t>(iv.hi - iv.lo);
      tsan_->proven_range(plan.base + iv.lo, static_cast<std::size_t>(iv.hi - iv.lo),
                          /*is_write=*/false, label);
    }
    for (const kir::Interval& iv : plan.write_iv) {
      elided_bytes += static_cast<std::uint64_t>(iv.hi - iv.lo);
      tsan_->proven_range(plan.base + iv.lo, static_cast<std::size_t>(iv.hi - iv.lo),
                          /*is_write=*/true, label);
    }
  }

  if (any_elided) {
    metrics_.slot("cusan.proof_elided_launches").increment_owned();
    metrics_.slot("cusan.proof_elided_bytes").add_owned(elided_bytes);
    trace_record(TraceKind::kProofElided, elided_bytes, kernel_name);
    obs::Counter*& metric = elide_metrics_[kernel_name];
    if (metric == nullptr) {
      metric = &metrics_.counter(common::format("cusan.prove_elide.{}.launches", kernel_name));
    }
    metric->increment_owned();
  }
}

// -- Explicit synchronization ---------------------------------------------------------------

void Runtime::on_stream_synchronize(const cusim::Stream* stream) {
  metrics_.slot("cusan.sync_calls").increment_owned();
  trace_record(TraceKind::kStreamSync);
  StreamState& ss = stream_state(stream);
  tsan_->happens_after(&ss.complete_key);
  metrics_.slot("cusan.hb_after").increment_owned();
  if (ss.is_default && !ss.non_blocking) {
    // Host sync on the legacy default stream also covers all blocking
    // streams of its device (paper §IV-A-e).
    for (auto& [s, other] : streams_) {
      if (&other == &ss || other.non_blocking || other.device != ss.device) {
        continue;
      }
      tsan_->happens_after(&other.complete_key);
      metrics_.slot("cusan.hb_after").increment_owned();
    }
  }
}

void Runtime::on_device_synchronize() {
  metrics_.slot("cusan.sync_calls").increment_owned();
  trace_record(TraceKind::kDeviceSync);
  // Terminate the arc of every stream, including non-blocking ones.
  for (auto& [stream, state] : streams_) {
    tsan_->happens_after(&state.complete_key);
    metrics_.slot("cusan.hb_after").increment_owned();
  }
}

void Runtime::on_device_synchronize(const cusim::Device* device) {
  metrics_.slot("cusan.sync_calls").increment_owned();
  trace_record(TraceKind::kDeviceSync);
  // Only the given device's streams are covered (multi-GPU ranks).
  for (auto& [stream, state] : streams_) {
    if (state.device != device) {
      continue;
    }
    tsan_->happens_after(&state.complete_key);
    metrics_.slot("cusan.hb_after").increment_owned();
  }
}

void Runtime::on_event_record(const cusim::Event* event, const cusim::Stream* stream) {
  metrics_.slot("cusan.event_records").increment_owned();
  trace_record(TraceKind::kEventRecord);
  StreamState& ss = stream_state(stream);
  EventState& es = event_state(event);
  es.stream = stream;
  // The event captures the stream's progress: release the stream fiber's
  // clock on the event's sync object.
  tsan_->switch_to_fiber(ss.fiber);
  tsan_->happens_before(&es.key);
  metrics_.slot("cusan.hb_before").increment_owned();
  tsan_->switch_to_fiber(tsan_->host_ctx());
}

void Runtime::on_event_synchronize(const cusim::Event* event) {
  metrics_.slot("cusan.sync_calls").increment_owned();
  trace_record(TraceKind::kEventSync);
  EventState& es = event_state(event);
  if (es.stream == nullptr) {
    return;  // never recorded
  }
  tsan_->happens_after(&es.key);
  metrics_.slot("cusan.hb_after").increment_owned();
}

void Runtime::on_stream_wait_event(const cusim::Stream* stream, const cusim::Event* event) {
  metrics_.slot("cusan.sync_calls").increment_owned();
  trace_record(TraceKind::kStreamWaitEvent);
  EventState& es = event_state(event);
  if (es.stream == nullptr) {
    return;
  }
  StreamState& ss = stream_state(stream);
  // The waiting stream's future work is ordered after the event.
  tsan_->switch_to_fiber(ss.fiber);
  tsan_->happens_after(&es.key);
  metrics_.slot("cusan.hb_after").increment_owned();
  tsan_->switch_to_fiber(tsan_->host_ctx());
}

void Runtime::on_stream_query_success(const cusim::Stream* stream) {
  // A successful query can be used as a busy-wait: treat it as
  // synchronization (paper §III-B1).
  metrics_.slot("cusan.sync_calls").increment_owned();
  trace_record(TraceKind::kQuerySuccess);
  StreamState& ss = stream_state(stream);
  tsan_->happens_after(&ss.complete_key);
  metrics_.slot("cusan.hb_after").increment_owned();
}

void Runtime::on_event_query_success(const cusim::Event* event) {
  metrics_.slot("cusan.sync_calls").increment_owned();
  trace_record(TraceKind::kQuerySuccess);
  EventState& es = event_state(event);
  if (es.stream == nullptr) {
    return;
  }
  tsan_->happens_after(&es.key);
  metrics_.slot("cusan.hb_after").increment_owned();
}

// -- Memory operations --------------------------------------------------------------------------

cusim::MemKind Runtime::kind_of(const void* ptr) const {
  CUSAN_ASSERT_MSG(!devices_.empty(), "cusan::Runtime used before bind_device()");
  // UVA: any device can classify the pointer; scan registries until one
  // claims it (unclaimed pointers are pageable host memory).
  for (const cusim::Device* device : devices_) {
    const cusim::PointerAttributes attrs = device->pointer_attributes(ptr);
    if (attrs.base != nullptr) {
      return attrs.kind;
    }
  }
  return cusim::MemKind::kPageableHost;
}

void Runtime::on_memcpy(void* dst, const void* src, std::size_t bytes, cusim::MemcpyDir dir) {
  metrics_.slot("cusan.memcpys").increment_owned();
  trace_record(TraceKind::kMemcpy, bytes, "cudaMemcpy");
  CUSAN_ASSERT(!devices_.empty());
  StreamState& ss = stream_state(devices_.front()->default_stream());
  begin_op(ss);
  if (config_.track_memory_accesses) {
    tsan_->read_range(src, bytes, "cudaMemcpy (source)");
    tsan_->write_range(dst, bytes, "cudaMemcpy (destination)");
  }
  finish_op(ss);
  if (model_host_sync(cusim::MemOpClass::kMemcpy, dir, kind_of(src), kind_of(dst))) {
    tsan_->happens_after(&ss.complete_key);
    metrics_.slot("cusan.hb_after").increment_owned();
  }
}

void Runtime::on_memcpy_async(void* dst, const void* src, std::size_t bytes, cusim::MemcpyDir dir,
                              const cusim::Stream* stream) {
  metrics_.slot("cusan.memcpys").increment_owned();
  trace_record(TraceKind::kMemcpy, bytes, "cudaMemcpyAsync");
  StreamState& ss = stream_state(stream);
  begin_op(ss);
  if (config_.track_memory_accesses) {
    tsan_->read_range(src, bytes, "cudaMemcpyAsync (source)");
    tsan_->write_range(dst, bytes, "cudaMemcpyAsync (destination)");
  }
  finish_op(ss);
  if (model_host_sync(cusim::MemOpClass::kMemcpyAsync, dir, kind_of(src), kind_of(dst))) {
    tsan_->happens_after(&ss.complete_key);
    metrics_.slot("cusan.hb_after").increment_owned();
  }
}

void Runtime::on_memset(void* dst, std::size_t bytes) {
  metrics_.slot("cusan.memsets").increment_owned();
  trace_record(TraceKind::kMemset, bytes, "cudaMemset");
  CUSAN_ASSERT(!devices_.empty());
  StreamState& ss = stream_state(devices_.front()->default_stream());
  begin_op(ss);
  if (config_.track_memory_accesses) {
    tsan_->write_range(dst, bytes, "cudaMemset");
  }
  finish_op(ss);
  if (model_host_sync(cusim::MemOpClass::kMemset, cusim::MemcpyDir::kHostToDevice,
                      cusim::MemKind::kPageableHost, kind_of(dst))) {
    tsan_->happens_after(&ss.complete_key);
    metrics_.slot("cusan.hb_after").increment_owned();
  }
}

void Runtime::on_memset_async(void* dst, std::size_t bytes, const cusim::Stream* stream) {
  metrics_.slot("cusan.memsets").increment_owned();
  trace_record(TraceKind::kMemset, bytes, "cudaMemsetAsync");
  StreamState& ss = stream_state(stream);
  begin_op(ss);
  if (config_.track_memory_accesses) {
    tsan_->write_range(dst, bytes, "cudaMemsetAsync");
  }
  finish_op(ss);
}

void Runtime::on_memcpy_2d(void* dst, std::size_t dpitch, const void* src, std::size_t spitch,
                           std::size_t width, std::size_t height, cusim::MemcpyDir dir,
                           const cusim::Stream* stream, bool async) {
  metrics_.slot("cusan.memcpys").increment_owned();
  trace_record(TraceKind::kMemcpy, width * height, "cudaMemcpy2D");
  CUSAN_ASSERT(!devices_.empty());
  StreamState& ss =
      stream_state(stream != nullptr ? stream : devices_.front()->default_stream());
  begin_op(ss);
  if (config_.track_memory_accesses) {
    // Only the `width` bytes of each row are accessed; the pitch gaps are not
    // touched, so they must not be annotated (no false races on the holes).
    const auto* s = static_cast<const std::byte*>(src);
    auto* d = static_cast<std::byte*>(dst);
    for (std::size_t row = 0; row < height; ++row) {
      tsan_->read_range(s + row * spitch, width, "cudaMemcpy2D (source row)");
      tsan_->write_range(d + row * dpitch, width, "cudaMemcpy2D (destination row)");
    }
  }
  finish_op(ss);
  const auto op_class = async ? cusim::MemOpClass::kMemcpyAsync : cusim::MemOpClass::kMemcpy;
  if (model_host_sync(op_class, dir, kind_of(src), kind_of(dst))) {
    tsan_->happens_after(&ss.complete_key);
    metrics_.slot("cusan.hb_after").increment_owned();
  }
}

void Runtime::on_mem_prefetch(const cusim::Stream* stream) {
  metrics_.slot("cusan.prefetches").increment_owned();
  trace_record(TraceKind::kPrefetch);
  StreamState& ss = stream_state(stream);
  begin_op(ss);
  finish_op(ss);
}

void Runtime::on_host_func(const cusim::Stream* stream) {
  metrics_.slot("cusan.host_funcs").increment_owned();
  trace_record(TraceKind::kHostFunc);
  StreamState& ss = stream_state(stream);
  begin_op(ss);
  finish_op(ss);
}

// -- Allocation lifecycle --------------------------------------------------------------------------

void Runtime::on_free(const void* ptr) {
  trace_record(TraceKind::kFree);
  if (const auto info = types_->find(ptr); info.has_value()) {
    tsan_->reset_shadow_range(reinterpret_cast<const void*>(info->base), info->extent);
  }
}

}  // namespace cusan
