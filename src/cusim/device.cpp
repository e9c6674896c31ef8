#include "cusim/device.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "faultsim/injector.hpp"
#include "obs/ring.hpp"

namespace cusim {
namespace {

[[nodiscard]] bool is_host_side(MemKind kind) {
  return kind == MemKind::kPageableHost || kind == MemKind::kPinnedHost ||
         kind == MemKind::kManaged;
}

[[nodiscard]] bool is_device_side(MemKind kind) {
  return kind == MemKind::kDevice || kind == MemKind::kManaged;
}

/// Fault-plan probe for a CUDA call site; the armed() check is the entire
/// cost when no plan is loaded.
[[nodiscard]] std::optional<faultsim::Fired> probe_fault(faultsim::Site site, int device,
                                                         int stream = -1) {
  if (!faultsim::Injector::armed()) {
    return std::nullopt;
  }
  faultsim::SiteContext where;
  where.device = device;
  where.stream = stream;
  return faultsim::Injector::instance().probe(site, where);
}

void mark_api_error(std::uint64_t fault_id) {
  faultsim::Injector::instance().mark_surfaced(fault_id, faultsim::Channel::kApiError);
}

/// Shared malloc-site fault handling (oom/fail both return allocation
/// failure; delay perturbs but the allocation proceeds). True = fail now.
[[nodiscard]] bool malloc_fault(int ordinal, void** out) {
  const auto fired = probe_fault(faultsim::Site::kMalloc, ordinal);
  if (!fired) {
    return false;
  }
  if (fired->action == faultsim::Action::kDelay) {
    std::this_thread::sleep_for(fired->delay);
    return false;
  }
  mark_api_error(fired->id);
  *out = nullptr;
  return true;
}

}  // namespace

Device::Device(DeviceProfile profile, int ordinal)
    : profile_(profile), ordinal_(ordinal), memory_(ordinal, profile.context_reserve_bytes) {
  std::lock_guard lock(mutex_);
  // Stream id 0 is the default stream. In per-thread mode (paper §VI-B) it
  // carries no legacy barriers, i.e. behaves like a non-blocking stream.
  (void)create_stream_locked(profile.default_stream_mode == DefaultStreamMode::kPerThread
                                 ? StreamFlags::kNonBlocking
                                 : StreamFlags::kDefault);
}

Device::~Device() {
  (void)device_synchronize();
  {
    std::lock_guard lock(mutex_);
    for (auto& stream : streams_) {
      stream->retired = true;
    }
  }
  work_cv_.notify_all();
  for (auto& stream : streams_) {
    stream->worker.join();
  }
}

// -- Streams ------------------------------------------------------------------

Stream* Device::create_stream_locked(StreamFlags flags) {
  const auto id = static_cast<std::uint32_t>(streams_.size());
  streams_.emplace_back(new Stream(id, flags, this));
  Stream* stream = streams_.back().get();
  // Stream workers inherit the creating thread's session context (SimThread)
  // so their probes/metrics/diagnostics land in the owning session.
  stream->worker = common::SimThread([this, stream] { stream_worker(stream); });
  return stream;
}

Error Device::stream_create(Stream** out, StreamFlags flags) {
  if (out == nullptr) {
    return Error::kInvalidValue;
  }
  std::lock_guard lock(mutex_);
  *out = create_stream_locked(flags);
  return Error::kSuccess;
}

Error Device::stream_destroy(Stream* stream) {
  if (stream == nullptr || stream->is_default()) {
    return Error::kInvalidValue;
  }
  std::unique_lock lock(mutex_);
  const auto it = std::find_if(streams_.begin(), streams_.end(),
                               [stream](const auto& s) { return s.get() == stream; });
  if (it == streams_.end()) {
    return Error::kInvalidResourceHandle;
  }
  wait_stream_drained_locked(stream, lock);
  // Drop events recorded on this stream so later queries fail cleanly.
  for (auto& event : events_) {
    if (event && event->stream_ == stream) {
      event->stream_ = nullptr;
    }
  }
  // Scrub dependencies on this stream from other streams' pending ops: the
  // drain above satisfied them all, and the pointer is about to dangle.
  for (auto& other : streams_) {
    for (auto& op : other->pending) {
      std::erase_if(op.deps, [stream](const Stream::Dep& dep) { return dep.stream == stream; });
    }
  }
  stream->retired = true;
  std::unique_ptr<Stream> owned = std::move(*it);
  streams_.erase(it);
  lock.unlock();
  work_cv_.notify_all();
  owned->worker.join();
  return Error::kSuccess;
}

Error Device::stream_synchronize(Stream* stream) {
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  std::unique_lock lock(mutex_);
  wait_stream_drained_locked(stream, lock);
  return surface_sticky(Error::kSuccess);
}

Error Device::stream_query(Stream* stream) {
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  std::lock_guard lock(mutex_);
  // A latched error dominates both "done" and "pending" (CUDA reports the
  // sticky error from any stream of the failed device).
  return surface_sticky(stream->completed >= stream->last_enqueued ? Error::kSuccess
                                                                   : Error::kNotReady);
}

std::vector<Stream*> Device::streams() const {
  std::lock_guard lock(mutex_);
  std::vector<Stream*> out;
  out.reserve(streams_.size());
  for (const auto& stream : streams_) {
    out.push_back(stream.get());
  }
  return out;
}

bool Device::is_live_stream(const Stream* stream) const {
  if (stream == nullptr) {
    return false;
  }
  std::lock_guard lock(mutex_);
  return std::any_of(streams_.begin(), streams_.end(),
                     [stream](const auto& s) { return s.get() == stream; });
}

// -- Events -------------------------------------------------------------------

Error Device::event_create(Event** out) {
  if (out == nullptr) {
    return Error::kInvalidValue;
  }
  std::lock_guard lock(mutex_);
  events_.emplace_back(new Event());
  *out = events_.back().get();
  return Error::kSuccess;
}

Error Device::event_destroy(Event* event) {
  std::lock_guard lock(mutex_);
  const auto it = std::find_if(events_.begin(), events_.end(),
                               [event](const auto& e) { return e.get() == event; });
  if (it == events_.end()) {
    return Error::kInvalidResourceHandle;
  }
  events_.erase(it);
  return Error::kSuccess;
}

Error Device::event_record(Event* event, Stream* stream) {
  if (!is_live_event(event) || !is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  std::lock_guard lock(mutex_);
  // The event captures all work enqueued on the stream so far.
  event->stream_ = stream;
  event->ticket_ = stream->last_enqueued;
  return Error::kSuccess;
}

Error Device::event_synchronize(Event* event) {
  if (!is_live_event(event)) {
    return Error::kInvalidResourceHandle;
  }
  Stream* stream = nullptr;
  std::uint64_t ticket = 0;
  {
    std::lock_guard lock(mutex_);
    if (event->stream_ == nullptr) {
      return Error::kSuccess;  // never recorded: immediately complete
    }
    stream = event->stream_;
    ticket = event->ticket_;
  }
  wait_ticket(stream, ticket);
  return surface_sticky(Error::kSuccess);
}

Error Device::event_query(Event* event) {
  if (!is_live_event(event)) {
    return Error::kInvalidResourceHandle;
  }
  std::lock_guard lock(mutex_);
  if (event->stream_ == nullptr) {
    return surface_sticky(Error::kSuccess);
  }
  return surface_sticky(event->stream_->completed >= event->ticket_ ? Error::kSuccess
                                                                    : Error::kNotReady);
}

Error Device::stream_wait_event(Stream* stream, Event* event) {
  if (!is_live_stream(stream) || !is_live_event(event)) {
    return Error::kInvalidResourceHandle;
  }
  std::lock_guard lock(mutex_);
  if (event->stream_ == nullptr || event->stream_ == stream) {
    return Error::kSuccess;  // no-op: unrecorded, or FIFO order already implies it
  }
  // Model as a zero-work barrier op carrying the cross-stream dependency.
  Stream::Op op;
  op.ticket = ++stream->last_enqueued;
  op.deps.push_back(Stream::Dep{event->stream_, event->ticket_});
  op.fn = [] {};
  stream->pending.push_back(std::move(op));
  work_cv_.notify_all();
  return Error::kSuccess;
}

Stream* Device::event_stream(const Event* event) const {
  std::lock_guard lock(mutex_);
  return event != nullptr ? event->stream_ : nullptr;
}

bool Device::is_live_event(const Event* event) const {
  if (event == nullptr) {
    return false;
  }
  std::lock_guard lock(mutex_);
  return std::any_of(events_.begin(), events_.end(),
                     [event](const auto& e) { return e.get() == event; });
}

Error Device::device_synchronize() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] {
    return std::all_of(streams_.begin(), streams_.end(), [](const auto& s) {
      return s->completed >= s->last_enqueued && s->pending.empty() && !s->running;
    });
  });
  return surface_sticky(Error::kSuccess);
}

// -- Sticky errors ----------------------------------------------------------------

void Device::latch_error(Error err, std::uint64_t fault_id) {
  CUSAN_ASSERT(err != Error::kSuccess);
  int expected = 0;
  // First error wins, like the CUDA runtime: later failures before the latch
  // is read do not overwrite the original diagnosis.
  if (sticky_error_.compare_exchange_strong(expected, static_cast<int>(err),
                                            std::memory_order_acq_rel)) {
    sticky_fault_.store(fault_id, std::memory_order_release);
  }
}

void Device::mark_sticky_surfaced() const {
  const std::uint64_t id = sticky_fault_.load(std::memory_order_acquire);
  if (id != 0) {
    faultsim::Injector::instance().mark_surfaced(id, faultsim::Channel::kStickyError);
  }
}

Error Device::surface_sticky(Error fallback) const {
  const int raw = sticky_error_.load(std::memory_order_acquire);
  if (raw == 0) {
    return fallback;
  }
  mark_sticky_surfaced();
  return static_cast<Error>(raw);
}

Error Device::get_last_error() {
  const int raw = sticky_error_.exchange(0, std::memory_order_acq_rel);
  if (raw == 0) {
    return Error::kSuccess;
  }
  mark_sticky_surfaced();
  sticky_fault_.store(0, std::memory_order_release);
  return static_cast<Error>(raw);
}

Error Device::peek_at_last_error() const { return surface_sticky(Error::kSuccess); }

Error Device::inject_async_error(Stream* stream, Error err, std::uint64_t fault_id) {
  if (stream == nullptr) {
    stream = default_stream();
  }
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  if (err == Error::kSuccess) {
    return Error::kInvalidValue;
  }
  enqueue(stream, [this, err, fault_id] { latch_error(err, fault_id); }, "async_error",
          obs::EventKind::kStreamOp);
  return Error::kSuccess;
}

// -- Memory ---------------------------------------------------------------------

Error Device::malloc_device(void** out, std::size_t size) {
  if (out == nullptr) {
    return Error::kInvalidValue;
  }
  if (malloc_fault(ordinal_, out)) {
    return Error::kMemoryAllocation;
  }
  *out = memory_.allocate(size, MemKind::kDevice);
  return (*out != nullptr || size == 0) ? Error::kSuccess : Error::kMemoryAllocation;
}

Error Device::malloc_async(void** out, std::size_t size, Stream* stream) {
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  if (out == nullptr) {
    return Error::kInvalidValue;
  }
  if (malloc_fault(ordinal_, out)) {
    return Error::kMemoryAllocation;
  }
  // The simulator's pool can satisfy the allocation immediately; the
  // stream-ordering contract (usable after prior stream work) is then
  // trivially met.
  *out = memory_.allocate(size, MemKind::kDevice);
  return (*out != nullptr || size == 0) ? Error::kSuccess : Error::kMemoryAllocation;
}

Error Device::malloc_managed(void** out, std::size_t size) {
  if (out == nullptr) {
    return Error::kInvalidValue;
  }
  if (malloc_fault(ordinal_, out)) {
    return Error::kMemoryAllocation;
  }
  *out = memory_.allocate(size, MemKind::kManaged);
  return (*out != nullptr || size == 0) ? Error::kSuccess : Error::kMemoryAllocation;
}

Error Device::malloc_host(void** out, std::size_t size) {
  if (out == nullptr) {
    return Error::kInvalidValue;
  }
  if (malloc_fault(ordinal_, out)) {
    return Error::kMemoryAllocation;
  }
  *out = memory_.allocate(size, MemKind::kPinnedHost);
  return (*out != nullptr || size == 0) ? Error::kSuccess : Error::kMemoryAllocation;
}

Error Device::free(void* ptr) {
  // cudaFree synchronizes the whole device (paper §III-B2).
  (void)device_synchronize();
  return memory_.deallocate(ptr) ? Error::kSuccess : Error::kInvalidValue;
}

Error Device::free_async(void* ptr, Stream* stream) {
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  if (ptr == nullptr) {
    return Error::kSuccess;
  }
  if (memory_.query(ptr).base != ptr) {
    return Error::kInvalidValue;
  }
  enqueue(stream, [this, ptr] { (void)memory_.deallocate(ptr); }, "free_async",
          obs::EventKind::kAlloc);
  return Error::kSuccess;
}

Error Device::free_host(void* ptr) {
  return memory_.deallocate(ptr) ? Error::kSuccess : Error::kInvalidValue;
}

Error Device::host_register(void* ptr, std::size_t size) {
  return memory_.register_external(ptr, size) ? Error::kSuccess : Error::kInvalidValue;
}

Error Device::host_unregister(void* ptr) {
  return memory_.unregister_external(ptr) ? Error::kSuccess : Error::kInvalidValue;
}

PointerAttributes Device::pointer_attributes(const void* ptr) const {
  return memory_.query(ptr);
}

// -- Data movement ----------------------------------------------------------------

Error Device::resolve_memcpy_dir(const void* dst, const void* src, MemcpyDir& dir) const {
  const MemKind src_kind = memory_.query(src).kind;
  const MemKind dst_kind = memory_.query(dst).kind;
  if (dir == MemcpyDir::kDefault) {
    const bool src_dev = src_kind == MemKind::kDevice;
    const bool dst_dev = dst_kind == MemKind::kDevice;
    if (src_dev && dst_dev) {
      dir = MemcpyDir::kDeviceToDevice;
    } else if (src_dev) {
      dir = MemcpyDir::kDeviceToHost;
    } else if (dst_dev) {
      dir = MemcpyDir::kHostToDevice;
    } else {
      dir = MemcpyDir::kHostToHost;
    }
    return Error::kSuccess;
  }
  switch (dir) {
    case MemcpyDir::kHostToDevice:
      return is_host_side(src_kind) && is_device_side(dst_kind) ? Error::kSuccess
                                                                : Error::kInvalidValue;
    case MemcpyDir::kDeviceToHost:
      return is_device_side(src_kind) && is_host_side(dst_kind) ? Error::kSuccess
                                                                : Error::kInvalidValue;
    case MemcpyDir::kDeviceToDevice:
      return is_device_side(src_kind) && is_device_side(dst_kind) ? Error::kSuccess
                                                                  : Error::kInvalidValue;
    case MemcpyDir::kHostToHost:
      return is_host_side(src_kind) && is_host_side(dst_kind) ? Error::kSuccess
                                                              : Error::kInvalidValue;
    case MemcpyDir::kDefault:
      return Error::kSuccess;  // handled above
  }
  return Error::kInvalidValue;
}

Error Device::memcpy(void* dst, const void* src, std::size_t bytes, MemcpyDir dir) {
  if (dst == nullptr || src == nullptr) {
    return bytes == 0 ? Error::kSuccess : Error::kInvalidValue;
  }
  if (const Error err = resolve_memcpy_dir(dst, src, dir); err != Error::kSuccess) {
    return err;
  }
  if (const auto fired = probe_fault(faultsim::Site::kMemcpy, ordinal_, 0)) {
    if (fired->action == faultsim::Action::kDelay) {
      std::this_thread::sleep_for(fired->delay);
    } else {
      // A synchronous copy fails synchronously — no bytes move, no latch.
      mark_api_error(fired->id);
      return Error::kStreamError;
    }
  }
  // Synchronous memcpy runs on the legacy default stream.
  const std::uint64_t ticket =
      enqueue(default_stream(), [dst, src, bytes] { std::memcpy(dst, src, bytes); }, "memcpy",
              obs::EventKind::kMemcpy, bytes);
  const MemKind src_kind = memory_.query(src).kind;
  const MemKind dst_kind = memory_.query(dst).kind;
  if (is_host_synchronous(MemOpClass::kMemcpy, dir, src_kind, dst_kind)) {
    wait_ticket(default_stream(), ticket);
  }
  return Error::kSuccess;
}

Error Device::memcpy_async(void* dst, const void* src, std::size_t bytes, MemcpyDir dir,
                           Stream* stream) {
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  if (dst == nullptr || src == nullptr) {
    return bytes == 0 ? Error::kSuccess : Error::kInvalidValue;
  }
  if (const Error err = resolve_memcpy_dir(dst, src, dir); err != Error::kSuccess) {
    return err;
  }
  if (const auto fired = probe_fault(faultsim::Site::kMemcpy, ordinal_,
                                     static_cast<int>(stream->id()))) {
    switch (fired->action) {
      case faultsim::Action::kDelay:
        std::this_thread::sleep_for(fired->delay);
        break;
      case faultsim::Action::kAbort: {
        // Asynchronous failure: the call "succeeds", the copy never runs,
        // and the error latches at the stream position (surfaced later).
        enqueue(stream, [this, id = fired->id] { latch_error(Error::kStreamError, id); });
        return Error::kSuccess;
      }
      default:
        mark_api_error(fired->id);
        return Error::kStreamError;
    }
  }
  const std::uint64_t ticket =
      enqueue(stream, [dst, src, bytes] { std::memcpy(dst, src, bytes); }, "memcpy_async",
              obs::EventKind::kMemcpy, bytes);
  const MemKind src_kind = memory_.query(src).kind;
  const MemKind dst_kind = memory_.query(dst).kind;
  if (is_host_synchronous(MemOpClass::kMemcpyAsync, dir, src_kind, dst_kind)) {
    wait_ticket(stream, ticket);
  }
  return Error::kSuccess;
}

Error Device::memset(void* dst, int value, std::size_t bytes) {
  if (dst == nullptr) {
    return bytes == 0 ? Error::kSuccess : Error::kInvalidValue;
  }
  if (const auto fired = probe_fault(faultsim::Site::kMemset, ordinal_, 0)) {
    if (fired->action == faultsim::Action::kDelay) {
      std::this_thread::sleep_for(fired->delay);
    } else {
      mark_api_error(fired->id);
      return Error::kStreamError;
    }
  }
  const std::uint64_t ticket =
      enqueue(default_stream(), [dst, value, bytes] { std::memset(dst, value, bytes); },
              "memset", obs::EventKind::kMemset, bytes);
  const MemKind dst_kind = memory_.query(dst).kind;
  if (is_host_synchronous(MemOpClass::kMemset, MemcpyDir::kHostToDevice, MemKind::kPageableHost,
                          dst_kind)) {
    wait_ticket(default_stream(), ticket);
  }
  return Error::kSuccess;
}

Error Device::memset_async(void* dst, int value, std::size_t bytes, Stream* stream) {
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  if (dst == nullptr) {
    return bytes == 0 ? Error::kSuccess : Error::kInvalidValue;
  }
  if (const auto fired = probe_fault(faultsim::Site::kMemset, ordinal_,
                                     static_cast<int>(stream->id()))) {
    switch (fired->action) {
      case faultsim::Action::kDelay:
        std::this_thread::sleep_for(fired->delay);
        break;
      case faultsim::Action::kAbort:
        enqueue(stream, [this, id = fired->id] { latch_error(Error::kStreamError, id); });
        return Error::kSuccess;
      default:
        mark_api_error(fired->id);
        return Error::kStreamError;
    }
  }
  enqueue(stream, [dst, value, bytes] { std::memset(dst, value, bytes); }, "memset_async",
          obs::EventKind::kMemset, bytes);
  return Error::kSuccess;
}

namespace {

void copy_2d(void* dst, std::size_t dpitch, const void* src, std::size_t spitch,
             std::size_t width, std::size_t height) {
  auto* d = static_cast<std::byte*>(dst);
  const auto* s = static_cast<const std::byte*>(src);
  for (std::size_t row = 0; row < height; ++row) {
    std::memcpy(d + row * dpitch, s + row * spitch, width);
  }
}

}  // namespace

Error Device::memcpy_2d(void* dst, std::size_t dpitch, const void* src, std::size_t spitch,
                        std::size_t width, std::size_t height, MemcpyDir dir) {
  if (dst == nullptr || src == nullptr || width > dpitch || width > spitch) {
    return Error::kInvalidValue;
  }
  if (const Error err = resolve_memcpy_dir(dst, src, dir); err != Error::kSuccess) {
    return err;
  }
  if (const auto fired = probe_fault(faultsim::Site::kMemcpy, ordinal_, 0)) {
    if (fired->action == faultsim::Action::kDelay) {
      std::this_thread::sleep_for(fired->delay);
    } else {
      mark_api_error(fired->id);
      return Error::kStreamError;
    }
  }
  const std::uint64_t ticket = enqueue(
      default_stream(), [=] { copy_2d(dst, dpitch, src, spitch, width, height); }, "memcpy_2d",
      obs::EventKind::kMemcpy, width * height);
  const MemKind src_kind = memory_.query(src).kind;
  const MemKind dst_kind = memory_.query(dst).kind;
  if (is_host_synchronous(MemOpClass::kMemcpy, dir, src_kind, dst_kind)) {
    wait_ticket(default_stream(), ticket);
  }
  return Error::kSuccess;
}

Error Device::memcpy_2d_async(void* dst, std::size_t dpitch, const void* src, std::size_t spitch,
                              std::size_t width, std::size_t height, MemcpyDir dir,
                              Stream* stream) {
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  if (dst == nullptr || src == nullptr || width > dpitch || width > spitch) {
    return Error::kInvalidValue;
  }
  if (const Error err = resolve_memcpy_dir(dst, src, dir); err != Error::kSuccess) {
    return err;
  }
  if (const auto fired = probe_fault(faultsim::Site::kMemcpy, ordinal_,
                                     static_cast<int>(stream->id()))) {
    switch (fired->action) {
      case faultsim::Action::kDelay:
        std::this_thread::sleep_for(fired->delay);
        break;
      case faultsim::Action::kAbort:
        enqueue(stream, [this, id = fired->id] { latch_error(Error::kStreamError, id); });
        return Error::kSuccess;
      default:
        mark_api_error(fired->id);
        return Error::kStreamError;
    }
  }
  const std::uint64_t ticket =
      enqueue(stream, [=] { copy_2d(dst, dpitch, src, spitch, width, height); },
              "memcpy_2d_async", obs::EventKind::kMemcpy, width * height);
  const MemKind src_kind = memory_.query(src).kind;
  const MemKind dst_kind = memory_.query(dst).kind;
  if (is_host_synchronous(MemOpClass::kMemcpyAsync, dir, src_kind, dst_kind)) {
    wait_ticket(stream, ticket);
  }
  return Error::kSuccess;
}

Error Device::mem_prefetch_async(const void* ptr, std::size_t bytes, Stream* stream) {
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  const PointerAttributes attrs = memory_.query(ptr);
  if (attrs.kind != MemKind::kManaged || bytes == 0) {
    return Error::kInvalidValue;  // prefetch is defined for managed memory
  }
  // ordering-only hint in the simulator
  enqueue(stream, [] {}, "prefetch", obs::EventKind::kPrefetch, bytes);
  return Error::kSuccess;
}

Error Device::launch_host_func(Stream* stream, std::function<void()> fn) {
  if (stream == nullptr) {
    stream = default_stream();
  }
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  if (!fn) {
    return Error::kInvalidValue;
  }
  enqueue(stream, std::move(fn), "host_func", obs::EventKind::kHostFunc);
  return Error::kSuccess;
}

// -- Kernels ------------------------------------------------------------------------

Error Device::launch_kernel(Stream* stream, LaunchDims dims, KernelBody body, std::string name) {
  if (stream == nullptr) {
    stream = default_stream();
  }
  if (!is_live_stream(stream)) {
    return Error::kInvalidResourceHandle;
  }
  if (!body || dims.total_threads() == 0) {
    return Error::kInvalidValue;
  }
  apply_launch_overhead();
  enqueue(
      stream,
      [dims, body = std::move(body)] {
        KernelContext ctx(dims);
        body(ctx);
      },
      name.c_str(), obs::EventKind::kKernel, dims.total_threads());
  return Error::kSuccess;
}

// -- Executor -----------------------------------------------------------------------

std::uint64_t Device::enqueue(Stream* stream, std::function<void()> fn, const char* label,
                              obs::EventKind kind, std::uint64_t arg) {
  std::lock_guard lock(mutex_);
  Stream::Op op;
  op.ticket = ++stream->last_enqueued;
  op.fn = std::move(fn);
  if (obs::tracing_enabled()) {
    op.label = label != nullptr ? label : "";
    op.kind = kind;
    op.arg = arg;
  }
  // Legacy default-stream semantics (paper Fig. 3): work on the default
  // stream waits for all prior work on blocking streams; work on a blocking
  // stream waits for all prior work on the default stream. Non-blocking
  // streams are exempt — including the default stream itself in per-thread
  // mode (paper §VI-B), where it was created non-blocking.
  if (stream->is_default() && !stream->is_non_blocking()) {
    for (const auto& other : streams_) {
      if (other.get() != stream && !other->is_non_blocking() &&
          other->last_enqueued > other->completed) {
        op.deps.push_back(Stream::Dep{other.get(), other->last_enqueued});
      }
    }
  } else if (!stream->is_non_blocking()) {
    Stream* def = streams_.front().get();
    if (!def->is_non_blocking() && def->last_enqueued > def->completed) {
      op.deps.push_back(Stream::Dep{def, def->last_enqueued});
    }
  }
  stream->pending.push_back(std::move(op));
  work_cv_.notify_all();
  return stream->last_enqueued;
}

void Device::wait_ticket(Stream* stream, std::uint64_t ticket) {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [stream, ticket] { return stream->completed >= ticket; });
}

void Device::wait_stream_drained_locked(Stream* stream, std::unique_lock<std::mutex>& lock) {
  done_cv_.wait(lock, [stream] {
    return stream->pending.empty() && !stream->running && stream->completed >= stream->last_enqueued;
  });
}

void Device::stream_worker(Stream* stream) {
  std::unique_lock lock(mutex_);
  while (true) {
    if (stream->pending.empty()) {
      if (stream->retired) {
        return;
      }
      work_cv_.wait(lock);
      continue;
    }
    const Stream::Op& head = stream->pending.front();
    const bool deps_met = std::all_of(head.deps.begin(), head.deps.end(), [](const auto& dep) {
      return dep.stream->completed >= dep.ticket;
    });
    if (!deps_met) {
      // Dependency streams notify work_cv_ on every completion.
      work_cv_.wait(lock);
      continue;
    }
    Stream::Op op = std::move(stream->pending.front());
    stream->pending.pop_front();
    stream->running = true;
    lock.unlock();
    {
      // The op's execution becomes a span on this stream's track of the
      // owning rank's timeline (one relaxed load when tracing is off).
      std::optional<obs::Span> span;
      if (obs::tracing_enabled()) {
        span.emplace(obs_rank_.load(std::memory_order_relaxed), op.kind,
                     obs::stream_track(stream->id_), op.label.c_str(), op.arg);
      }
      op.fn();
    }
    lock.lock();
    stream->running = false;
    stream->completed = op.ticket;
    done_cv_.notify_all();
    work_cv_.notify_all();  // other streams may depend on this ticket
  }
}

void Device::apply_launch_overhead() const {
  if (profile_.launch_overhead_ns == 0) {
    return;
  }
  const std::uint64_t deadline = common::now_ns() + profile_.launch_overhead_ns;
  while (common::now_ns() < deadline) {
    // busy wait: models the driver-side submission cost on the host
  }
}

}  // namespace cusim
