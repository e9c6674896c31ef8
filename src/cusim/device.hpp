// The simulated CUDA device: owns streams, events and memory; executes all
// enqueued work asynchronously on a dedicated executor thread, preserving
// per-stream FIFO order, legacy default-stream barriers (paper Fig. 3),
// event dependencies and the documented host-synchrony of memory operations.
//
// One Device is instantiated per MPI rank, mirroring the paper's setup of
// one V100 per MPI process.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_thread.hpp"
#include "cusim/kernel.hpp"
#include "cusim/memory.hpp"
#include "obs/events.hpp"
#include "cusim/profile.hpp"
#include "cusim/sync_behavior.hpp"
#include "cusim/types.hpp"

namespace cusim {

class Device;

/// Opaque stream handle (cudaStream_t analog). The pointer value doubles as
/// a stable synchronization key for the analysis tools.
class Stream {
 public:
  [[nodiscard]] StreamFlags flags() const { return flags_; }
  [[nodiscard]] bool is_default() const { return id_ == 0; }
  [[nodiscard]] bool is_non_blocking() const { return flags_ == StreamFlags::kNonBlocking; }
  [[nodiscard]] std::uint32_t id() const { return id_; }
  /// The device this stream belongs to (multi-device support).
  [[nodiscard]] Device* device() const { return device_; }

 private:
  friend class Device;

  struct Dep {
    Stream* stream{nullptr};
    std::uint64_t ticket{0};
  };

  struct Op {
    std::uint64_t ticket{0};
    std::vector<Dep> deps;
    std::function<void()> fn;
    /// obs labelling; `label` stays empty unless tracing was enabled at
    /// enqueue time (no per-op allocation on untraced runs).
    std::string label;
    obs::EventKind kind{obs::EventKind::kStreamOp};
    std::uint64_t arg{0};
  };

  Stream(std::uint32_t id, StreamFlags flags, Device* device)
      : id_(id), flags_(flags), device_(device) {}

  std::uint32_t id_;
  StreamFlags flags_;
  Device* device_;
  std::deque<Op> pending;
  std::uint64_t last_enqueued{0};
  std::uint64_t completed{0};
  bool running{false};    ///< worker is currently executing this stream's head op
  bool retired{false};    ///< worker should exit (stream destroy / device teardown)
  common::SimThread worker;  ///< each stream executes independently, like real CUDA
};

/// Opaque event handle (cudaEvent_t analog).
class Event {
 public:
  [[nodiscard]] bool recorded() const { return stream_ != nullptr; }

 private:
  friend class Device;
  Stream* stream_{nullptr};
  std::uint64_t ticket_{0};
};

class Device {
 public:
  explicit Device(DeviceProfile profile = {}, int ordinal = 0);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] int ordinal() const { return ordinal_; }
  [[nodiscard]] const DeviceProfile& profile() const { return profile_; }

  /// MPI rank this device's timeline belongs to (obs event attribution).
  /// Stream workers read it, so it may be set any time before/between ops.
  void set_obs_rank(int rank) { obs_rank_.store(rank, std::memory_order_relaxed); }
  [[nodiscard]] int obs_rank() const { return obs_rank_.load(std::memory_order_relaxed); }

  // -- Streams ---------------------------------------------------------------

  Error stream_create(Stream** out, StreamFlags flags = StreamFlags::kDefault);
  /// Synchronizes the stream, then destroys it.
  Error stream_destroy(Stream* stream);
  /// The legacy default stream (always exists, never destroyed).
  [[nodiscard]] Stream* default_stream() const { return streams_.front().get(); }
  Error stream_synchronize(Stream* stream);
  /// kSuccess if all work completed, kNotReady otherwise.
  Error stream_query(Stream* stream);
  /// Snapshot of all live streams, default stream first.
  [[nodiscard]] std::vector<Stream*> streams() const;

  // -- Events ----------------------------------------------------------------

  Error event_create(Event** out);
  Error event_destroy(Event* event);
  Error event_record(Event* event, Stream* stream);
  Error event_synchronize(Event* event);
  Error event_query(Event* event);
  /// Make all future work on `stream` wait for `event` (cudaStreamWaitEvent).
  Error stream_wait_event(Stream* stream, Event* event);
  /// Stream the event was last recorded on (nullptr if never recorded).
  [[nodiscard]] Stream* event_stream(const Event* event) const;

  Error device_synchronize();

  // -- Sticky errors (CUDA 11.x semantics) -----------------------------------
  //
  // Asynchronous failures latch as a per-device sticky error (first error
  // wins) and surface at the next synchronize/query/GetLastError — a sync on
  // stream B observes an error latched by work on stream A of the same
  // device. GetLastError clears the latch; PeekAtLastError and the
  // sync/query paths do not.

  /// cudaGetLastError: returns and clears the sticky error.
  Error get_last_error();
  /// cudaPeekAtLastError: returns the sticky error without clearing it.
  [[nodiscard]] Error peek_at_last_error() const;
  /// Latch `err` as the sticky error if none is pending. `fault_id` ties the
  /// latch to a faultsim plan entry for fault accounting (0 = none).
  void latch_error(Error err, std::uint64_t fault_id = 0);
  /// Enqueue an op on `stream` (nullptr = default) that latches `err` when
  /// the stream reaches it — an asynchronous failure surfacing at the next
  /// sync/query. Also the test hook for sticky-error ordering tests.
  Error inject_async_error(Stream* stream, Error err, std::uint64_t fault_id = 0);

  // -- Memory ----------------------------------------------------------------

  Error malloc_device(void** out, std::size_t size);
  Error malloc_managed(void** out, std::size_t size);
  /// Stream-ordered allocation (cudaMallocAsync): the pointer is returned
  /// immediately; semantically the memory is usable once prior work on
  /// `stream` completed. Pair with free_async.
  Error malloc_async(void** out, std::size_t size, Stream* stream);
  /// Pinned host allocation (cudaMallocHost / cudaHostAlloc).
  Error malloc_host(void** out, std::size_t size);
  /// cudaFree: synchronizes the whole device, then frees.
  Error free(void* ptr);
  /// cudaFreeAsync: frees once prior work on `stream` completed.
  Error free_async(void* ptr, Stream* stream);
  Error free_host(void* ptr);
  /// Pin an existing pageable host region (cudaHostRegister): UVA queries
  /// report it as pinned host memory afterwards.
  Error host_register(void* ptr, std::size_t size);
  Error host_unregister(void* ptr);
  [[nodiscard]] PointerAttributes pointer_attributes(const void* ptr) const;
  [[nodiscard]] MemoryManager& memory() { return memory_; }
  [[nodiscard]] const MemoryManager& memory() const { return memory_; }

  // -- Data movement ----------------------------------------------------------

  Error memcpy(void* dst, const void* src, std::size_t bytes, MemcpyDir dir = MemcpyDir::kDefault);
  Error memcpy_async(void* dst, const void* src, std::size_t bytes, MemcpyDir dir, Stream* stream);
  Error memset(void* dst, int value, std::size_t bytes);
  Error memset_async(void* dst, int value, std::size_t bytes, Stream* stream);

  /// Strided 2D copy (cudaMemcpy2D): `height` rows of `width` bytes, rows
  /// separated by the respective pitches. Synchrony follows memcpy rules.
  Error memcpy_2d(void* dst, std::size_t dpitch, const void* src, std::size_t spitch,
                  std::size_t width, std::size_t height, MemcpyDir dir);
  Error memcpy_2d_async(void* dst, std::size_t dpitch, const void* src, std::size_t spitch,
                        std::size_t width, std::size_t height, MemcpyDir dir, Stream* stream);

  /// Hint-only managed-memory prefetch (cudaMemPrefetchAsync): enqueued on
  /// the stream for ordering, moves no data in the simulator.
  Error mem_prefetch_async(const void* ptr, std::size_t bytes, Stream* stream);

  /// Enqueue a host function on a stream (cudaLaunchHostFunc): runs on the
  /// stream's executor after prior work, blocking later stream work.
  Error launch_host_func(Stream* stream, std::function<void()> fn);

  /// Resolve kDefault direction via UVA; validates pointer kinds against the
  /// requested direction. Returns kInvalidValue on mismatch.
  Error resolve_memcpy_dir(const void* dst, const void* src, MemcpyDir& dir) const;

  // -- Kernels ----------------------------------------------------------------

  /// Enqueue a kernel on `stream` (nullptr = default stream). `name` is kept
  /// for diagnostics only; access-mode analysis lives in kir/cusan.
  Error launch_kernel(Stream* stream, LaunchDims dims, KernelBody body,
                      std::string name = "<kernel>");

 private:
  [[nodiscard]] bool is_live_stream(const Stream* stream) const;
  [[nodiscard]] bool is_live_event(const Event* event) const;

  /// Enqueue `fn` on `stream` with legacy default-stream dependencies.
  /// Returns the op's ticket. Caller must hold no lock. `label`/`kind`/`arg`
  /// name the op's span in the obs timeline (captured only when tracing).
  std::uint64_t enqueue(Stream* stream, std::function<void()> fn, const char* label = "op",
                        obs::EventKind kind = obs::EventKind::kStreamOp, std::uint64_t arg = 0);
  /// Block until `stream` completed ticket `ticket`. Caller must hold no lock.
  void wait_ticket(Stream* stream, std::uint64_t ticket);
  void wait_stream_drained_locked(Stream* stream, std::unique_lock<std::mutex>& lock);
  /// Per-stream worker loop executing the stream's FIFO.
  void stream_worker(Stream* stream);
  /// Create a stream (with its worker) under mutex_.
  Stream* create_stream_locked(StreamFlags flags);
  void apply_launch_overhead() const;
  /// If a sticky error is pending, mark its fault surfaced and return it;
  /// otherwise return `fallback`. Does not clear the latch.
  Error surface_sticky(Error fallback) const;
  void mark_sticky_surfaced() const;

  DeviceProfile profile_;
  int ordinal_;
  MemoryManager memory_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< signals stream workers (new op / dep completed)
  std::condition_variable done_cv_;  ///< signals waiting host threads
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<Event>> events_;
  std::atomic<int> obs_rank_{-1};
  /// Sticky error latch (stored as int so it stays a lock-free atomic) and
  /// the fault-plan id of the fault that latched it, if any.
  std::atomic<int> sticky_error_{0};
  mutable std::atomic<std::uint64_t> sticky_fault_{0};
};

}  // namespace cusim
