// The work-stealing session executor: N worker threads multiplex many
// svc::Sessions per process, amortizing all per-process fixed costs
// (binary startup, static init, TypeDB/profile construction) across
// thousands of checked sessions. Admission control keeps the sum of
// estimated resident session bytes under a budget — a saturated executor
// degrades by queueing sessions, never by OOM.
//
//   svc::Executor executor;                      // CUSAN_SVC_MAX_MB budget
//   auto handle = executor.submit(spec);
//   handle->wait();
//   const svc::SessionResult& r = handle->result();
//
// Scheduling: each worker owns a deque (LIFO pop for cache warmth, FIFO
// steal), submissions distribute round-robin, idle workers steal before
// sleeping. Session bodies may block for long stretches (watchdog waits,
// schedule exploration), so workers oversubscribing cores is by design —
// blocked sessions cost a thread, not a core.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "svc/session.hpp"

namespace svc {

/// Shared handle to one submitted session. Thread-safe.
class SessionHandle {
 public:
  [[nodiscard]] bool done() const { return done_.load(std::memory_order_acquire); }
  /// Block until the session is done.
  void wait();
  /// Valid once done().
  [[nodiscard]] const SessionResult& result() const { return result_; }

 private:
  friend class Executor;

  std::uint64_t memory_estimate{0};
  std::unique_ptr<Session> session_;
  SessionResult result_;

  std::atomic<bool> done_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
};

using SessionHandlePtr = std::shared_ptr<SessionHandle>;

struct ExecutorOptions {
  /// Worker thread count; 0: hardware_concurrency.
  int workers{0};
  /// Admission budget in MiB for the sum of concurrent sessions' estimated
  /// resident bytes; 0 reads CUSAN_SVC_MAX_MB, falling back to unbounded.
  std::uint64_t max_mb{0};
};

struct ExecutorStats {
  std::uint64_t submitted{0};
  std::uint64_t completed{0};
  std::uint64_t steals{0};       ///< sessions run by a worker that stole them
  std::uint64_t parked{0};       ///< admissions deferred by the memory budget
};

class Executor {
 public:
  explicit Executor(const ExecutorOptions& options = {});
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueue a session; returns immediately.
  SessionHandlePtr submit(SessionSpec spec);

  /// Block until every submitted session is done.
  void wait_idle();

  [[nodiscard]] ExecutorStats stats() const;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<SessionHandlePtr> deque;
  };

  void worker_main(std::size_t index);
  [[nodiscard]] SessionHandlePtr next_session(std::size_t index, bool* stolen);
  void finish(const SessionHandlePtr& handle);
  /// Queue `handle` on the next worker's deque and reserve its estimate.
  void admit_locked(SessionHandlePtr handle, std::uint64_t estimate);
  /// Admit as many parked sessions as the freed budget allows (locked).
  void drain_parked_locked();
  [[nodiscard]] std::uint64_t estimate_locked(const SessionHandlePtr& handle) const;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers: new work or shutdown
  std::condition_variable idle_cv_;   ///< wait_idle
  std::deque<SessionHandlePtr> parked_;  ///< over-budget FIFO
  bool stopping_{false};
  std::uint64_t budget_bytes_{0};     ///< 0: unbounded
  std::uint64_t reserved_bytes_{0};
  std::uint64_t ema_peak_bytes_{0};
  std::uint64_t inflight_{0};         ///< admitted (queued-on-worker or running)
  std::size_t submit_cursor_{0};
  ExecutorStats stats_{};
};

}  // namespace svc
