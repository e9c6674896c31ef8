// The session executor: N worker threads multiplex many svc::Sessions per
// process, amortizing all per-process fixed costs (binary startup, static
// init, TypeDB/profile construction) across thousands of checked sessions.
//
//   svc::Executor executor({.workers = 4});
//   auto handle = executor.submit(spec);
//   handle->wait();
//   const svc::SessionResult& r = handle->result();
//
// Scheduling: one FIFO queue shared by all workers, so sessions start in
// submission order at any worker count. Session bodies may block for long
// stretches (watchdog waits, schedule exploration), so workers
// oversubscribing cores is by design — blocked sessions cost a thread, not a
// core.
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
};

struct ExecutorStats {
  std::uint64_t submitted{0};
  std::uint64_t completed{0};
  /// Always 0: the one shared queue has nothing to steal and no budget to
  /// park against. Kept because bench_e2e's svc-batch workload reports both.
  std::uint64_t steals{0};
  std::uint64_t parked{0};
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
  void worker_main();
  void finish();

  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers: new work or shutdown
  std::condition_variable idle_cv_;   ///< wait_idle
  std::deque<SessionHandlePtr> queue_;  ///< submitted, not yet started
  bool stopping_{false};
  std::uint64_t inflight_{0};         ///< submitted and not yet finished
  ExecutorStats stats_{};
};

}  // namespace svc
