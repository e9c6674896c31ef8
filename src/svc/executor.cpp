#include "svc/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace svc {

namespace {

/// Footprint assumed for a session before any has completed (the EMA takes
/// over after the first result): generous enough that a default budget
/// admits conservatively, small enough that modest budgets still overlap
/// sessions.
constexpr std::uint64_t kDefaultSessionBytes = 64ull * 1024 * 1024;

[[nodiscard]] std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    return fallback;
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

void SessionHandle::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done(); });
}

Executor::Executor(const ExecutorOptions& options) {
  int workers = options.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  workers = std::clamp(workers, 1, 256);

  std::uint64_t max_mb = options.max_mb;
  if (max_mb == 0) {
    max_mb = env_u64("CUSAN_SVC_MAX_MB", 0);
  }
  budget_bytes_ = max_mb * 1024 * 1024;  // 0: unbounded

  queues_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(static_cast<std::size_t>(i)); });
  }
}

Executor::~Executor() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

SessionHandlePtr Executor::submit(SessionSpec spec) {
  auto handle = std::make_shared<SessionHandle>();
  handle->session_ = std::make_unique<Session>(std::move(spec));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    const std::uint64_t estimate = estimate_locked(handle);
    // Admission: a session runs only when its estimated footprint fits the
    // remaining budget (the first in-flight session always fits, so a
    // single giant session cannot wedge the queue). Everything else parks
    // in FIFO order and is admitted as completions free budget.
    if (budget_bytes_ == 0 || inflight_ == 0 ||
        reserved_bytes_ + estimate <= budget_bytes_) {
      admit_locked(handle, estimate);
    } else {
      parked_.push_back(handle);
      ++stats_.parked;
    }
  }
  work_cv_.notify_one();
  return handle;
}

std::uint64_t Executor::estimate_locked(const SessionHandlePtr& handle) const {
  const std::uint64_t spec_estimate = handle->session_->spec().memory_estimate;
  if (spec_estimate > 0) {
    return spec_estimate;
  }
  return ema_peak_bytes_ > 0 ? ema_peak_bytes_ : kDefaultSessionBytes;
}

void Executor::admit_locked(SessionHandlePtr handle, std::uint64_t estimate) {
  handle->memory_estimate = estimate;
  reserved_bytes_ += estimate;
  ++inflight_;
  WorkerQueue& queue = *queues_[submit_cursor_++ % queues_.size()];
  std::lock_guard<std::mutex> queue_lock(queue.mutex);
  queue.deque.push_back(std::move(handle));
}

void Executor::drain_parked_locked() {
  bool admitted = false;
  while (!parked_.empty()) {
    const std::uint64_t estimate = estimate_locked(parked_.front());
    if (inflight_ > 0 && reserved_bytes_ + estimate > budget_bytes_) {
      break;
    }
    admit_locked(std::move(parked_.front()), estimate);
    parked_.pop_front();
    admitted = true;
  }
  if (admitted) {
    work_cv_.notify_all();
  }
}

SessionHandlePtr Executor::next_session(std::size_t index, bool* stolen) {
  *stolen = false;
  {
    WorkerQueue& own = *queues_[index];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.deque.empty()) {
      // LIFO on the owner's side: the freshest submission is the warmest.
      SessionHandlePtr handle = std::move(own.deque.back());
      own.deque.pop_back();
      return handle;
    }
  }
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    WorkerQueue& victim = *queues_[(index + i) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.deque.empty()) {
      // FIFO steal: take the oldest, least-warm end.
      SessionHandlePtr handle = std::move(victim.deque.front());
      victim.deque.pop_front();
      *stolen = true;
      return handle;
    }
  }
  return nullptr;
}

void Executor::worker_main(std::size_t index) {
  for (;;) {
    bool stolen = false;
    SessionHandlePtr handle = next_session(index, &stolen);
    if (handle == nullptr) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stopping_) {
        return;
      }
      // Re-scan after any submit/admission; the timeout bounds the window
      // where a notify raced ahead of this wait.
      work_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    if (stolen) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.steals;
    }
    SessionResult result = handle->session_->run();
    {
      std::lock_guard<std::mutex> handle_lock(handle->mutex_);
      handle->result_ = std::move(result);
      handle->done_.store(true, std::memory_order_release);
    }
    handle->cv_.notify_all();
    finish(handle);
  }
}

void Executor::finish(const SessionHandlePtr& handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  reserved_bytes_ -= handle->memory_estimate;
  --inflight_;
  ++stats_.completed;
  const std::uint64_t peak =
      std::max<std::uint64_t>(handle->result_.peak_session_bytes, 1024 * 1024);
  // Light smoothing: reactive to phase changes (a sweep switching to bigger
  // worlds), stable across one-off outliers.
  ema_peak_bytes_ = ema_peak_bytes_ == 0 ? peak : (3 * ema_peak_bytes_ + peak) / 4;
  drain_parked_locked();
  idle_cv_.notify_all();
}

void Executor::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0 && parked_.empty(); });
}

ExecutorStats Executor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace svc
