#include "svc/executor.hpp"

#include <algorithm>

namespace svc {

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
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
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
    ++inflight_;
    queue_.push_back(handle);
  }
  work_cv_.notify_one();
  return handle;
}

void Executor::worker_main() {
  for (;;) {
    SessionHandlePtr handle;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping, and the destructor drained the queue first
      }
      // FIFO: sessions share no warm state, and submission order is the
      // order in-order consumers (check_cutests) wait on their handles.
      handle = std::move(queue_.front());
      queue_.pop_front();
    }
    SessionResult result = handle->session_->run();
    {
      std::lock_guard<std::mutex> handle_lock(handle->mutex_);
      handle->result_ = std::move(result);
      handle->done_.store(true, std::memory_order_release);
    }
    handle->cv_.notify_all();
    finish();
  }
}

void Executor::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  --inflight_;
  ++stats_.completed;
  idle_cv_.notify_all();
}

void Executor::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return inflight_ == 0; });
}

ExecutorStats Executor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace svc
