#include "common/sim_thread.hpp"

#include <exception>
#include <memory>
#include <system_error>
#include <utility>

#include "common/thread_context.hpp"

namespace common {

namespace {

struct Start {
  std::function<void()> body;
  ThreadContext context;
};

// noexcept: an exception escaping the body calls std::terminate, as it does
// on a std::thread.
void* run_sim_thread(void* arg) noexcept {
  const std::unique_ptr<Start> start(static_cast<Start*>(arg));
  const ThreadContext::Scope scope(start->context);
  start->body();
  return nullptr;
}

}  // namespace

SimThread::SimThread(std::function<void()> body) {
  auto start = std::make_unique<Start>(Start{std::move(body), ThreadContext::capture()});
  pthread_attr_t attr;
  int err = pthread_attr_init(&attr);
  if (err == 0) {
    err = pthread_attr_setstacksize(&attr, kSimThreadStackBytes);
    if (err == 0) {
      err = pthread_create(&handle_, &attr, run_sim_thread, start.get());
    }
    (void)pthread_attr_destroy(&attr);
  }
  if (err != 0) {
    throw std::system_error(err, std::generic_category(), "SimThread: cannot start thread");
  }
  (void)start.release();  // owned by the new thread
  joinable_ = true;
}

SimThread::SimThread(SimThread&& other) noexcept
    : handle_(other.handle_), joinable_(std::exchange(other.joinable_, false)) {}

SimThread& SimThread::operator=(SimThread&& other) noexcept {
  if (joinable_) {
    std::terminate();
  }
  handle_ = other.handle_;
  joinable_ = std::exchange(other.joinable_, false);
  return *this;
}

SimThread::~SimThread() {
  if (joinable_) {
    std::terminate();
  }
}

void SimThread::join() {
  if (!joinable_) {
    throw std::system_error(std::make_error_code(std::errc::invalid_argument),
                            "SimThread::join: not joinable");
  }
  // glibc returns EDEADLK for a self-join, as std::thread reports it.
  const int err = pthread_join(handle_, nullptr);
  if (err != 0) {
    throw std::system_error(err, std::generic_category(), "SimThread::join");
  }
  joinable_ = false;
}

}  // namespace common
