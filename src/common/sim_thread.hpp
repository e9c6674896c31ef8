// How the simulator starts the threads every session spawns: mpisim rank
// threads and cusim stream workers. A SimThread behaves like std::thread
// (join, move, and std::terminate on an escaping exception or on destroying
// a joinable thread), with two differences:
//  - it runs on a fixed kSimThreadStackBytes stack, not std::thread's 8 MiB
//    default;
//  - the body runs under the spawning thread's ThreadContext, so a session's
//    ranks and streams resolve to the session, not the process globals.
//
// Why the small stack: glibc keeps at most 40 MiB of freed thread stacks for
// reuse. With 8 MiB stacks, once more than five simulator threads are alive,
// every start maps a fresh stack and every exit unmaps one, and a session's
// kernel time outweighs its user time. At 256 KiB, four svc workers of
// 8-rank sessions (8 rank threads plus up to 16 stream workers each) fit in
// that cache. Nothing is kept between threads, so a forked proc rank starts
// with nothing to reset.
#pragma once

#include <pthread.h>

#include <cstddef>
#include <functional>

namespace common {

/// Stack size of every SimThread. A constant, not a setting: rank bodies and
/// stream ops need little stack (the simulated programs keep their data on the
/// heap), and the sanitizer builds pass the whole suite on it.
inline constexpr std::size_t kSimThreadStackBytes = std::size_t{256} << 10;

class SimThread {
 public:
  /// No thread; not joinable.
  SimThread() noexcept = default;
  /// Starts `body` on a new thread. Throws std::system_error when the thread
  /// cannot be created.
  explicit SimThread(std::function<void()> body);
  SimThread(SimThread&& other) noexcept;
  /// Calls std::terminate if this thread is still joinable.
  SimThread& operator=(SimThread&& other) noexcept;
  /// Calls std::terminate if the thread is still joinable.
  ~SimThread();
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  [[nodiscard]] bool joinable() const noexcept { return joinable_; }
  /// Waits for the body to return. Throws std::system_error when not
  /// joinable or when called from the thread itself.
  void join();

 private:
  pthread_t handle_{};
  bool joinable_{false};
};

}  // namespace common
