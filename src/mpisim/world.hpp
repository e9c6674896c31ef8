// The MPI world: launches N ranks sharing one communicator, joins them,
// and propagates failures. One World::run corresponds to one mpirun
// invocation of the paper's benchmark setup.
//
// Two backends share the Comm surface (selected by CUSAN_MPI_BACKEND):
//  - thread (default): ranks are threads of this process — fast, and a
//    crash anywhere takes the whole world down.
//  - proc: ranks are forked processes talking over shared-memory rings,
//    with a parent-side Supervisor providing crash containment — a dying
//    rank becomes a RankFailureReport and poisoned communicators instead
//    of a dead test binary (see docs/architecture.md, "Process backend").
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mpisim/comm.hpp"
#include "mpisim/failure.hpp"

namespace mpisim {

class Supervisor;

enum class Backend {
  kThread,  ///< ranks as threads, in-process mailboxes
  kProc,    ///< ranks as processes, shared-memory rings + supervisor
};

[[nodiscard]] constexpr const char* to_string(Backend b) {
  return b == Backend::kProc ? "proc" : "thread";
}

/// CUSAN_MPI_BACKEND: "thread" (default) or "proc"; a ScopedBackend
/// override (tests) takes precedence over the environment.
[[nodiscard]] Backend default_backend();

/// RAII override of default_backend() for tests that sweep both backends
/// without touching the environment. Nestable; not thread-safe (install
/// from the test main thread before constructing Worlds).
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  std::optional<Backend> prev_;
};

/// Publish this rank's opaque result blob so the parent World can read it
/// after run() (proc: shipped via a named segment; thread: stored
/// directly). Call from inside rank_main; at most once per rank.
void publish_result(const Comm& comm, std::span<const std::byte> bytes);

class World {
 public:
  explicit World(int size);
  World(int size, Backend backend);
  ~World();

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] Backend backend() const { return backend_; }

  /// Execute `rank_main(comm)` on every rank and join. If any rank throws,
  /// the first (by rank) exception is rethrown after all ranks finished
  /// (mirrors an MPI abort). In the proc backend a *crashing* rank does not
  /// throw here — it yields failure_report() and poisoned peers.
  void run(const std::function<void(Comm)>& rank_main);

  /// The progress watchdog shared by the world communicator and all dups.
  /// In the proc backend its timeout configures the supervisor-side
  /// deadlock detection (the tracker itself sees no traffic).
  [[nodiscard]] ProgressTracker& watchdog() { return *tracker_; }
  [[nodiscard]] const ProgressTracker& watchdog() const { return *tracker_; }
  void set_watchdog_timeout(std::chrono::milliseconds timeout) {
    tracker_->set_timeout(timeout);
  }

  /// The rank failure detected during run(), if any (proc backend; the
  /// thread backend cannot contain crashes and never sets this).
  [[nodiscard]] const std::optional<RankFailureReport>& failure_report() const {
    return failure_;
  }
  /// The deadlock report, whichever side declared it (empty: none).
  [[nodiscard]] DeadlockReport deadlock_report() const;
  /// The blob `rank` published via publish_result (empty: none).
  [[nodiscard]] const std::vector<std::byte>& rank_result(int rank) const;

 private:
  friend void publish_result(const Comm& comm, std::span<const std::byte> bytes);

  void run_threads(const std::function<void(Comm)>& rank_main);
  void run_procs(const std::function<void(Comm)>& rank_main);

  int size_;
  Backend backend_;
  std::shared_ptr<ProgressTracker> tracker_;
  std::shared_ptr<CommImpl> impl_;  ///< thread backend only
  std::unique_ptr<Supervisor> supervisor_;  ///< proc backend, kept after run()
  std::vector<std::vector<std::byte>> thread_results_;
  std::optional<RankFailureReport> failure_;
};

}  // namespace mpisim
