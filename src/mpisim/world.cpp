#include "mpisim/world.hpp"

#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/assert.hpp"
#include "common/sim_thread.hpp"
#include "mpisim/proc_comm.hpp"
#include "mpisim/supervisor.hpp"

namespace mpisim {

namespace {

std::optional<Backend> g_backend_override;

// publish_result in thread mode: ranks are threads of this process, so the
// blob goes straight into the owning World. The owner is tracked per rank
// thread (set by run_threads before rank_main starts), not by one process
// pointer — the svc executor runs many thread-backend worlds concurrently.
constinit thread_local World* t_running_thread_world = nullptr;

}  // namespace

Backend default_backend() {
  if (g_backend_override.has_value()) {
    return *g_backend_override;
  }
  const char* env = std::getenv("CUSAN_MPI_BACKEND");
  if (env != nullptr && std::strcmp(env, "proc") == 0) {
    return Backend::kProc;
  }
  return Backend::kThread;
}

ScopedBackend::ScopedBackend(Backend backend) : prev_(g_backend_override) {
  g_backend_override = backend;
}

ScopedBackend::~ScopedBackend() { g_backend_override = prev_; }

void publish_result(const Comm& comm, std::span<const std::byte> bytes) {
  if (ProcTransport* t = proc::current_transport()) {
    proc::publish_result(*t, bytes);
    return;
  }
  World* world = t_running_thread_world;
  CUSAN_ASSERT_MSG(world != nullptr, "publish_result outside World::run");
  // Each rank writes only its own pre-sized slot: no lock needed.
  world->thread_results_[static_cast<std::size_t>(comm.rank())].assign(bytes.begin(),
                                                                       bytes.end());
}

World::World(int size) : World(size, default_backend()) {}

World::World(int size, Backend backend)
    : size_(size),
      backend_(backend),
      tracker_(std::make_shared<ProgressTracker>(size)) {
  CUSAN_ASSERT_MSG(size > 0, "world size must be positive");
  if (backend_ == Backend::kThread) {
    impl_ = make_comm_impl(size, tracker_);
  }
  // Proc backend: no in-process comm state; everything lives in the world
  // segment the Supervisor creates per run().
  thread_results_.resize(static_cast<std::size_t>(size));
}

World::~World() = default;

void World::run(const std::function<void(Comm)>& rank_main) {
  if (backend_ == Backend::kProc) {
    run_procs(rank_main);
  } else {
    run_threads(rank_main);
  }
}

void World::run_threads(const std::function<void(Comm)>& rank_main) {
  std::vector<common::SimThread> threads;
  std::vector<std::exception_ptr> failures(static_cast<std::size_t>(size_));
  threads.reserve(static_cast<std::size_t>(size_));
  // SimThreads inherit the spawning thread's session context, so sessions
  // stay isolated when many worlds run concurrently under the svc executor.
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &rank_main, &failures] {
      t_running_thread_world = this;
      try {
        rank_main(Comm(impl_, r));
      } catch (...) {
        failures[static_cast<std::size_t>(r)] = std::current_exception();
      }
      t_running_thread_world = nullptr;
      // Exited ranks stop counting toward the all-blocked condition.
      tracker_->rank_exited(r);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const auto& failure : failures) {
    if (failure) {
      std::rethrow_exception(failure);
    }
  }
}

void World::run_procs(const std::function<void(Comm)>& rank_main) {
  Supervisor::Options options;
  options.world_size = size_;
  options.watchdog = tracker_->timeout();
  supervisor_ = std::make_unique<Supervisor>(options);
  supervisor_->run(rank_main);
  failure_ = supervisor_->failure_report();
  if (!supervisor_->first_app_error().empty()) {
    // Mirror the thread backend: a throwing rank_main surfaces here. The
    // original exception type died with the child; the message survives.
    throw std::runtime_error(supervisor_->first_app_error());
  }
}

DeadlockReport World::deadlock_report() const {
  if (backend_ == Backend::kProc) {
    return supervisor_ ? supervisor_->deadlock_report() : DeadlockReport{};
  }
  return tracker_->report();
}

const std::vector<std::byte>& World::rank_result(int rank) const {
  CUSAN_ASSERT_MSG(rank >= 0 && rank < size_, "rank out of range");
  if (backend_ == Backend::kProc && supervisor_) {
    return supervisor_->rank_result(rank);
  }
  return thread_results_[static_cast<std::size_t>(rank)];
}

}  // namespace mpisim
