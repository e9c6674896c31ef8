// The calling thread's tool-state binding: the four instances an svc::Session
// owns (metrics registry, diagnostics hub, fault injector, schedule
// controller), held in one constinit thread_local struct.
// svc::Session::run is the only place that binds a session; common::SimThread,
// which starts mpisim rank threads and cusim stream workers, copies the
// parent's binding with capture() and installs it in the spawned thread with
// a Scope, so a session's worlds and streams resolve to the session too.
//
// A thread with no binding sees every member as null and each subsystem's
// instance() falls back to its process instance: harnesses, examples and
// benches that call capi::run_session directly keep working unchanged.
//
// The members are forward-declared pointers because common sits below obs,
// faultsim and schedsim. The instance is constant-initialized and the struct
// trivially destructible, so reading a member is one TLS load with no
// initialization guard — the disarmed gates (Injector::armed,
// Controller::armed) rely on that.
#pragma once

namespace obs {
class MetricsRegistry;
class DiagnosticHub;
}  // namespace obs
namespace faultsim {
class Injector;
}  // namespace faultsim
namespace schedsim {
class Controller;
}  // namespace schedsim

namespace common {

struct ThreadContext {
  obs::MetricsRegistry* metrics{nullptr};
  obs::DiagnosticHub* hub{nullptr};
  faultsim::Injector* injector{nullptr};
  schedsim::Controller* controller{nullptr};

  /// The calling thread's binding (all null when unbound).
  [[nodiscard]] static const ThreadContext& current();

  /// A copy of the calling thread's binding, for a thread about to spawn.
  [[nodiscard]] static ThreadContext capture() { return current(); }

  /// Installs a binding for the Scope's lifetime and restores the previous
  /// one on destruction.
  class Scope;
};

namespace detail {
extern constinit thread_local ThreadContext t_thread_context;
}  // namespace detail

inline const ThreadContext& ThreadContext::current() { return detail::t_thread_context; }

class ThreadContext::Scope {
 public:
  explicit Scope(const ThreadContext& context) : saved_(detail::t_thread_context) {
    detail::t_thread_context = context;
  }
  ~Scope() { detail::t_thread_context = saved_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadContext saved_;
};

}  // namespace common
