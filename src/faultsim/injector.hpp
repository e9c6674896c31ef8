// The process-wide fault injector: call sites probe it, it decides whether
// the current call is the plan's n-th match, and it keeps the ledger that
// lets the sweep harness prove every injected fault was *surfaced* somewhere
// (API error, sticky device error, MUST report, DeadlockReport) instead of
// silently swallowed.
//
// Cost model: with no plan loaded, armed() is a single relaxed atomic load —
// the only instruction fault hooks execute (the bench guard asserts this
// stays <1% of the cheapest guarded operation). With a plan loaded, probes
// take a mutex; determinism matters more than speed on faulted runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_context.hpp"
#include "faultsim/plan.hpp"

namespace obs {
class MetricsRegistry;
}

namespace faultsim {

/// Where a probing call site sits; fields not applicable stay -1. The rank
/// (when >= 0) or else the device is the *instance key* for deterministic
/// per-instance match counting.
struct SiteContext {
  int device{-1};
  int rank{-1};
  int stream{-1};
};

/// How an injected fault became observable to the application / tool stack.
enum class Channel : std::uint8_t {
  kNone,            ///< not yet surfaced — a sweep failure if it stays that way
  kApiError,        ///< synchronous error return at the injection site
  kStickyError,     ///< latched device error seen at a sync/query/GetLastError
  kMustReport,      ///< surfaced as a MUST report
  kDeadlockReport,  ///< converted into a watchdog DeadlockReport
  kPerturbation,    ///< delay: timing-only, surfaced by construction
  kFailureReport,   ///< rank_kill surfaced as a RankFailureReport (proc backend)
};

[[nodiscard]] const char* to_string(Channel channel);

/// What a positive probe tells the call site to do.
struct Fired {
  std::uint64_t id{0};
  Action action{Action::kFail};
  std::chrono::microseconds delay{0};
};

/// Ledger entry for one fired fault.
struct FiredFault {
  std::uint64_t id{0};
  Site site{Site::kMalloc};
  Action action{Action::kFail};
  SiteContext where{};
  Channel surfaced{Channel::kNone};
};

class Injector;

namespace detail {
/// Mirror of the *global* injector's armed state, so threads with no session
/// binding keep the one-relaxed-load fast path without touching the
/// function-local-static global instance from an inline header.
extern constinit std::atomic<bool> g_process_armed;
}  // namespace detail

class Injector {
 public:
  /// A fresh, disarmed injector (session-scoped use).
  Injector() = default;
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// The calling thread's current injector: its svc::Session's, else the
  /// process-global injector (see common/thread_context.hpp).
  [[nodiscard]] static Injector& instance();

  /// The process-global injector, regardless of any thread binding.
  [[nodiscard]] static Injector& global();

  /// The zero-overhead fast path: false unless the current instance has a
  /// non-empty plan loaded. One TLS load, a predicted branch and one relaxed
  /// atomic load — the bench guard budget still holds.
  [[nodiscard]] static bool armed() {
    const Injector* current = common::ThreadContext::current().injector;
    return current != nullptr ? current->armed_.load(std::memory_order_relaxed)
                              : detail::g_process_armed.load(std::memory_order_relaxed);
  }

  /// Register this injector's ledger provider (faultsim.ledger_fired /
  /// _unsurfaced) on `registry`. The global injector registers itself on the
  /// global registry automatically; svc sessions call this for theirs.
  void register_ledger_provider(obs::MetricsRegistry& registry);

  /// Install `plan`, resetting all match counters and the fired ledger.
  void load(FaultPlan plan);
  /// Load the plan from CUSAN_FAULT_PLAN (empty/unset: no plan). Returns
  /// false on a parse error, with the message in *error if given.
  bool load_env(std::string* error = nullptr);
  /// Drop the plan, counters and ledger; disarms the fast path.
  void clear();

  [[nodiscard]] bool has_plan() const;
  [[nodiscard]] std::string plan_string() const;

  /// Ask whether this call is scheduled to fault. At most one spec fires per
  /// probe (first matching spec in plan order wins). kDelay fires are marked
  /// kPerturbation immediately; every other action must be surfaced by the
  /// call site via mark_surfaced.
  [[nodiscard]] std::optional<Fired> probe(Site site, const SiteContext& where);

  /// Record how fault `fault_id` became observable. id 0 is ignored.
  void mark_surfaced(std::uint64_t fault_id, Channel channel);

  [[nodiscard]] std::vector<FiredFault> fired_log() const;
  [[nodiscard]] std::size_t fired_count() const;
  /// Fired faults not yet surfaced through any channel.
  [[nodiscard]] std::size_t unsurfaced_count() const;
  /// Drain the ledger (sweep harness: per-run accounting).
  std::vector<FiredFault> take_fired();

  /// Append fired faults probed in another process (proc-backend children
  /// ship their ledgers at finalize; a killed rank's rank_kill record comes
  /// through its shm slot). Ids are remapped into this process's sequence;
  /// surfacing state is preserved. Emits no metrics or diagnostics — the
  /// child's own were shipped alongside.
  void import_fired(const std::vector<FiredFault>& entries);

 private:
  void set_armed(bool armed);

  struct SpecState {
    FaultSpec spec;
    /// Match count per instance key (rank if known, else device, else 0).
    /// Keys are small non-negative ints; a flat vector keeps this allocation-
    /// free for the common case.
    std::vector<std::uint64_t> counts;
  };

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  std::vector<SpecState> specs_;
  std::vector<FiredFault> fired_;
  std::uint64_t next_id_{1};
};

}  // namespace faultsim
