#include "faultsim/injector.hpp"

#include <cstdlib>

#include "common/format.hpp"
#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"

namespace faultsim {
namespace {

[[nodiscard]] bool scope_matches(const FaultSpec& spec, const SiteContext& where) {
  switch (spec.scope_kind) {
    case ScopeKind::kAny:
      return true;
    case ScopeKind::kDevice:
      return where.device == spec.scope_id;
    case ScopeKind::kRank:
      return where.rank == spec.scope_id;
    case ScopeKind::kStream:
      return where.stream == spec.scope_id;
  }
  return false;
}

/// Deterministic per-instance counting: the rank (MPI sites) or the device
/// (CUDA sites) identifies the instance. A shared global counter would make
/// the fault schedule depend on thread interleaving across ranks.
[[nodiscard]] std::size_t instance_key(const SiteContext& where) {
  if (where.rank >= 0) {
    return static_cast<std::size_t>(where.rank);
  }
  if (where.device >= 0) {
    return static_cast<std::size_t>(where.device);
  }
  return 0;
}

}  // namespace

const char* to_string(Channel channel) {
  switch (channel) {
    case Channel::kNone:
      return "unsurfaced";
    case Channel::kApiError:
      return "API error";
    case Channel::kStickyError:
      return "sticky device error";
    case Channel::kMustReport:
      return "MUST report";
    case Channel::kDeadlockReport:
      return "deadlock report";
    case Channel::kPerturbation:
      return "timing perturbation";
    case Channel::kFailureReport:
      return "rank-failure report";
  }
  return "?";
}

namespace detail {

constinit std::atomic<bool> g_process_armed{false};

}  // namespace detail

Injector& Injector::instance() {
  Injector* current = common::ThreadContext::current().injector;
  return current != nullptr ? *current : global();
}

Injector& Injector::global() {
  static Injector injector;
  // Ledger state rides along in every global metrics snapshot (registered
  // once; the provider recomputes from the ledger so take_fired drains are
  // reflected, unlike the monotonic faultsim.faults_fired counter). Session
  // injectors register theirs on the session registry via svc::Session.
  static const bool provider_registered = [] {
    injector.register_ledger_provider(obs::MetricsRegistry::global());
    return true;
  }();
  (void)provider_registered;
  return injector;
}

void Injector::register_ledger_provider(obs::MetricsRegistry& registry) {
  registry.register_provider("faultsim.ledger", [this](obs::MetricCounts& counts) {
    counts.set("faultsim.ledger_fired", fired_count());
    counts.set("faultsim.ledger_unsurfaced", unsurfaced_count());
  });
}

void Injector::set_armed(bool armed) {
  armed_.store(armed, std::memory_order_relaxed);
  if (this == &global()) {
    detail::g_process_armed.store(armed, std::memory_order_relaxed);
  }
}

void Injector::load(FaultPlan plan) {
  std::lock_guard lock(mutex_);
  specs_.clear();
  fired_.clear();
  next_id_ = 1;
  for (const FaultSpec& spec : plan.specs()) {
    specs_.push_back(SpecState{spec, {}});
  }
  set_armed(!specs_.empty());
}

bool Injector::load_env(std::string* error) {
  const char* text = std::getenv("CUSAN_FAULT_PLAN");
  if (text == nullptr || text[0] == '\0') {
    return true;  // no plan: stay disarmed (or keep a programmatic plan as-is)
  }
  FaultPlan plan;
  const FaultPlan::ParseResult result = FaultPlan::parse(text, plan);
  if (!result.ok) {
    if (error != nullptr) {
      *error = result.error;
    }
    return false;
  }
  load(std::move(plan));
  return true;
}

void Injector::clear() {
  std::lock_guard lock(mutex_);
  specs_.clear();
  fired_.clear();
  set_armed(false);
}

bool Injector::has_plan() const {
  std::lock_guard lock(mutex_);
  return !specs_.empty();
}

std::string Injector::plan_string() const {
  std::lock_guard lock(mutex_);
  FaultPlan plan;
  for (const SpecState& state : specs_) {
    plan.add(state.spec);
  }
  return plan.to_string();
}

std::optional<Fired> Injector::probe(Site site, const SiteContext& where) {
  if (!armed()) {
    return std::nullopt;
  }
  std::unique_lock lock(mutex_);
  for (SpecState& state : specs_) {
    const FaultSpec& spec = state.spec;
    if (spec.site != site || !scope_matches(spec, where)) {
      continue;
    }
    const std::size_t key = instance_key(where);
    if (state.counts.size() <= key) {
      state.counts.resize(key + 1, 0);
    }
    const std::uint64_t count = ++state.counts[key];
    const bool fires =
        spec.period == 0 ? count == spec.nth
                         : count >= spec.nth && (count - spec.nth) % spec.period == 0;
    if (!fires) {
      continue;
    }
    FiredFault entry;
    entry.id = next_id_++;
    entry.site = site;
    entry.action = spec.action;
    entry.where = where;
    // Delays are observable by construction (the call still succeeds).
    entry.surfaced = spec.action == Action::kDelay ? Channel::kPerturbation : Channel::kNone;
    fired_.push_back(entry);
    const auto delay = spec.delay;
    lock.unlock();  // obs fan-out below must not run under the probe mutex
    obs::count("faultsim.faults_fired");
    obs::emit_diagnostic(obs::Diagnostic{
        "faultsim.fault_fired", obs::Severity::kWarning, where.rank,
        common::format("fault #{} {} at {} (device {}, stream {})", entry.id,
                       to_string(entry.action), to_string(entry.site), where.device,
                       where.stream),
        0});
    return Fired{entry.id, entry.action, delay};
  }
  return std::nullopt;
}

void Injector::mark_surfaced(std::uint64_t fault_id, Channel channel) {
  if (fault_id == 0) {
    return;
  }
  std::lock_guard lock(mutex_);
  for (FiredFault& entry : fired_) {
    if (entry.id == fault_id) {
      if (entry.surfaced == Channel::kNone) {
        entry.surfaced = channel;
      }
      return;
    }
  }
}

std::vector<FiredFault> Injector::fired_log() const {
  std::lock_guard lock(mutex_);
  return fired_;
}

std::size_t Injector::fired_count() const {
  std::lock_guard lock(mutex_);
  return fired_.size();
}

std::size_t Injector::unsurfaced_count() const {
  std::lock_guard lock(mutex_);
  std::size_t count = 0;
  for (const FiredFault& entry : fired_) {
    count += entry.surfaced == Channel::kNone ? 1 : 0;
  }
  return count;
}

std::vector<FiredFault> Injector::take_fired() {
  std::lock_guard lock(mutex_);
  std::vector<FiredFault> out = std::move(fired_);
  fired_.clear();
  return out;
}

void Injector::import_fired(const std::vector<FiredFault>& entries) {
  std::lock_guard lock(mutex_);
  for (FiredFault entry : entries) {
    entry.id = next_id_++;
    fired_.push_back(entry);
  }
}

}  // namespace faultsim
