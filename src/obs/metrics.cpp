#include "obs/metrics.hpp"

#include <vector>

#include "common/format.hpp"
#include "common/memstats.hpp"
#include "common/thread_context.hpp"

namespace obs {

std::uint64_t value_of(const MetricsSnapshot& snapshot, std::string_view name) {
  const auto it = snapshot.find(name);
  return it != snapshot.end() ? it->second : 0;
}

MetricsRegistry& MetricsRegistry::instance() {
  MetricsRegistry* current = common::ThreadContext::current().metrics;
  return current != nullptr ? *current : global();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  static const bool process_stats = (registry.add_process_stats(), true);
  (void)process_stats;
  return registry;
}

MetricsRegistry::MetricsRegistry() = default;

void MetricsRegistry::add_process_stats() {
  register_provider("process.memstats", [](MetricsSnapshot& snapshot) {
    const auto stats = common::read_memstats();
    snapshot["process.rss_bytes"] = stats.rss_bytes;
    snapshot["process.rss_peak_bytes"] = stats.rss_peak_bytes;
  });
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

void MetricsRegistry::set_gauge(std::string_view name, std::uint64_t value) {
  counter(name).set(value);
}

void MetricsRegistry::add(const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot) {
    counter(name).add(value);
  }
}

void MetricsRegistry::register_provider(const std::string& name, Provider provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  providers_[name] = std::move(provider);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::vector<Provider> providers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, value] : counters_) {
      out.emplace_hint(out.end(), name, value.value());
    }
    providers.reserve(providers_.size());
    for (const auto& [name, provider] : providers_) {
      providers.push_back(provider);
    }
  }
  // Providers run unlocked: they may touch other subsystems that in turn
  // create counters.
  for (const auto& provider : providers) {
    provider(out);
  }
  return out;
}

MetricsSnapshot MetricsRegistry::diff(const MetricsSnapshot& later,
                                      const MetricsSnapshot& earlier) {
  MetricsSnapshot out;
  for (const auto& [name, value] : later) {
    const auto it = earlier.find(name);
    const std::uint64_t before = it != earlier.end() ? it->second : 0;
    out[name] = value >= before ? value - before : 0;
  }
  return out;
}

std::string MetricsRegistry::to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [name, value] : snapshot) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += common::format("  \"{}\": {}", name, value);
  }
  out += "\n}\n";
  return out;
}

}  // namespace obs
