#include "obs/metrics.hpp"

#include <algorithm>
#include <vector>

#include "common/format.hpp"
#include "common/memstats.hpp"
#include "common/thread_context.hpp"

namespace obs {

std::optional<MetricId> MetricId::find(std::string_view name) {
  const auto it = std::lower_bound(kMetricSchema.begin(), kMetricSchema.end(), name);
  if (it == kMetricSchema.end() || *it != name) {
    return std::nullopt;
  }
  return MetricId(static_cast<std::size_t>(it - kMetricSchema.begin()));
}

MetricsSnapshot MetricCounts::snapshot() const {
  MetricsSnapshot out;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (slots[i] != 0 || listed.test(i)) {
      out.emplace_hint(out.end(), kMetricSchema[i], slots[i]);
    }
  }
  out.insert(extra.begin(), extra.end());
  return out;
}

std::uint64_t value_of(const MetricsSnapshot& snapshot, std::string_view name) {
  const auto it = snapshot.find(name);
  return it != snapshot.end() ? it->second : 0;
}

std::uint64_t value_of(const MetricCounts& counts, std::string_view name) {
  if (const std::optional<MetricId> id = MetricId::find(name)) {
    return counts[*id];
  }
  return value_of(counts.extra, name);
}

MetricsRegistry& MetricsRegistry::instance() {
  MetricsRegistry* current = common::ThreadContext::current().metrics;
  return current != nullptr ? *current : global();
}

MetricsRegistry& MetricsRegistry::global() {
  // The process registry alone carries the process.memstats provider: the
  // RSS rides along in its snapshots, so memory tables (EXPERIMENTS.md) come
  // out of the registry. A session registry's diff of it would be a clamped
  // share of one process's resident set, not a counter.
  static MetricsRegistry registry;
  static const bool process_stats = [] {
    registry.register_provider("process.memstats", [](MetricCounts& counts) {
      const auto stats = common::read_memstats();
      counts.set("process.rss_bytes", stats.rss_bytes);
      counts.set("process.rss_peak_bytes", stats.rss_peak_bytes);
    });
    return true;
  }();
  (void)process_stats;
  return registry;
}

MetricsRegistry::MetricsRegistry() = default;

void MetricsRegistry::list(std::span<const MetricId> ids) {
  for (const MetricId id : ids) {
    // Check first: a listed slot's flag is read by every bump of its group,
    // so it must not be rewritten (and its cache line bounced) each time.
    if (!listed(id)) {
      listed_[id.index()].store(true, std::memory_order_relaxed);
    }
  }
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
  list({&id, 1});
  slot(id).add(delta);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (const std::optional<MetricId> id = MetricId::find(name)) {
    list({&*id, 1});
    return slot(*id);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = extra_.find(name);
  if (it == extra_.end()) {
    it = extra_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

void MetricsRegistry::add(const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot) {
    counter(name).add(value);
  }
}

void MetricsRegistry::add(const MetricCounts& counts) {
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    if (counts.slots[i] != 0) {
      slots_[i].add(counts.slots[i]);
    }
  }
  for (const auto& [name, value] : counts.extra) {
    if (value != 0) {
      counter(name).add(value);
    }
  }
}

void MetricsRegistry::register_provider(const std::string& name, Provider provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  providers_[name] = std::move(provider);
}

MetricCounts MetricsRegistry::counts() const {
  MetricCounts out;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    out.slots[i] = slots_[i].value();
    if (listed_[i].load(std::memory_order_relaxed)) {
      out.listed.set(i);
    }
  }
  std::vector<Provider> providers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, value] : extra_) {
      out.extra.emplace_hint(out.extra.end(), name, value.value());
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

MetricsSnapshot MetricsRegistry::snapshot() const { return counts().snapshot(); }

MetricsSnapshot MetricsRegistry::diff(const MetricsSnapshot& later,
                                      const MetricsSnapshot& earlier) {
  MetricsSnapshot out;
  for (const auto& [name, value] : later) {
    const auto it = earlier.find(name);
    const std::uint64_t before = it != earlier.end() ? it->second : 0;
    out.emplace_hint(out.end(), name, value >= before ? value - before : 0);
  }
  return out;
}

MetricsSnapshot MetricsRegistry::diff(const MetricCounts& later, const MetricCounts& earlier) {
  MetricsSnapshot out;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const std::uint64_t value = later.slots[i];
    const std::uint64_t before = earlier.slots[i];
    if (value != 0 || later.listed.test(i)) {
      out.emplace_hint(out.end(), kMetricSchema[i], value >= before ? value - before : 0);
    }
  }
  out.merge(diff(later.extra, earlier.extra));
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
