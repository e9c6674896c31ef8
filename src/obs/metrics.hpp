// Central metrics registry: one namespace of named monotonic counters and
// gauges, the repo's only counter system. Hot paths hold a `Counter&` handle
// (stable address, relaxed atomic add — never a map lookup); consumers take
// snapshots, diff them across a region of interest, and export JSON.
// Providers let subsystems contribute computed values (peak RSS,
// fault-ledger state) at snapshot time. Each rank's tool stack counts into a
// registry of its own (capi::ToolContext) that is added into the session's
// registry once, at finalize.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace obs {

class Counter {
 public:
  void add(std::uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void increment() { add(1); }
  void set(std::uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Name -> value at one point in time (sorted, so JSON export is stable).
using MetricsSnapshot = std::map<std::string, std::uint64_t, std::less<>>;

/// `name`'s value in `snapshot`, 0 when absent.
[[nodiscard]] std::uint64_t value_of(const MetricsSnapshot& snapshot, std::string_view name);

class MetricsRegistry {
 public:
  /// A fresh, empty registry without providers (a rank's tool counters, or
  /// a session's with add_process_stats()).
  MetricsRegistry();

  /// The calling thread's current registry: its svc::Session's, else the
  /// process-global registry (see common/thread_context.hpp).
  static MetricsRegistry& instance();

  /// The process-global registry, regardless of any thread binding.
  static MetricsRegistry& global();

  /// Find-or-create a counter. The returned reference stays valid for the
  /// registry's lifetime — cache it; never call this on a hot path.
  [[nodiscard]] Counter& counter(std::string_view name);

  /// Convenience: overwrite a gauge-style value.
  void set_gauge(std::string_view name, std::uint64_t value);

  /// Add every entry of `snapshot` onto the counter of the same name (a
  /// rank's finalize-time counts, a proc child's deltas).
  void add(const MetricsSnapshot& snapshot);

  /// Register the process.memstats provider: peak RSS rides along in every
  /// snapshot, so memory tables (EXPERIMENTS.md) come out of the registry.
  void add_process_stats();

  /// Providers run at snapshot time and may add/overwrite entries.
  /// Re-registering under the same name replaces the previous provider.
  using Provider = std::function<void(MetricsSnapshot&)>;
  void register_provider(const std::string& name, Provider provider);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// later - earlier, per key; keys only in `later` keep their value, keys
  /// only in `earlier` are dropped. Underflow clamps to 0 (gauges may move
  /// both ways).
  [[nodiscard]] static MetricsSnapshot diff(const MetricsSnapshot& later,
                                            const MetricsSnapshot& earlier);

  [[nodiscard]] static std::string to_json(const MetricsSnapshot& snapshot);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> counters_;  // node-stable handles
  std::map<std::string, Provider> providers_;
};

/// Shorthand for MetricsRegistry::instance().counter(name).
[[nodiscard]] inline Counter& metric(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}

}  // namespace obs
