// Central metrics registry: the repo's only counter system. Every name the
// stack publishes is one entry of the fixed schema (obs/metric_schema.hpp),
// and a registry holds a flat array of slots indexed by schema id. Hot paths
// name a counter by MetricId — resolved at compile time — and bump its slot
// with one relaxed atomic add, or, where the slot has one writer thread (a
// rank's registry, bumped only by its host thread), with a relaxed load and
// store (Counter::add_owned); names are only spelled out where a snapshot
// leaves the process (JSON, SessionResult::metric_deltas, the proc
// RankPayload). Names outside the schema get a counter of their own in a
// small mutex-guarded overflow map.
//
// Consumers take snapshots, diff them across a region of interest, and
// export JSON. Providers fill computed gauges (peak RSS, fault-ledger state)
// in at snapshot time. Each rank's tool stack counts into a registry of its
// own (capi::ToolContext) whose values are added into the session's registry
// once, slot by slot, at finalize.
#pragma once

#include <array>
#include <atomic>
#include <bitset>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "obs/metric_schema.hpp"

namespace obs {

class Counter {
 public:
  void add(std::uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void increment() { add(1); }
  /// add() for a counter that only the calling thread writes: a relaxed load
  /// and store, no locked read-modify-write. Readers on other threads still
  /// see a whole value; a concurrent add() from another thread could be lost.
  void add_owned(std::uint64_t delta) {
    value_.store(value_.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
  void increment_owned() { add_owned(1); }
  void set(std::uint64_t value) { value_.store(value, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A schema name as its slot index. A string literal converts at compile
/// time, so `registry.slot("rsan.plain_reads")` does no string work at run
/// time and a name outside the schema does not compile; find() resolves a
/// run-time string.
class MetricId {
 public:
  template <std::size_t N>
  consteval MetricId(const char (&name)[N]) : index_(schema_index(std::string_view(name, N - 1))) {}

  /// The schema entry named `name`, if there is one.
  [[nodiscard]] static std::optional<MetricId> find(std::string_view name);

  [[nodiscard]] constexpr std::size_t index() const { return index_; }

 private:
  explicit constexpr MetricId(std::size_t index) : index_(static_cast<std::uint16_t>(index)) {}

  static consteval std::uint16_t schema_index(std::string_view name) {
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      if (kMetricSchema[i] == name) {
        return static_cast<std::uint16_t>(i);
      }
    }
    throw "metric name not in obs::kMetricSchema";  // not a constant: fails to compile
  }

  std::uint16_t index_;
};

/// Name -> value at one point in time (sorted, so JSON export is stable).
using MetricsSnapshot = std::map<std::string, std::uint64_t, std::less<>>;

/// A registry's values as one flat value: a slot per schema entry, the
/// entries it lists even at zero, and its out-of-schema counters. What a
/// rank's finalize hands on (capi::RankResult::metrics) and what a session
/// baselines; it becomes name-keyed only through snapshot().
struct MetricCounts {
  std::array<std::uint64_t, kMetricCount> slots{};
  std::bitset<kMetricCount> listed;  ///< shown by snapshot() even when zero
  MetricsSnapshot extra;             ///< out-of-schema names, always shown

  [[nodiscard]] std::uint64_t operator[](MetricId id) const { return slots[id.index()]; }
  [[nodiscard]] std::uint64_t& operator[](MetricId id) { return slots[id.index()]; }
  /// Write a gauge and list it (what a provider does).
  void set(MetricId id, std::uint64_t value) {
    slots[id.index()] = value;
    listed.set(id.index());
  }

  /// Name -> value of every slot that is listed or nonzero, plus `extra`.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  bool operator==(const MetricCounts&) const = default;
};

/// `name`'s value in `snapshot`, 0 when absent.
[[nodiscard]] std::uint64_t value_of(const MetricsSnapshot& snapshot, std::string_view name);
/// `name`'s value in `counts` (its slot, else its overflow entry), 0 when absent.
[[nodiscard]] std::uint64_t value_of(const MetricCounts& counts, std::string_view name);

class MetricsRegistry {
 public:
  /// A fresh, empty registry without providers (a rank's tool counters, or
  /// a session's).
  MetricsRegistry();

  /// The calling thread's current registry: its svc::Session's, else the
  /// process-global registry (see common/thread_context.hpp).
  static MetricsRegistry& instance();

  /// The process-global registry, regardless of any thread binding.
  static MetricsRegistry& global();

  /// The slot of schema entry `id`: a fixed address, bumped with one relaxed
  /// add. Snapshots show it once it is nonzero or listed.
  [[nodiscard]] Counter& slot(MetricId id) { return slots_[id.index()]; }

  /// slot(id), listing all of `group` on first use: a subsystem whose
  /// counters belong together shows them together once it counts anything.
  [[nodiscard]] Counter& group_slot(std::span<const MetricId> group, MetricId id) {
    if (!listed(id)) {
      list(group);
    }
    return slot(id);
  }

  /// Add `delta` to `id`'s slot and list it, even when `delta` is zero.
  void add(MetricId id, std::uint64_t delta);

  /// Find-or-create by name: a schema name resolves to its (now listed)
  /// slot, any other name to an overflow counter. The reference stays valid
  /// for the registry's lifetime; never call this on a hot path.
  [[nodiscard]] Counter& counter(std::string_view name);

  /// Add every entry of `snapshot` onto the counter of the same name (a
  /// proc child's deltas); zero entries are listed too.
  void add(const MetricsSnapshot& snapshot);

  /// Add `counts` slot by slot (a rank's finalize-time counts). Only nonzero
  /// entries show up: `counts.listed` is not carried over.
  void add(const MetricCounts& counts);

  /// Providers run at snapshot time and fill computed values into the
  /// counts being taken (MetricCounts::set for schema gauges, `extra` for
  /// other names). Re-registering under the same name replaces the
  /// previous provider.
  using Provider = std::function<void(MetricCounts&)>;
  void register_provider(const std::string& name, Provider provider);

  /// Every value now, as one flat value (providers included).
  [[nodiscard]] MetricCounts counts() const;

  /// counts().snapshot().
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// later - earlier, per key; keys only in `later` keep their value, keys
  /// only in `earlier` are dropped. Underflow clamps to 0 (gauges may move
  /// both ways).
  [[nodiscard]] static MetricsSnapshot diff(const MetricsSnapshot& later,
                                            const MetricsSnapshot& earlier);
  /// The same over flat values: the keys of later.snapshot(), each minus its
  /// value in `earlier`. Only the result is name-keyed.
  [[nodiscard]] static MetricsSnapshot diff(const MetricCounts& later,
                                            const MetricCounts& earlier);

  [[nodiscard]] static std::string to_json(const MetricsSnapshot& snapshot);

 private:
  /// Show `ids` in every later snapshot, zeros included.
  void list(std::span<const MetricId> ids);
  [[nodiscard]] bool listed(MetricId id) const {
    return listed_[id.index()].load(std::memory_order_relaxed);
  }

  std::array<Counter, kMetricCount> slots_;
  std::array<std::atomic<bool>, kMetricCount> listed_{};
  mutable std::mutex mutex_;
  std::map<std::string, Counter, std::less<>> extra_;  // node-stable handles
  std::map<std::string, Provider> providers_;
};

/// Shorthand for MetricsRegistry::instance().counter(name).
[[nodiscard]] inline Counter& metric(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}

/// Shorthand for MetricsRegistry::instance().add(id, delta).
inline void count(MetricId id, std::uint64_t delta = 1) {
  MetricsRegistry::instance().add(id, delta);
}

}  // namespace obs
