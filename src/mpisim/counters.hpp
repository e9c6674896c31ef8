// Process-global contention counters for the sharded communication engine,
// now backed by the central obs metrics registry (names "mpisim.*") so the
// same numbers show up in CUSAN_METRICS dumps, check_cutests --json and
// bench_scaling_ranks. They quantify exactly the costs the sharding work
// targets: how often a mailbox lock is taken, how many wakeups are delivered
// point-to-point vs broadcast, and how many of them were spurious (the woken
// rank's predicate was still false).
//
// The hot-path discipline is unchanged: each bump is one relaxed RMW on a
// cached obs::Counter handle (stable address — resolved once per registry
// per thread, never a map lookup per event), which is noise next to the
// mutex operation it sits beside. The cache re-resolves when the calling
// thread's current registry changes (svc session scoping), so concurrent
// sessions never bleed counts into each other. Read them like any metric:
// diff two registry snapshots.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace mpisim {

namespace detail {

/// Registry handles, cached per thread and re-resolved whenever the calling
/// thread's current registry changes (session scoping).
struct ContentionCounters {
  obs::MetricsRegistry* owner{nullptr};
  obs::Counter* mailbox_locks{nullptr};        ///< mailbox (channel) lock acquisitions
  obs::Counter* wakeups_delivered{nullptr};    ///< targeted per-rank slot signals
  obs::Counter* wakeups_broadcast{nullptr};    ///< ranks woken by broadcasts (deadlock)
  obs::Counter* wakeups_spurious{nullptr};     ///< signalled wakes, predicate still false
  obs::Counter* any_source_scans{nullptr};     ///< MPI_ANY_SOURCE slow-path scans
  obs::Counter* collective_messages{nullptr};  ///< internal p2p messages of collectives
};

[[nodiscard]] inline ContentionCounters& contention_counters() {
  thread_local ContentionCounters counters;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  if (counters.owner != &registry) {
    counters.owner = &registry;
    counters.mailbox_locks = &registry.counter("mpisim.mailbox_locks");
    counters.wakeups_delivered = &registry.counter("mpisim.wakeups_delivered");
    counters.wakeups_broadcast = &registry.counter("mpisim.wakeups_broadcast");
    counters.wakeups_spurious = &registry.counter("mpisim.wakeups_spurious");
    counters.any_source_scans = &registry.counter("mpisim.any_source_scans");
    counters.collective_messages = &registry.counter("mpisim.collective_messages");
  }
  return counters;
}

inline void bump(obs::Counter& counter, std::uint64_t n = 1) { counter.add(n); }

}  // namespace detail

}  // namespace mpisim
