// The per-thread counter cache of both mpisim backends, backed by the
// central obs metrics registry (names "mpisim.*" and, for the proc
// transport, "mpisim.proc.*") so the
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
/// thread's current registry changes (session scoping). The two groups
/// resolve on first use, so a registry lists only the group its backend
/// counts: thread-backend registries never list the proc transport's
/// counters, and a forked rank that never bumps a contention counter does
/// not list those.
struct ContentionCounters {
  obs::MetricsRegistry* owner{nullptr};
  obs::Counter* mailbox_locks{nullptr};        ///< mailbox (channel) lock acquisitions
  obs::Counter* wakeups_delivered{nullptr};    ///< targeted per-rank slot signals
  obs::Counter* wakeups_broadcast{nullptr};    ///< ranks woken by broadcasts (deadlock)
  obs::Counter* wakeups_spurious{nullptr};     ///< signalled wakes, predicate still false
  obs::Counter* any_source_scans{nullptr};     ///< MPI_ANY_SOURCE slow-path scans
  obs::Counter* collective_messages{nullptr};  ///< internal p2p messages of collectives
  obs::Counter* eager_msgs{nullptr};           ///< proc: records published inline in a ring
  obs::Counter* rendezvous_msgs{nullptr};      ///< proc: payloads shipped in a named segment
  obs::Counter* ring_full_backoffs{nullptr};   ///< proc: sends that found the ring full
  obs::Counter* sends_dropped_dead{nullptr};   ///< proc: sends to a rank that already exited
};

/// The calling thread's cache, emptied when its current registry changes.
[[nodiscard]] inline ContentionCounters& counter_cache() {
  thread_local ContentionCounters counters;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  if (counters.owner != &registry) {
    counters = ContentionCounters{};
    counters.owner = &registry;
  }
  return counters;
}

[[nodiscard]] inline ContentionCounters& contention_counters() {
  ContentionCounters& counters = counter_cache();
  if (counters.mailbox_locks == nullptr) {
    obs::MetricsRegistry& registry = *counters.owner;
    counters.mailbox_locks = &registry.counter("mpisim.mailbox_locks");
    counters.wakeups_delivered = &registry.counter("mpisim.wakeups_delivered");
    counters.wakeups_broadcast = &registry.counter("mpisim.wakeups_broadcast");
    counters.wakeups_spurious = &registry.counter("mpisim.wakeups_spurious");
    counters.any_source_scans = &registry.counter("mpisim.any_source_scans");
    counters.collective_messages = &registry.counter("mpisim.collective_messages");
  }
  return counters;
}

/// The proc transport's group of the same cache.
[[nodiscard]] inline ContentionCounters& proc_contention_counters() {
  ContentionCounters& counters = counter_cache();
  if (counters.eager_msgs == nullptr) {
    obs::MetricsRegistry& registry = *counters.owner;
    counters.eager_msgs = &registry.counter("mpisim.proc.eager_msgs");
    counters.rendezvous_msgs = &registry.counter("mpisim.proc.rendezvous_msgs");
    counters.ring_full_backoffs = &registry.counter("mpisim.proc.ring_full_backoffs");
    counters.sends_dropped_dead = &registry.counter("mpisim.proc.sends_dropped_dead");
  }
  return counters;
}

inline void bump(obs::Counter& counter, std::uint64_t n = 1) { counter.add(n); }

}  // namespace detail

}  // namespace mpisim
