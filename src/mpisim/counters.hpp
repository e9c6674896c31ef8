// The counters of both mpisim backends, slots of the calling thread's obs
// metrics registry (names "mpisim.*" and, for the proc transport,
// "mpisim.proc.*") so the same numbers show up in CUSAN_METRICS dumps,
// check_cutests --json and bench_scaling_ranks. They quantify exactly the
// costs the sharding work targets: how often a mailbox lock is taken, how
// many wakeups are delivered point-to-point vs broadcast, and how many of
// them were spurious (the woken rank's predicate was still false).
//
// The hot-path discipline: each bump is one relaxed RMW on a slot of the
// registry the thread is bound to (svc session scoping, so concurrent
// sessions never bleed counts into each other), which is noise next to the
// mutex operation it sits beside. Read them like any metric: diff two
// registry snapshots.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace mpisim {

namespace detail {

/// Each backend's group is listed whole from its first bump on, so a
/// registry lists only the group its backend counts: thread-backend
/// registries never list the proc transport's counters, and a forked rank
/// that never bumps a contention counter does not list those.
inline constexpr obs::MetricId kContention[] = {
    "mpisim.mailbox_locks",    "mpisim.wakeups_delivered", "mpisim.wakeups_broadcast",
    "mpisim.wakeups_spurious", "mpisim.any_source_scans",  "mpisim.collective_messages"};
inline constexpr obs::MetricId kProcTransport[] = {
    "mpisim.proc.eager_msgs", "mpisim.proc.rendezvous_msgs", "mpisim.proc.ring_full_backoffs",
    "mpisim.proc.sends_dropped_dead"};

/// A contention counter (thread backend's mailboxes and waiter slots).
[[nodiscard]] inline obs::Counter& contention(obs::MetricId id) {
  return obs::MetricsRegistry::instance().group_slot(kContention, id);
}

/// A proc-transport counter.
[[nodiscard]] inline obs::Counter& proc_transport(obs::MetricId id) {
  return obs::MetricsRegistry::instance().group_slot(kProcTransport, id);
}

}  // namespace detail

}  // namespace mpisim
