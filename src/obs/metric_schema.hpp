// The fixed counter schema: every metric name the stack publishes, one list.
// A registry holds one slot per entry, indexed by position; names are looked
// up only where a snapshot leaves the process (JSON, SessionResult deltas,
// the proc RankPayload). Names outside this list — per-kernel prove-elide
// launch counts, test-only names — live in a registry's overflow map.
//
// The list is sorted (checked at compile time), so a runtime name resolves by
// binary search and exports come out in name order.
#pragma once

#include <algorithm>
#include <array>
#include <string_view>

namespace obs {

inline constexpr auto kMetricSchema = std::to_array<std::string_view>({
    // -- cusan: CUDA runtime events of one rank (paper Table I) -------------
    "cusan.event_records",
    "cusan.events_created",
    "cusan.hb_after",                   // semantic happens-before arcs terminated
    "cusan.hb_before",                  // semantic happens-before arcs started
    "cusan.host_funcs",                 // cudaLaunchHostFunc callbacks
    "cusan.interval_bytes_annotated",   // bytes covered by interval annotations
    "cusan.interval_bytes_elided",      // allocation bytes skipped thanks to intervals
    "cusan.interval_kernel_args",       // args annotated via bounded byte intervals
    "cusan.kernel_annotation_calls",    // rsan range calls issued for kernel args
    "cusan.kernel_launches",
    "cusan.memcpys",                    // memcpy + memcpyAsync
    "cusan.memsets",                    // memset + memsetAsync
    "cusan.prefetches",                 // cudaMemPrefetchAsync hints
    "cusan.proof_alias_rejects",        // proofs voided by aliasing pointer args
    "cusan.proof_elided_args",          // args elided via an affine proof
    "cusan.proof_elided_bytes",         // bytes covered by elided annotations
    "cusan.proof_elided_launches",      // launches with at least one elided arg
    "cusan.streams_created",            // user streams + default stream on first use
    "cusan.sync_calls",                 // device/stream/event syncs, successful queries, waits
    "cusan.unknown_kernel_args",        // pointer args with no TypeART allocation info
    "cusan.whole_range_kernel_args",    // args annotated whole-allocation (interval top)
    // -- diag: one per stable diagnostic id (obs/diagnostics.hpp) -----------
    "diag.faultsim.fault_fired",
    "diag.mpisim.deadlock",
    "diag.mpisim.rank_failure",
    "diag.must.buffer_overflow",
    "diag.must.deadlock",
    "diag.must.rank_failure",
    "diag.must.request_leak",
    "diag.must.signature_mismatch",
    "diag.must.type_mismatch",
    "diag.must.untracked_buffer",
    "diag.rsan.race",
    "diag.sched.divergence",
    // -- faultsim -------------------------------------------------------------
    "faultsim.faults_fired",            // monotonic, across take_fired drains
    "faultsim.ledger_fired",            // ledger gauge, filled at snapshot time
    "faultsim.ledger_unsurfaced",       // ledger gauge, filled at snapshot time
    // -- mpisim: transport contention (thread backend) and proc transport ---
    "mpisim.any_source_scans",          // MPI_ANY_SOURCE slow-path scans
    "mpisim.collective_messages",       // internal p2p messages of collectives
    "mpisim.deadlocks_declared",
    "mpisim.mailbox_locks",             // mailbox (channel) lock acquisitions
    "mpisim.proc.backstop_kills",
    "mpisim.proc.eager_msgs",           // records published inline in a ring
    "mpisim.proc.rank_failures",
    "mpisim.proc.rendezvous_msgs",      // payloads shipped in a named segment
    "mpisim.proc.ring_full_backoffs",   // sends that found the ring full
    "mpisim.proc.sends_dropped_dead",   // sends to a rank that already exited
    "mpisim.wakeups_broadcast",         // ranks woken by broadcasts (deadlock)
    "mpisim.wakeups_delivered",         // targeted per-rank slot signals
    "mpisim.wakeups_spurious",          // signalled wakes, predicate still false
    // -- must: MPI correctness checks of one rank -----------------------------
    "must.calls_intercepted",
    "must.deadlocks_reported",
    "must.rank_failures_reported",
    "must.request_fibers_created",
    "must.request_fibers_reused",
    "must.request_leaks",
    "must.signature_mismatches",
    "must.type_checks",
    "must.type_errors",
    // -- process: memstats gauges, filled at snapshot time -------------------
    "process.rss_bytes",
    "process.rss_peak_bytes",
    // -- rsan: race detector of one rank ---------------------------------------
    "rsan.cell_pages",                  // raw-cell pages allocated (one per 128 granules)
    "rsan.degraded_accesses",           // range calls with an untracked segment
    "rsan.degraded_blocks",             // block segments untracked (budget denied)
    "rsan.fastpath_block_hits",         // block segments decided on uniform runs alone
    "rsan.fastpath_block_misses",       // block segments with a per-granule scan
    "rsan.fastpath_granules_elided",    // granule scans skipped by deciding on a run
    "rsan.fiber_switches",
    "rsan.hb_after",                    // AnnotateHappensAfter (acquire) calls
    "rsan.hb_before",                   // AnnotateHappensBefore (release) calls
    "rsan.ignored_accesses",            // accesses skipped inside ignore scopes
    "rsan.plain_reads",                 // single-access instrumentation
    "rsan.plain_writes",
    "rsan.proven_block_skips",          // never-touched blocks skipped in O(1)
    "rsan.proven_bytes",
    "rsan.proven_range_calls",
    "rsan.proven_scan_blocks",          // resident blocks scanned check-only
    "rsan.races_detected",              // race events, at most one per range call
    "rsan.races_suppressed",            // race events silenced by a suppression
    "rsan.read_range_bytes",
    "rsan.read_range_calls",
    "rsan.region_checks",               // access-vs-proven-region overlap checks
    "rsan.shadow_bytes",                // shadow resident at finalize (gauge)
    // Granules whose stalest epoch was dropped to make room for a new store.
    // Nonzero means the cell array may have forgotten a conflicting epoch,
    // which is why the prove-elide differential oracle keys its strictness on it.
    "rsan.slot_evictions",
    "rsan.write_range_bytes",
    "rsan.write_range_calls",
    // -- sched: schedule controller and DPOR explorer ------------------------
    "sched.decisions",
    "sched.divergences",
    "sched.dpor_backtracks",
    "sched.dpor_executions",
    "sched.dpor_graph_nodes",           // decisions recorded over all executions
    "sched.dpor_redundant",
    "sched.dpor_sleep_prunes",
    "sched.replay_underruns",
});

inline constexpr std::size_t kMetricCount = kMetricSchema.size();

static_assert(std::is_sorted(kMetricSchema.begin(), kMetricSchema.end()) &&
                  std::adjacent_find(kMetricSchema.begin(), kMetricSchema.end()) ==
                      kMetricSchema.end(),
              "kMetricSchema must be sorted and free of duplicates");

}  // namespace obs
