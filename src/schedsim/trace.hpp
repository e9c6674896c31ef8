// Serialized schedule-decision traces: the record/replay interchange format
// of the schedule exploration engine (controller.hpp). A trace is a line-
// oriented text document, one `d` line per decision, grouped logically into
// per-(actor, site) streams: replay matches each stream's decisions against
// its own recording, so neither the physical interleaving of lines (OS
// thread timing at record time) nor timing-dependent *skips* of one site
// (e.g. a waitany that found a single request complete, so its decision
// never fired) can shift another site's decisions out of alignment.
//
//   # cusan-schedule-trace v1
//   # strategy free;record
//   d <rank>:<kind><local> <seq> <site> <candidates> <chosen>
//
// `<kind>` is `h` (the rank's host/MPI thread) or `s` (a cusim stream
// worker, `<local>` = device ordinal * 4096 + stream id); `<seq>` is the
// (actor, site) stream's own decision counter, starting at 0. A tampered or
// stale trace is caught at replay time: the first stream decision whose
// recorded candidate count disagrees with the live query is latched and
// reported as a divergence (controller.hpp), never silently skipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace schedsim {

/// A nondeterministic choice point routed through the ScheduleController.
enum class Site : std::uint8_t {
  kStreamOp,      ///< cusim stream worker: run the head op now or defer once
  kMatchRecv,     ///< mpisim ANY_SOURCE recv: which source channel matches
  kWakeOrder,     ///< mpisim WaiterHub broadcast: slot wake permutation
  kWaitany,       ///< MPI_Waitany: which completed request is returned
  kWaitallOrder,  ///< MPI_Waitall: request completion/fiber-join order
};

[[nodiscard]] const char* to_string(Site site);
/// Inverse of to_string; false if `name` is not a known site.
[[nodiscard]] bool site_from_string(const std::string& name, Site* out);

/// The thread asking for a decision. Rank -1 is unattributed (raw cusim /
/// mpisim unit tests outside a capi session).
struct ActorId {
  int rank{-1};
  char kind{'h'};          ///< 'h' host thread, 's' stream worker
  std::uint32_t local{0};  ///< stream workers: ordinal * 4096 + stream id

  [[nodiscard]] std::uint64_t key() const {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank + 1)) << 40) |
           (static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) << 32) |
           static_cast<std::uint64_t>(local);
  }
  [[nodiscard]] std::string to_string() const;
};

/// One recorded decision.
struct TraceEntry {
  ActorId actor;
  std::uint64_t seq{0};  ///< (actor, site)-stream-local decision index
  Site site{Site::kStreamOp};
  int candidates{1};
  int chosen{0};
};

/// Key of the (actor, site) decision stream an entry belongs to. The actor
/// key occupies bits [3, 44); the site index fits in the low 3 bits.
[[nodiscard]] inline std::uint64_t stream_key(const ActorId& actor, Site site) {
  return (actor.key() << 3) | static_cast<std::uint64_t>(site);
}

/// Parsed trace plus its header metadata.
struct ScheduleTrace {
  std::string strategy;  ///< "# strategy ..." header, informational
  std::vector<TraceEntry> entries;
};

/// Serialize to the v1 text format.
[[nodiscard]] std::string serialize_trace(const ScheduleTrace& trace);

/// Parse the v1 text format. Returns false (with *error set, if given) on a
/// malformed document: bad magic, unknown site, non-monotonic per-actor seq,
/// chosen outside [0, candidates).
[[nodiscard]] bool parse_trace(const std::string& text, ScheduleTrace* out,
                               std::string* error = nullptr);

}  // namespace schedsim
