// The decision log: the one schedule artifact of the exploration engine. A
// recorded run is the controller's strategy string plus every decision
// choose() answered, in answer order. `record:<path>` writes it,
// `replay:<path>` answers every query from its (rank, site) stream of the
// log, and the DPOR explorer (explorer.hpp) flips its entries run over run,
// so a CI failure ships one file that reproduces the run:
//
//   # cusan-decision-log v2
//   # strategy <controller strategy string>
//   <rank> <site> <seq> <candidates> <chosen>      one line per decision
//
// `<rank>` is the deciding rank (every decision site runs on the rank's
// host/MPI thread; -1 is unattributed). `<seq>` is the (rank, site)
// stream's own decision counter: replay matches each stream against its own
// recording, so neither the physical interleaving of lines (OS thread timing
// at record time) nor a timing-dependent skip of one site can shift another
// site's decisions. Happens-before order is not recorded: rsan's vector
// clocks own it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace schedsim {

/// A nondeterministic choice point routed through the ScheduleController.
enum class Site : std::uint8_t {
  kMatchRecv,  ///< mpisim ANY_SOURCE recv: which source channel matches
  kWaitany,    ///< MPI_Waitany: which completed request is returned
};

[[nodiscard]] const char* to_string(Site site);
/// Inverse of to_string; false if `name` is not a known site.
[[nodiscard]] bool site_from_string(const std::string& name, Site* out);

/// One decision, as the controller records and replays it and the explorer
/// flips it.
struct TraceEntry {
  int rank{-1};          ///< the deciding rank's host thread; -1 is unattributed
  std::uint64_t seq{0};  ///< (rank, site)-stream-local decision index
  Site site{Site::kMatchRecv};
  int candidates{1};
  int chosen{0};
};

/// Key of the (rank, site) decision stream an entry belongs to: rank + 1
/// above the site index, which fits in the low 3 bits.
[[nodiscard]] inline std::uint64_t stream_key(int rank, Site site) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank + 1)) << 3) |
         static_cast<std::uint64_t>(site);
}

/// One recorded run.
struct DecisionLog {
  std::string strategy;  ///< controller strategy string, informational
  std::vector<TraceEntry> decisions;
};

/// Serialize to the v2 text format.
[[nodiscard]] std::string serialize_log(const DecisionLog& log);

/// Parse the v2 text format. False (with *error set, if given) on a missing
/// or unknown header (the retired `cusan-execution-graph v1` is named as
/// such), an unknown site, malformed or trailing fields, a rank outside
/// [-1, INT_MAX), a decision with candidates < 1 or chosen outside
/// [0, candidates), or a (rank, site) stream whose seqs do not run 0, 1, 2,
/// ... in document order: replay identifies decisions by their stream
/// position, so a gap or repeat makes the whole document meaningless.
[[nodiscard]] bool parse_log(const std::string& text, DecisionLog* out,
                             std::string* error = nullptr);

}  // namespace schedsim
