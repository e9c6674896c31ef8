// The central schedule-exploration controller: every nondeterministic choice
// point in the stack — the two places MPI itself leaves a choice, mpisim
// wildcard matching and MPI_Waitany's pick among completed requests —
// routes its decision through choose() as a numbered (site, candidates)
// query and obeys the answer. Orders that only reorder commuting work (how
// long a blocked wait spins before parking, the order cusim's stream
// workers run ready ops in, the order a deadlock broadcast wakes ranks in,
// the order MPI_Waitall joins its request fibers in) are not choice points:
// they change no verdict, only how many executions an exploration visits.
// Strategies (CUSAN_SCHEDULE):
//
//   free             today's behavior; the controller stays disarmed and
//                    each choice point costs one relaxed atomic load
//   replay:<path>    answer every query from its (rank, site) stream of a
//                    recorded decision log; the first stream decision whose
//                    live candidate count disagrees with the recording is
//                    latched and reported as a divergence
//   record:<path>    compose with any of the above to write the session's
//                    decision log (decision_log.hpp) at its end — any race
//                    an exploration finds becomes a one-command
//                    deterministic reproducer
//   dpor             the one exploration strategy (explorer.hpp): harnesses
//                    drive a source-DPOR frontier of pinned prefixes over
//                    repeated runs; a single session under this mode runs
//                    free with recording on (the explorer owns the multi-run
//                    loop). `bound:<k>` caps executed schedules per scenario
//
// The controller owns the recording: while it records (a `record:` config,
// dpor, or an explorer's pinned prefix), choose() appends each answer to its
// decision log inside its critical section, so the log's order is the order
// the controller answered in. Each session restarts the log
// (begin_session); a forked rank's log travels back in its RankPayload and
// the parent appends it (absorb_child).
//
// Cost model (the bench guard asserts it): disarmed, armed() is a single
// relaxed atomic load and choose() is never reached. Armed, decisions take a
// mutex — exploration trades speed for control, like faultsim's faulted runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_context.hpp"
#include "schedsim/decision_log.hpp"

namespace schedsim {

enum class Mode : std::uint8_t {
  kFree,    ///< default choices (armed only if recording)
  kReplay,  ///< answer from a recorded decision log
  kPrefix,  ///< replay a pinned prefix, record the free suffix (explorer)
  kDpor,    ///< explorer-driven systematic exploration (free + record per run)
};

struct Config {
  Mode mode{Mode::kFree};
  /// choose() appends every answer to the decision log; sessions
  /// (capi::run_session) write it to record_path at their end.
  bool record{false};
  std::string record_path;  ///< empty: in-memory only (Controller::log)
  std::string replay_path;  ///< kReplay via env: decision log file to load
  /// kDpor: cap on executed schedules per exploration (0 = explorer default).
  std::uint32_t bound{0};

  bool operator==(const Config&) const = default;
};

/// Parse the CUSAN_SCHEDULE grammar (clauses separated by ';' or ','):
/// `free` | `replay:<path>` | `dpor` | `record:<path>` | `bound:<k>`, where
/// `k` is plain decimal digits from 1 to UINT32_MAX. Any other clause is an
/// error.
/// Empty / `0` / `off` / `none` yields a disarmed free config.
[[nodiscard]] bool parse_schedule(const std::string& text, Config* out,
                                  std::string* error = nullptr);

/// `config` in the CUSAN_SCHEDULE grammar; parse_schedule reads back every
/// config it produced. kPrefix, and a replay or record without a path, have
/// no clause of their own and print as `prefix`, `replay` and `record`.
[[nodiscard]] std::string to_string(const Config& config);

/// First mismatch between a replayed log and the live run: the live query
/// at (rank, site, seq) asked for a different candidate count than the
/// recording. (Sites cannot mismatch: each (rank, site) pair replays its
/// own stream, so a timing-dependent skip of one site — a wait whose
/// predicate was already true at replay time — shows up as a tolerated
/// underrun of that stream, never as a false divergence of another.)
struct Divergence {
  int rank{-1};
  std::uint64_t seq{0};
  Site site{Site::kMatchRecv};
  int expected_candidates{1};
  int got_candidates{1};

  [[nodiscard]] std::string to_string() const;
};

struct Stats {
  std::uint64_t decisions{0};    ///< choose() calls answered while armed
  std::uint64_t replayed{0};     ///< replay mode: answers taken from the recording
  std::uint64_t underruns{0};    ///< replay mode: queries past the recording's end
  std::uint64_t divergences{0};  ///< replay mode: mismatched queries
};

class Controller;

namespace detail {
/// Mirror of the *global* controller's armed state for unbound threads.
extern constinit std::atomic<bool> g_process_armed;
[[nodiscard]] const std::atomic<bool>& armed_flag_of(const Controller& controller);
}  // namespace detail

class Controller {
 public:
  /// A fresh, disarmed controller (session-scoped use).
  Controller() = default;
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// The calling thread's current controller: its svc::Session's, else the
  /// process-global controller (see common/thread_context.hpp).
  [[nodiscard]] static Controller& instance();

  /// The process-global controller, regardless of any thread binding.
  [[nodiscard]] static Controller& global();

  /// The zero-overhead fast path: false unless the current instance has a
  /// non-free strategy or recording active. Choice points gate on this
  /// before calling choose(). One TLS load, a predicted branch and one
  /// relaxed atomic load — the bench guard budget still holds.
  [[nodiscard]] static bool armed() {
    const Controller* current = common::ThreadContext::current().controller;
    return current != nullptr
               ? detail::armed_flag_of(*current).load(std::memory_order_relaxed)
               : detail::g_process_armed.load(std::memory_order_relaxed);
  }

  /// Answer one numbered decision: an index in [0, candidates). Call sites
  /// pass today's deterministic behavior as `default_index`; the free
  /// strategy (and every decision past a pinned prefix) returns it
  /// unchanged, which is what makes exploration semantics-preserving by
  /// construction. The answer comes from this controller's own strategy,
  /// whichever controller is current on the calling thread.
  [[nodiscard]] int choose(Site site, int rank, int candidates, int default_index = 0);

  /// Install a strategy programmatically (sweep harnesses, tests). Resets
  /// per-stream cursors and any latched divergence.
  void configure(const Config& config);
  /// configure() for replay with the log supplied as text instead of a
  /// file (differential tests). Returns false on a malformed log
  /// (parse_log).
  [[nodiscard]] bool configure_replay_text(const std::string& log_text,
                                           std::string* error = nullptr, bool record = false);
  /// The explorer's strategy seam: pin the given decisions (each (rank,
  /// site) stream replays its slice of `prefix`), record, and let each
  /// stream fall back to free choices past its pinned slice — the recorded
  /// run is prefix + free suffix. An empty prefix is a plain free-recorded
  /// run. Entries must be per-stream seq-monotonic (any
  /// per-stream-prefix-closed subsequence of a recorded log's decisions
  /// is).
  void configure_prefix(std::vector<TraceEntry> prefix);
  /// configure(), except that a replay config reads its log from
  /// replay_path. False on an unreadable or malformed replay file.
  [[nodiscard]] bool load(const Config& config, std::string* error = nullptr);
  /// Parse and load() CUSAN_SCHEDULE (unset/empty: keeps current state). False on a
  /// parse error or an unreadable replay file.
  [[nodiscard]] bool load_env(std::string* error = nullptr);
  /// Disarm and drop all state.
  void clear();

  /// Session begin (capi::run_session): resets per-stream cursors, stats,
  /// the latched divergence and the decision log, so every session replays
  /// the recording from its start and records from seq 0.
  void begin_session();

  [[nodiscard]] Config config() const;
  [[nodiscard]] std::string strategy_string() const;
  [[nodiscard]] std::optional<Divergence> divergence() const;
  [[nodiscard]] Stats stats() const;
  /// The decisions recorded since the last reset (configure*, clear,
  /// begin_session), under the current strategy string. Empty unless the
  /// controller records.
  [[nodiscard]] DecisionLog log() const;

  /// Proc backend: merge a forked child rank's stats, latched divergence
  /// and recorded decisions into this (parent) controller, so
  /// cross-process runs report and record what thread-backend runs do. The
  /// parent absorbs its ranks in rank order; seqs are per (rank, site)
  /// stream, so appended decisions need no renumbering.
  void absorb_child(const Stats& child_stats, const std::optional<Divergence>& child_divergence,
                    const std::vector<TraceEntry>& child_decisions);

 private:
  friend const std::atomic<bool>& detail::armed_flag_of(const Controller& controller);
  void set_armed(bool armed);
  void reset_run_state_locked();
  [[nodiscard]] std::string strategy_string_locked() const;
  void install_replay_locked(std::vector<TraceEntry> entries);

  /// Mutable per-(rank, site)-stream run state: the stream-local decision
  /// counter and, in replay mode, the cursor into the stream's slice of the
  /// recording.
  struct StreamState {
    std::uint64_t seq{0};
    std::size_t cursor{0};
    bool diverged{false};  ///< this stream fell back to free after a mismatch
  };

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  Config config_;
  std::vector<TraceEntry> replay_;
  /// Replay entries grouped per stream_key (indices into replay_).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> replay_streams_;
  std::unordered_map<std::uint64_t, StreamState> streams_;
  std::optional<Divergence> divergence_;
  Stats stats_;
  std::vector<TraceEntry> log_;  ///< answers in order, while config_.record
};

namespace detail {
inline const std::atomic<bool>& armed_flag_of(const Controller& controller) {
  return controller.armed_;
}
}  // namespace detail

}  // namespace schedsim
