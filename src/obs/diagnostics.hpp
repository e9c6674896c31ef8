// One report stream for the whole stack. rsan races, must reports, mpisim
// deadlock declarations and faultsim fired-fault records all flow through
// emit_diagnostic() with a stable machine-readable id ("rsan.race",
// "must.type_mismatch", "mpisim.deadlock", "faultsim.fault_fired", ...),
// a severity, and the reporting rank. Every diagnostic also bumps the
// metrics counter `diag.<id>` and — when tracing is live — drops an instant
// marker into the rank's event ring so reports line up with the timeline.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace obs {

enum class Severity : std::uint8_t {
  kInfo = 0,
  kWarning,
  kError,
};

[[nodiscard]] const char* to_string(Severity severity);

struct Diagnostic {
  std::string id;       ///< stable dotted id, e.g. "rsan.race"
  Severity severity{Severity::kWarning};
  int rank{-1};
  std::string message;  ///< human-readable detail
  std::uint64_t ts_ns{0};
};

/// Receives every diagnostic as it is emitted (tools, tests).
class DiagnosticSink {
 public:
  virtual ~DiagnosticSink() = default;
  virtual void on_diagnostic(const Diagnostic& diagnostic) = 0;
};

/// One diagnostic stream: registered sinks plus a bounded retained store.
/// The process has one global hub; svc sessions own private hubs so
/// concurrent sessions' reports never interleave. The free functions below
/// route to the calling thread's current hub (global unless the thread is
/// bound to a session), so emitting subsystems are hub-agnostic.
class DiagnosticHub {
 public:
  DiagnosticHub() = default;
  DiagnosticHub(const DiagnosticHub&) = delete;
  DiagnosticHub& operator=(const DiagnosticHub&) = delete;

  /// The calling thread's current hub (session-scoped if bound, else global).
  static DiagnosticHub& instance();
  /// The process-global hub, regardless of any thread binding.
  static DiagnosticHub& global();

  void add_sink(DiagnosticSink* sink);
  void remove_sink(DiagnosticSink* sink);
  [[nodiscard]] std::vector<Diagnostic> retained() const;
  void clear();
  [[nodiscard]] std::uint64_t dropped() const;

  /// Store + fan out one diagnostic (already stamped; metric/ring handling
  /// is the caller's business — use emit_diagnostic for the full pipeline).
  void dispatch(const Diagnostic& diagnostic);

 private:
  mutable std::mutex mutex_;
  std::vector<DiagnosticSink*> sinks_;
  std::deque<Diagnostic> retained_;
  std::uint64_t dropped_{0};
};

/// Fan a diagnostic out to all sinks of the current hub, its bounded
/// store, the `diag.<id>` metric and (if enabled) the event ring.
/// `ts_ns == 0` is stamped with the trace clock.
void emit_diagnostic(Diagnostic diagnostic);

/// Re-emit a diagnostic imported from a rank process (proc backend): fans
/// out to sinks, the store and the event ring like emit_diagnostic, but does
/// NOT bump `diag.<id>` — the child's metric deltas are merged separately,
/// so bumping here would double-count.
void reemit_imported_diagnostic(Diagnostic diagnostic);

void add_diagnostic_sink(DiagnosticSink* sink);
void remove_diagnostic_sink(DiagnosticSink* sink);

/// The retained diagnostics (bounded; oldest dropped past the cap).
[[nodiscard]] std::vector<Diagnostic> diagnostics();
void clear_diagnostics();

/// Diagnostics dropped from the bounded store so far.
[[nodiscard]] std::uint64_t dropped_diagnostics();

}  // namespace obs
