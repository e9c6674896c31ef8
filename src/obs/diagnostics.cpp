#include "obs/diagnostics.hpp"

#include <cstdio>
#include <utility>

#include "common/thread_context.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace obs {

namespace {

constexpr std::size_t kMaxRetained = 4096;

}  // namespace

DiagnosticHub& DiagnosticHub::instance() {
  DiagnosticHub* current = common::ThreadContext::current().hub;
  return current != nullptr ? *current : global();
}

DiagnosticHub& DiagnosticHub::global() {
  static DiagnosticHub hub;
  return hub;
}

void DiagnosticHub::add_sink(DiagnosticSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sinks_.push_back(sink);
}

void DiagnosticHub::remove_sink(DiagnosticSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase(sinks_, sink);
}

std::vector<Diagnostic> DiagnosticHub::retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {retained_.begin(), retained_.end()};
}

void DiagnosticHub::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  retained_.clear();
  dropped_ = 0;
}

std::uint64_t DiagnosticHub::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void DiagnosticHub::dispatch(const Diagnostic& diagnostic) {
  std::vector<DiagnosticSink*> sinks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (retained_.size() >= kMaxRetained) {
      retained_.pop_front();
      ++dropped_;
    }
    retained_.push_back(diagnostic);
    sinks = sinks_;
  }
  for (DiagnosticSink* sink : sinks) {
    sink->on_diagnostic(diagnostic);
  }
}

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

namespace {

void emit_impl(Diagnostic diagnostic, bool bump_metric) {
  if (diagnostic.ts_ns == 0) {
    diagnostic.ts_ns = trace_now_ns();
  }
  if (bump_metric) {
    metric("diag." + diagnostic.id).increment();
  }
  if (tracing_enabled()) {
    Event marker;
    marker.ts_ns = diagnostic.ts_ns;
    marker.rank = diagnostic.rank;
    marker.track = kHostTrack;
    marker.kind = EventKind::kDiagnostic;
    std::snprintf(marker.name, sizeof(marker.name), "%s", diagnostic.id.c_str());
    ring_for_rank(diagnostic.rank).emit(marker);
  }
  DiagnosticHub::instance().dispatch(diagnostic);
}

}  // namespace

void emit_diagnostic(Diagnostic diagnostic) { emit_impl(std::move(diagnostic), true); }

void reemit_imported_diagnostic(Diagnostic diagnostic) {
  emit_impl(std::move(diagnostic), false);
}

void add_diagnostic_sink(DiagnosticSink* sink) { DiagnosticHub::instance().add_sink(sink); }

void remove_diagnostic_sink(DiagnosticSink* sink) {
  DiagnosticHub::instance().remove_sink(sink);
}

std::vector<Diagnostic> diagnostics() { return DiagnosticHub::instance().retained(); }

void clear_diagnostics() { DiagnosticHub::instance().clear(); }

std::uint64_t dropped_diagnostics() { return DiagnosticHub::instance().dropped(); }

}  // namespace obs
