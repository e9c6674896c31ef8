// Chrome/Perfetto trace_event JSON exporter over the per-rank event rings,
// plus the env-var plumbing that turns tracing and metrics export on:
//
//   CUSAN_TRACE=perfetto:<path>   enable span recording, write a Chrome
//                                 trace_event JSON loadable in
//                                 ui.perfetto.dev after each session
//   CUSAN_METRICS=<path>          write the metrics registry as JSON after
//                                 each session
//
// Mapping: each rank becomes a process ("rank N"; unattributed events land
// in a pseudo-process), each track becomes a named thread ("host",
// "stream N", "mpi request fiber N"). Spans export as "X" (complete)
// events, instants as "i"; both carry the event category and the u64
// payload in args.
#pragma once

#include <string>

namespace obs {

struct ExportConfig {
  bool trace_enabled{false};
  std::string trace_path;    ///< empty unless trace_enabled
  std::string metrics_path;  ///< empty = no metrics export
};

/// Parse CUSAN_TRACE / CUSAN_METRICS. `error` (optional) receives a message
/// when CUSAN_TRACE is set but not understood (the trace is then disabled).
[[nodiscard]] ExportConfig export_config_from_env(std::string* error = nullptr);

/// Render every active ring as one Chrome trace_event JSON document.
[[nodiscard]] std::string export_chrome_trace();

/// Serialize helper: write a string to a file, false + `error` on failure.
/// Calls are serialized process-wide, so concurrent writers of one path
/// leave one whole file.
bool write_file(const std::string& path, const std::string& contents, std::string* error);

}  // namespace obs
