#include "obs/perfetto.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <vector>

#include "common/format.hpp"
#include "obs/ring.hpp"

namespace obs {

namespace {

/// pid for events that never got a rank attribution.
constexpr int kUnattributedPid = 1000000;

int rank_pid(int rank) { return rank >= 0 ? rank : kUnattributedPid; }

/// Chrome trace timestamps are microseconds; keep nanosecond resolution as
/// a fixed three-digit fraction (integer math, so golden files are stable).
std::string us_from_ns(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu", static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

std::string track_name(std::uint32_t track) {
  if (track == kHostTrack) {
    return "host";
  }
  if (track >= kRequestTrackBase) {
    return common::format("mpi request fiber {}", track - kRequestTrackBase);
  }
  return common::format("stream {}", track - kStreamTrackBase);
}

void append_metadata(std::string& out, int pid, const std::string& process,
                     const std::set<std::uint32_t>& tracks, bool& first) {
  auto emit = [&](const std::string& line) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += line;
  };
  emit(common::format(
      R"(  {"ph":"M","pid":{},"tid":0,"name":"process_name","args":{"name":"{}"}})", pid,
      process));
  for (const std::uint32_t track : tracks) {
    emit(common::format(
        R"(  {"ph":"M","pid":{},"tid":{},"name":"thread_name","args":{"name":"{}"}})", pid,
        track, track_name(track)));
  }
}

void append_event(std::string& out, int pid, const Event& event, bool& first) {
  if (!first) {
    out += ",\n";
  }
  first = false;
  const std::string name = escape_json(event.name[0] != '\0' ? event.name : to_string(event.kind));
  if (event.dur_ns > 0) {
    out += common::format(
        R"(  {"name":"{}","cat":"{}","ph":"X","ts":{},"dur":{},"pid":{},"tid":{},"args":{"arg":{}}})",
        name, to_string(event.kind), us_from_ns(event.ts_ns), us_from_ns(event.dur_ns), pid,
        event.track, event.arg);
  } else {
    out += common::format(
        R"(  {"name":"{}","cat":"{}","ph":"i","s":"t","ts":{},"pid":{},"tid":{},"args":{"arg":{}}})",
        name, to_string(event.kind), us_from_ns(event.ts_ns), pid, event.track, event.arg);
  }
}

}  // namespace

std::string escape_json(std::string_view text) {
  std::string out;
  for (const char ch : text) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

ExportConfig export_config_from_env(std::string* error) {
  ExportConfig config;
  if (const char* metrics = std::getenv("CUSAN_METRICS");
      metrics != nullptr && metrics[0] != '\0') {
    config.metrics_path = metrics;
  }
  const char* trace = std::getenv("CUSAN_TRACE");
  if (trace == nullptr || trace[0] == '\0') {
    return config;
  }
  const std::string_view value(trace);
  if (value == "0" || value == "off" || value == "none") {
    return config;
  }
  constexpr std::string_view kPrefix = "perfetto:";
  if (value.size() > kPrefix.size() && value.substr(0, kPrefix.size()) == kPrefix) {
    config.trace_enabled = true;
    config.trace_path = std::string(value.substr(kPrefix.size()));
    return config;
  }
  if (error != nullptr) {
    *error = common::format("unrecognized CUSAN_TRACE value '{}' (expected perfetto:<path>)",
                            trace);
  }
  return config;
}

std::string export_chrome_trace() {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const int rank : active_ring_ranks()) {
    EventRing& ring = ring_for_rank(rank);
    const std::vector<Event> events = ring.snapshot();
    std::set<std::uint32_t> tracks;
    for (const Event& event : events) {
      tracks.insert(event.track);
    }
    const int pid = rank_pid(rank);
    const std::string process =
        rank >= 0 ? common::format("rank {}", rank) : std::string("unattributed");
    append_metadata(out, pid, process, tracks, first);
    for (const Event& event : events) {
      append_event(out, pid, event, first);
    }
    if (ring.dropped() > 0) {
      // Make ring overflow visible in the timeline itself.
      Event note;
      note.ts_ns = events.empty() ? 0 : events.back().ts_ns;
      note.rank = rank;
      note.track = kHostTrack;
      note.kind = EventKind::kDiagnostic;
      note.arg = ring.dropped();
      std::snprintf(note.name, sizeof(note.name), "obs.ring_dropped");
      append_event(out, pid, note, first);
    }
  }
  out += "\n]}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& contents, std::string* error) {
  // One writer at a time: sessions that export to the same path (a
  // CUSAN_SCHEDULE record file under --jobs) each leave a whole file, never
  // an interleaving of two.
  static std::mutex mutex;
  const std::lock_guard lock(mutex);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = common::format("cannot open '{}' for writing", path);
    }
    return false;
  }
  const std::size_t written = std::fwrite(contents.data(), 1, contents.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != contents.size() || !closed) {
    if (error != nullptr) {
      *error = common::format("short write to '{}'", path);
    }
    return false;
  }
  return true;
}

}  // namespace obs
