// Schema checker for the observability export artifacts: validates Chrome
// trace_event JSON written via CUSAN_TRACE=perfetto:<path>, flat metrics
// JSON written via CUSAN_METRICS=<path>, and decision logs written via
// CUSAN_SCHEDULE=record:<path> (the schedule reproducer that
// CUSAN_SCHEDULE=replay:<path> reads). CI runs this over the testsuite
// artifacts so a malformed export fails the build, not the person opening
// ui.perfetto.dev (or replaying a schedule).
//
// --graph runs the replay decoder's checks: the versioned header must
// match, every decision must name a known site with chosen in
// [0, candidates), and every decision stream's seqs must run 0, 1, 2, ...
//
// Usage: trace_lint [--trace FILE]... [--metrics FILE]... [--graph FILE]...
// Exit 0 iff every file parses and matches its schema.
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/jsonlint.hpp"
#include "schedsim/decision_log.hpp"

namespace {

bool read_file(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    return false;
  }
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s [--trace FILE]... [--metrics FILE]... [--graph FILE]...\n",
                 argv[0]);
    return 2;
  }
  int failures = 0;
  int checked = 0;
  for (int i = 1; i < argc; ++i) {
    const bool is_trace = std::strcmp(argv[i], "--trace") == 0;
    const bool is_metrics = std::strcmp(argv[i], "--metrics") == 0;
    const bool is_graph = std::strcmp(argv[i], "--graph") == 0;
    if (!is_trace && !is_metrics && !is_graph) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a file\n", argv[i]);
      return 2;
    }
    const char* path = argv[++i];
    std::string text;
    if (!read_file(path, &text)) {
      std::printf("FAIL: %s: cannot read\n", path);
      ++failures;
      continue;
    }
    std::string error;
    std::size_t count = 0;
    bool ok = false;
    const char* unit = "event(s)";
    if (is_trace) {
      ok = obs::jsonlint::validate_chrome_trace(text, &error, &count);
    } else if (is_metrics) {
      ok = obs::jsonlint::validate_metrics_json(text, &error, &count);
      unit = "metric(s)";
    } else {
      schedsim::DecisionLog log;
      ok = schedsim::parse_log(text, &log, &error);
      count = log.decisions.size();
      unit = "decision(s)";
    }
    ++checked;
    if (ok) {
      std::printf("OK: %s: %zu %s\n", path, count, unit);
    } else {
      std::printf("FAIL: %s: %s\n", path, error.c_str());
      ++failures;
    }
  }
  return failures == 0 && checked > 0 ? 0 : 1;
}
