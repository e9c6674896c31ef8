// Shared-memory segment janitor for the proc backend: lists and reaps stale
// `cusan.*` segments in /dev/shm. Segment names embed the owner pid and the
// boot id (`/cusan.<boot8>.<pid>.<suffix>`), so staleness is provable — the
// owner is dead, or the segment is from a previous boot. Live owners'
// segments are never touched.
//
// Modes:
//   shm_gc           reap stale segments (default), print what was removed
//   shm_gc --list    classify only, remove nothing
//   shm_gc --check   classify only; exit 1 if any stale segment exists —
//                    the CI zero-leak gate after a proc-backend test run
//   shm_gc --quiet   suppress per-segment lines (summary only)
//
// Exit codes: 0 clean, 1 stale segments found with --check, 2 usage error.
#include <cstdio>
#include <cstring>

#include "mpisim/shm.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--list | --check] [--quiet]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  bool remove = true;
  bool check = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      remove = false;
    } else if (std::strcmp(arg, "--check") == 0) {
      remove = false;
      check = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      usage(argv[0]);
    }
  }

  const mpisim::shm::GcStats stats = mpisim::shm::gc_stale_segments(remove);
  if (!quiet) {
    for (const std::string& name : stats.alive_names) {
      std::printf("alive  %s\n", name.c_str());
    }
    for (const std::string& name : stats.stale_names) {
      std::printf("%s %s\n", remove ? "reaped" : "stale ", name.c_str());
    }
  }
  std::printf("shm_gc: %d cusan segment(s) scanned, %d alive, %d stale, %d removed\n",
              stats.scanned, stats.alive, stats.stale, stats.removed);
  if (check && stats.stale > 0) {
    std::fprintf(stderr, "shm_gc: FAILED — %d leaked segment(s) in /dev/shm\n", stats.stale);
    return 1;
  }
  return 0;
}
