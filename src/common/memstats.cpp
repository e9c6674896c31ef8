#include "common/memstats.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

namespace common {

namespace {

/// The calling thread's /proc/self/status fd, closed when the thread exits:
/// every session runs its ranks on fresh threads, so an fd that outlived its
/// thread would leak one per rank per session.
struct StatusFd {
  int fd{-1};
  pid_t pid{-1};
  StatusFd() = default;
  StatusFd(const StatusFd&) = delete;
  StatusFd& operator=(const StatusFd&) = delete;
  ~StatusFd() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

}  // namespace

MemStats read_memstats() {
  MemStats stats{};
  // Cached fd + pread(0): /proc regenerates content on every read, so one
  // open serves all later calls — metrics snapshots happen twice per checked
  // session, and a fopen/fgets/sscanf walk of all ~50 status lines showed up
  // in executor profiles. Thread-local so concurrent sessions don't race on
  // the fd; the pid check reopens after fork ("/proc/self" binds to the pid
  // at open time, so an inherited fd would report the parent's numbers).
  thread_local StatusFd status;
  const pid_t pid = ::getpid();
  if (status.fd < 0 || status.pid != pid) {
    if (status.fd >= 0) {
      ::close(status.fd);
    }
    status.fd = ::open("/proc/self/status", O_RDONLY | O_CLOEXEC);
    status.pid = pid;
    if (status.fd < 0) {
      return stats;
    }
  }
  char buf[8192];
  const ssize_t n = ::pread(status.fd, buf, sizeof buf - 1, 0);
  if (n <= 0) {
    return stats;
  }
  buf[n] = '\0';
  const auto field_kb = [&buf](const char* key) -> std::size_t {
    const char* p = std::strstr(buf, key);
    if (p == nullptr) {
      return 0;
    }
    return static_cast<std::size_t>(std::strtoull(p + std::strlen(key), nullptr, 10)) * 1024;
  };
  stats.rss_bytes = field_kb("VmRSS:");
  stats.rss_peak_bytes = field_kb("VmHWM:");
  return stats;
}

}  // namespace common
