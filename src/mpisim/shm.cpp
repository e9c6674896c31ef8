#include "mpisim/shm.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mpisim::shm {

const std::string& boot_id() {
  static const std::string id = [] {
    std::string out = "00000000";
    FILE* f = std::fopen("/proc/sys/kernel/random/boot_id", "re");
    if (f != nullptr) {
      char buf[64] = {};
      const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
      std::fclose(f);
      std::string hex;
      for (std::size_t i = 0; i < n && hex.size() < 8; ++i) {
        if (std::isxdigit(static_cast<unsigned char>(buf[i])) != 0) {
          hex.push_back(buf[i]);
        }
      }
      if (hex.size() == 8) {
        out = hex;
      }
    }
    return out;
  }();
  return id;
}

std::string segment_name(pid_t owner, const std::string& suffix) {
  return "/cusan." + boot_id() + "." + std::to_string(static_cast<long>(owner)) + "." + suffix;
}

Segment::Segment(Segment&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      name_(std::move(other.name_)) {
  other.name_.clear();
}

Segment& Segment::operator=(Segment&& other) noexcept {
  if (this != &other) {
    reset();
    base_ = std::exchange(other.base_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
    name_ = std::move(other.name_);
    other.name_.clear();
  }
  return *this;
}

Segment::~Segment() { reset(); }

void Segment::reset() {
  if (base_ != nullptr) {
    ::munmap(base_, bytes_);
    base_ = nullptr;
    bytes_ = 0;
  }
}

void Segment::unlink() {
  if (!name_.empty()) {
    ::shm_unlink(name_.c_str());
  }
}

Segment Segment::create(const std::string& name, std::size_t bytes, std::string* error) {
  Segment seg;
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "shm_open(" + name + "): " + std::strerror(errno);
    }
    return seg;
  }
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    if (error != nullptr) {
      *error = "ftruncate(" + name + "): " + std::strerror(errno);
    }
    ::close(fd);
    ::shm_unlink(name.c_str());
    return seg;
  }
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    if (error != nullptr) {
      *error = "mmap(" + name + "): " + std::strerror(errno);
    }
    ::shm_unlink(name.c_str());
    return seg;
  }
  seg.base_ = base;
  seg.bytes_ = bytes;
  seg.name_ = name;
  return seg;
}

Segment Segment::open(const std::string& name, std::string* error) {
  Segment seg;
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "shm_open(" + name + "): " + std::strerror(errno);
    }
    return seg;
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    if (error != nullptr) {
      *error = "fstat(" + name + "): " + std::strerror(errno);
    }
    ::close(fd);
    return seg;
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    if (error != nullptr) {
      *error = "mmap(" + name + "): " + std::strerror(errno);
    }
    return seg;
  }
  seg.base_ = base;
  seg.bytes_ = bytes;
  seg.name_ = name;
  return seg;
}

namespace {

/// Parse `cusan.<boot8>.<pid>.<suffix>` (no leading '/'); false if the name
/// is not ours or malformed (malformed cusan.* names count as stale: nothing
/// we ship produces them, so they are junk from a crashed writer).
bool parse_name(const std::string& file, std::string* boot, long* pid) {
  constexpr const char kPrefix[] = "cusan.";
  if (file.rfind(kPrefix, 0) != 0) {
    return false;
  }
  const std::size_t boot_start = sizeof(kPrefix) - 1;
  const std::size_t boot_end = file.find('.', boot_start);
  if (boot_end == std::string::npos || boot_end - boot_start != 8) {
    return false;
  }
  const std::size_t pid_end = file.find('.', boot_end + 1);
  if (pid_end == std::string::npos || pid_end == boot_end + 1) {
    return false;
  }
  char* end = nullptr;
  const std::string pid_str = file.substr(boot_end + 1, pid_end - boot_end - 1);
  const long parsed = std::strtol(pid_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || parsed <= 0) {
    return false;
  }
  *boot = file.substr(boot_start, 8);
  *pid = parsed;
  return true;
}

}  // namespace

GcStats gc_stale_segments(bool remove) {
  GcStats stats;
  DIR* dir = ::opendir("/dev/shm");
  if (dir == nullptr) {
    return stats;
  }
  std::vector<std::string> names;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string file = entry->d_name;
    if (file.rfind("cusan.", 0) == 0) {
      names.push_back(file);
    }
  }
  ::closedir(dir);
  for (const std::string& file : names) {
    ++stats.scanned;
    std::string boot;
    long pid = 0;
    bool stale;
    if (!parse_name(file, &boot, &pid)) {
      stale = true;  // malformed cusan.* name: junk from a crashed writer
    } else if (boot != boot_id()) {
      stale = true;  // previous boot: the owner is definitionally gone
    } else {
      // Dead owner. (EPERM means "exists but not ours" — alive.)
      stale = ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
    }
    if (!stale) {
      ++stats.alive;
      stats.alive_names.push_back(file);
      continue;
    }
    ++stats.stale;
    stats.stale_names.push_back(file);
    if (remove && ::shm_unlink(("/" + file).c_str()) == 0) {
      ++stats.removed;
    }
  }
  return stats;
}

}  // namespace mpisim::shm
