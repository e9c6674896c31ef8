// POSIX shared-memory segments for the proc backend, named so that stale
// ones are safely reapable: every name embeds the owning supervisor's pid
// and the kernel boot id — `/cusan.<boot8>.<pid>.<suffix>` — so a segment
// is provably stale exactly when its boot id differs from the running
// kernel's or its owner pid no longer exists. tools/shm_gc and the test
// harnesses reap on that rule.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include <sys/types.h>

namespace mpisim::shm {

/// First 8 hex chars of /proc/sys/kernel/random/boot_id ("00000000" if the
/// file is unreadable — gc then falls back to the pid liveness test alone).
[[nodiscard]] const std::string& boot_id();

/// `/cusan.<boot8>.<pid>.<suffix>` (the leading '/' is part of the POSIX
/// name; the /dev/shm file is the same without it).
[[nodiscard]] std::string segment_name(pid_t owner, const std::string& suffix);

/// RAII mapping of a named POSIX shared-memory segment. Movable; the
/// destructor unmaps but never unlinks — name lifetime is the owner's call.
class Segment {
 public:
  Segment() = default;
  Segment(Segment&& other) noexcept;
  Segment& operator=(Segment&& other) noexcept;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;
  ~Segment();

  /// Create (O_EXCL) and map a fresh zero-filled segment of `bytes`.
  [[nodiscard]] static Segment create(const std::string& name, std::size_t bytes,
                                      std::string* error);
  /// Map an existing segment at its current size.
  [[nodiscard]] static Segment open(const std::string& name, std::string* error);

  [[nodiscard]] bool valid() const { return base_ != nullptr; }
  [[nodiscard]] void* data() const { return base_; }
  [[nodiscard]] std::size_t size() const { return bytes_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Remove the name (mappings stay valid until unmapped). Idempotent.
  void unlink();
  /// Unmap now (destructor becomes a no-op).
  void reset();

 private:
  void* base_{nullptr};
  std::size_t bytes_{0};
  std::string name_;
};

struct GcStats {
  int scanned{0};   ///< cusan.* names seen in /dev/shm
  int stale{0};     ///< provably orphaned (dead owner pid or other boot)
  int removed{0};   ///< stale names actually unlinked
  int alive{0};     ///< owner still running — left alone
  std::vector<std::string> stale_names;
  std::vector<std::string> alive_names;
};

/// Scan /dev/shm for `cusan.*` segments and classify them; with
/// `remove` also unlink the stale ones. Never touches live owners'
/// segments or non-cusan names.
[[nodiscard]] GcStats gc_stale_segments(bool remove);

}  // namespace mpisim::shm
