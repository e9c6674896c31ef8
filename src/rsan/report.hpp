// Data race reports. A report captures both sides of the race with enough
// context (fiber kind/name plus the operation label recorded in the access
// history) to tell the user *which* CUDA/MPI operations conflicted.
#pragma once

#include <cstdint>
#include <string>

#include "rsan/clock.hpp"

namespace rsan {

/// What kind of logical execution context an access belongs to.
enum class CtxKind : std::uint8_t {
  kHostThread,      ///< the MPI rank's host thread
  kStreamFiber,     ///< a CUDA stream modelled as a fiber (CuSan)
  kMpiRequestFiber, ///< a non-blocking MPI request modelled as a fiber (MUST)
  kUserFiber,       ///< user-created fiber (tests, extensions)
};

[[nodiscard]] constexpr const char* to_string(CtxKind kind) {
  switch (kind) {
    case CtxKind::kHostThread:
      return "host thread";
    case CtxKind::kStreamFiber:
      return "CUDA stream";
    case CtxKind::kMpiRequestFiber:
      return "MPI request";
    case CtxKind::kUserFiber:
      return "fiber";
  }
  return "?";
}

/// One side of a race.
struct RaceAccess {
  CtxId ctx{kInvalidCtx};
  CtxKind kind{CtxKind::kHostThread};
  std::string ctx_name;   ///< e.g. "stream 2", "MPI_Irecv req 17"
  bool is_write{false};
  std::uint64_t clock{};  ///< epoch of the access on its context
  std::string label;      ///< operation label, e.g. "kernel 'jacobi' arg d_a [write]"
};

struct RaceReport {
  std::uintptr_t addr{};       ///< first racing byte within the current access
  std::size_t access_size{};   ///< racing bytes of the conflicting granule, clipped to the access
  RaceAccess current;          ///< the access that detected the race
  RaceAccess previous;         ///< the conflicting earlier access
};

/// Render a human-readable multi-line report (the tool's console output).
[[nodiscard]] std::string format_report(const RaceReport& report);

}  // namespace rsan
