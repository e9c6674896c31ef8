// The kinds of CUDA call CuSan observes. Each observed call becomes an
// instant on the rank's host track in the obs event ring (CUSAN_TRACE), in
// order, for diagnosing race reports ("what did the tool see before the
// conflict?").
#pragma once

#include <cstdint>

#include "obs/events.hpp"

namespace cusan {

enum class TraceKind : std::uint8_t {
  kStreamCreate,
  kStreamDestroy,
  kKernelLaunch,
  kStreamSync,
  kDeviceSync,
  kEventCreate,
  kEventDestroy,
  kEventRecord,
  kEventSync,
  kStreamWaitEvent,
  kQuerySuccess,
  kMemcpy,
  kMemset,
  kPrefetch,
  kHostFunc,
  kFree,
  kProofElided,  ///< kernel launch whose tracking was elided by an affine proof
};

[[nodiscard]] constexpr const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kStreamCreate:
      return "stream_create";
    case TraceKind::kStreamDestroy:
      return "stream_destroy";
    case TraceKind::kKernelLaunch:
      return "kernel_launch";
    case TraceKind::kStreamSync:
      return "stream_synchronize";
    case TraceKind::kDeviceSync:
      return "device_synchronize";
    case TraceKind::kEventCreate:
      return "event_create";
    case TraceKind::kEventDestroy:
      return "event_destroy";
    case TraceKind::kEventRecord:
      return "event_record";
    case TraceKind::kEventSync:
      return "event_synchronize";
    case TraceKind::kStreamWaitEvent:
      return "stream_wait_event";
    case TraceKind::kQuerySuccess:
      return "query_success";
    case TraceKind::kMemcpy:
      return "memcpy";
    case TraceKind::kMemset:
      return "memset";
    case TraceKind::kPrefetch:
      return "mem_prefetch";
    case TraceKind::kHostFunc:
      return "host_func";
    case TraceKind::kFree:
      return "free";
    case TraceKind::kProofElided:
      return "proof_elided";
  }
  return "?";
}

/// Category under which a TraceKind lands in the obs event ring.
[[nodiscard]] constexpr obs::EventKind to_obs_kind(TraceKind kind) {
  switch (kind) {
    case TraceKind::kKernelLaunch:
    case TraceKind::kProofElided:
      return obs::EventKind::kKernel;
    case TraceKind::kMemcpy:
      return obs::EventKind::kMemcpy;
    case TraceKind::kMemset:
      return obs::EventKind::kMemset;
    case TraceKind::kPrefetch:
      return obs::EventKind::kPrefetch;
    case TraceKind::kHostFunc:
      return obs::EventKind::kHostFunc;
    case TraceKind::kStreamSync:
    case TraceKind::kDeviceSync:
    case TraceKind::kEventSync:
    case TraceKind::kStreamWaitEvent:
    case TraceKind::kQuerySuccess:
      return obs::EventKind::kSync;
    case TraceKind::kStreamCreate:
    case TraceKind::kStreamDestroy:
      return obs::EventKind::kStreamOp;
    case TraceKind::kEventCreate:
    case TraceKind::kEventDestroy:
    case TraceKind::kEventRecord:
      return obs::EventKind::kEventOp;
    case TraceKind::kFree:
      return obs::EventKind::kAlloc;
  }
  return obs::EventKind::kTrace;
}

}  // namespace cusan
