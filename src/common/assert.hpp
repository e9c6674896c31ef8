// Internal invariant checking. CUSAN_ASSERT is active in all build types:
// a correctness tool that silently corrupts its own bookkeeping is worse
// than one that aborts loudly. CUSAN_DEBUG_ASSERT is for contracts checked
// on a hot path: it is active only without NDEBUG (the Debug build).
#pragma once

#include <cstdio>
#include <cstdlib>

namespace common {

[[noreturn]] inline void assert_fail(const char* cond, const char* file, int line, const char* msg) {
  std::fprintf(stderr, "[cusan-repro] assertion failed: %s (%s:%d)%s%s\n", cond, file, line,
               msg != nullptr ? " — " : "", msg != nullptr ? msg : "");
  std::abort();
}

}  // namespace common

#define CUSAN_ASSERT(cond)                                               \
  do {                                                                   \
    if (!(cond)) [[unlikely]]                                            \
      ::common::assert_fail(#cond, __FILE__, __LINE__, nullptr);         \
  } while (false)

#define CUSAN_ASSERT_MSG(cond, msg)                                      \
  do {                                                                   \
    if (!(cond)) [[unlikely]]                                            \
      ::common::assert_fail(#cond, __FILE__, __LINE__, (msg));           \
  } while (false)

#ifdef NDEBUG
#define CUSAN_DEBUG_ASSERT_MSG(cond, msg) \
  do {                                    \
    (void)sizeof(!(cond));                \
  } while (false)
#else
#define CUSAN_DEBUG_ASSERT_MSG(cond, msg) CUSAN_ASSERT_MSG(cond, msg)
#endif
