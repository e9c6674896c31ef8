// Minimal leveled logger. Thread-safe; every line is written with a single
// fwrite so concurrent ranks do not interleave mid-line.
#pragma once

#include <string_view>

#include "common/format.hpp"

namespace common {

enum class LogLevel : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Emit one formatted line (level tag + message + newline) to stderr.
void log_line(LogLevel level, std::string_view message);

}  // namespace common

/// Logs at `level`; the message arguments are evaluated only when the level
/// passes the threshold.
#define CUSAN_LOG_AT(level, ...)                                   \
  do {                                                             \
    if ((level) >= ::common::log_level()) {                        \
      ::common::log_line((level), ::common::format(__VA_ARGS__));  \
    }                                                              \
  } while (false)

#define CUSAN_LOG_DEBUG(...) CUSAN_LOG_AT(::common::LogLevel::kDebug, __VA_ARGS__)
#define CUSAN_LOG_INFO(...) CUSAN_LOG_AT(::common::LogLevel::kInfo, __VA_ARGS__)
#define CUSAN_LOG_WARN(...) CUSAN_LOG_AT(::common::LogLevel::kWarn, __VA_ARGS__)
#define CUSAN_LOG_ERROR(...) CUSAN_LOG_AT(::common::LogLevel::kError, __VA_ARGS__)
