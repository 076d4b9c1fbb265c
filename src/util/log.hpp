// Minimal leveled logging.
//
// The protocol engine is sans-io and silent by default; logging exists for
// the daemons, examples, and for debugging membership transitions in tests.
// Printf-style formatting keeps call sites compact and avoids iostream
// locale/flag state.
#pragma once

#include <cstdarg>

namespace accelring::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// printf-style logging to stderr; messages below kWarn are suppressed. `tag` names the subsystem ("membership", "daemon").
void logf(LogLevel level, const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

#define ACCELRING_LOG_DEBUG(tag, ...) \
  ::accelring::util::logf(::accelring::util::LogLevel::kDebug, tag, __VA_ARGS__)
#define ACCELRING_LOG_INFO(tag, ...) \
  ::accelring::util::logf(::accelring::util::LogLevel::kInfo, tag, __VA_ARGS__)
#define ACCELRING_LOG_WARN(tag, ...) \
  ::accelring::util::logf(::accelring::util::LogLevel::kWarn, tag, __VA_ARGS__)
#define ACCELRING_LOG_ERROR(tag, ...) \
  ::accelring::util::logf(::accelring::util::LogLevel::kError, tag, __VA_ARGS__)

}  // namespace accelring::util
