#include "util/log.hpp"

#include <cstdio>

namespace accelring::util {
namespace {

/// Messages below this level are suppressed.
constexpr LogLevel kLogLevel = LogLevel::kWarn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void logf(LogLevel level, const char* tag, const char* fmt, ...) {
  if (level < kLogLevel) return;
  char msg[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "[%s] %s: %s\n", level_name(level), tag, msg);
}

}  // namespace accelring::util
