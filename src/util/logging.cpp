#include "util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

#if !defined(_WIN32)
#include <pthread.h>
#endif

namespace rid::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::mutex g_emit_mutex;

#if !defined(_WIN32)
// Held across fork() so a forked worker can log (see util/failpoint.cpp).
[[maybe_unused]] const int kForkHandlers =
    ::pthread_atfork([] { g_emit_mutex.lock(); },
                     [] { g_emit_mutex.unlock(); },
                     [] { g_emit_mutex.unlock(); });
#endif

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
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level); }

LogLevel log_level() noexcept { return g_level.load(); }

void log_line(LogLevel level, std::string_view message) {
  if (level < g_level.load()) return;
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::fprintf(stderr, "[%s] %.*s\n", level_name(level),
               static_cast<int>(message.size()), message.data());
}

ScopedLogLevel::ScopedLogLevel(LogLevel level) noexcept
    : previous_(log_level()) {
  set_log_level(level);
}

ScopedLogLevel::~ScopedLogLevel() { set_log_level(previous_); }

}  // namespace rid::util
