// Minimal leveled logger.
//
// Each simulation runs on one thread, but a campaign's --jobs workers run
// simulations concurrently and log at the same time. The level is a plain
// process-global knob: set it before the workers start and leave it alone
// while they run (it is read, never written, from worker threads). A message
// takes several stdio calls, so lines from concurrent workers can
// interleave. Benches default to `warn` so figure output stays clean; tests
// may raise it to `debug` for failure diagnosis.
#pragma once

#include <cstdarg>
#include <string>

namespace gcr {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Sets the global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// printf-style logging. Prefer the GCR_LOG_* macros which skip argument
/// evaluation when the level is disabled.
void log_message(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Parses "trace"/"debug"/"info"/"warn"/"error"/"off"; defaults to kWarn.
LogLevel parse_log_level(const std::string& name);

}  // namespace gcr

#define GCR_LOG_AT(lvl, ...)                                        \
  do {                                                              \
    if (lvl >= ::gcr::log_level()) ::gcr::log_message(lvl, __VA_ARGS__); \
  } while (0)

#define GCR_TRACE(...) GCR_LOG_AT(::gcr::LogLevel::kTrace, __VA_ARGS__)
#define GCR_DEBUG(...) GCR_LOG_AT(::gcr::LogLevel::kDebug, __VA_ARGS__)
#define GCR_INFO(...) GCR_LOG_AT(::gcr::LogLevel::kInfo, __VA_ARGS__)
#define GCR_WARN(...) GCR_LOG_AT(::gcr::LogLevel::kWarn, __VA_ARGS__)
#define GCR_ERROR(...) GCR_LOG_AT(::gcr::LogLevel::kError, __VA_ARGS__)
