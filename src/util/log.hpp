// Warnings on stderr.
//
// Each simulation runs on one thread, but a campaign's --jobs workers run
// simulations concurrently and may warn at the same time. A line takes
// several stdio calls, so lines from concurrent workers can interleave.
#pragma once

namespace gcr {

/// printf-style warning: writes "[WARN] ", the message and a newline to
/// stderr.
void log_warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace gcr

#define GCR_WARN(...) ::gcr::log_warn(__VA_ARGS__)
