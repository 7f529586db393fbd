// Byte/time units and human-readable formatting.
//
// Simulation time is kept in integer nanoseconds (see sim/time.hpp); these
// helpers convert to/from seconds and format quantities for reports.
#pragma once

#include <cstdint>
#include <string>

namespace gcr {

inline constexpr std::int64_t kKiB = 1024;
inline constexpr std::int64_t kMiB = 1024 * kKiB;
inline constexpr std::int64_t kGiB = 1024 * kMiB;

/// "1.50 MiB", "312 B", ... Power-of-two units.
std::string format_bytes(std::int64_t bytes);

/// "1.234 s", "56.7 ms", "890 us", "12 ns".
std::string format_duration_ns(std::int64_t ns);

}  // namespace gcr
