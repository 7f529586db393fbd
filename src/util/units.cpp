#include "util/units.hpp"

#include <cmath>
#include <cstdio>

namespace gcr {

std::string format_bytes(std::int64_t bytes) {
  const double b = static_cast<double>(bytes);
  char buf[64];
  if (bytes < kKiB) {
    std::snprintf(buf, sizeof(buf), "%lld B", static_cast<long long>(bytes));
  } else if (bytes < kMiB) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", b / static_cast<double>(kKiB));
  } else if (bytes < kGiB) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", b / static_cast<double>(kMiB));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", b / static_cast<double>(kGiB));
  }
  return buf;
}

std::string format_duration_ns(std::int64_t ns) {
  char buf[64];
  const double v = static_cast<double>(ns);
  if (ns >= 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3f s", v / 1e9);
  } else if (ns >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", v / 1e6);
  } else if (ns >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.3f us", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld ns", static_cast<long long>(ns));
  }
  return buf;
}

}  // namespace gcr
