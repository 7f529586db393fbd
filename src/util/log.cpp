#include "util/log.hpp"

#include <cstdarg>
#include <cstdio>

namespace gcr {

void log_warn(const char* fmt, ...) {
  std::fputs("[WARN] ", stderr);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace gcr
