// Trace file IO.
//
// Text format, one record per line:
//   <time_ns> <kind:S|D> <rank> <peer> <tag> <bytes>
// Lines starting with '#' are comments; a line of any other kind (such as
// the `C` consume records of older traces) is skipped with a warning. This
// is the artifact a profiling run writes and the group-formation tool reads
// back.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/record.hpp"

namespace gcr::trace {

void write_trace(std::ostream& os, const Trace& trace);
Trace read_trace(std::istream& is);

/// Convenience file wrappers; return false / empty on IO failure.
bool save_trace(const std::string& path, const Trace& trace);
Trace load_trace(const std::string& path, bool* ok = nullptr);

}  // namespace gcr::trace
