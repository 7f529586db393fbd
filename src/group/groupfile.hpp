// Group definition files (DESIGN.md §7).
//
// The workflow in the paper (Figure 4): a profiling run produces a trace,
// the analyzer produces a *group definition file*, and subsequent production
// runs read it at process start ("Read group definitions" in Algorithm 1).
//
// Format (text):
//   # comments
//   nranks <n>
//   group <rank> <rank> ...
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "group/group.hpp"

namespace gcr::group {

void write_groupfile(std::ostream& os, const GroupSet& groups);

/// Returns nullopt on malformed input.
std::optional<GroupSet> read_groupfile(std::istream& is);

bool save_groupfile(const std::string& path, const GroupSet& groups);

}  // namespace gcr::group
