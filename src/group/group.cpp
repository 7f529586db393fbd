#include "group/group.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace gcr::group {

GroupSet::GroupSet(int nranks, std::vector<std::vector<mpi::RankId>> groups)
    : nranks_(nranks), groups_(std::move(groups)),
      group_of_(static_cast<std::size_t>(nranks), -1) {
  GCR_CHECK(nranks > 0);
  for (auto& g : groups_) std::sort(g.begin(), g.end());
  // Canonical group order: by smallest member.
  std::sort(groups_.begin(), groups_.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  int covered = 0;
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    GCR_CHECK_MSG(!groups_[gi].empty(), "empty group");
    for (mpi::RankId r : groups_[gi]) {
      GCR_CHECK_MSG(r >= 0 && r < nranks, "rank out of range in group");
      GCR_CHECK_MSG(group_of_[static_cast<std::size_t>(r)] == -1,
                    "rank appears in two groups");
      group_of_[static_cast<std::size_t>(r)] = static_cast<int>(gi);
      ++covered;
    }
  }
  GCR_CHECK_MSG(covered == nranks, "groups must cover every rank");
}

std::size_t GroupSet::largest_group_size() const {
  std::size_t best = 0;
  for (const auto& g : groups_) best = std::max(best, g.size());
  return best;
}

std::string GroupSet::to_string() const {
  std::string out;
  for (const auto& g : groups_) {
    out += '{';
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(g[i]);
    }
    out += "} ";
  }
  if (!out.empty()) out.pop_back();
  return out;
}

}  // namespace gcr::group
