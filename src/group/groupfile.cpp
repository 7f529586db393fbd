#include "group/groupfile.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/log.hpp"

namespace gcr::group {

void write_groupfile(std::ostream& os, const GroupSet& groups) {
  os << "# gcr group definition v1\n";
  os << "nranks " << groups.nranks() << '\n';
  for (int g = 0; g < groups.num_groups(); ++g) {
    os << "group";
    for (mpi::RankId r : groups.members(g)) os << ' ' << r;
    os << '\n';
  }
}

std::optional<GroupSet> read_groupfile(std::istream& is) {
  int nranks = -1;
  std::vector<std::vector<mpi::RankId>> groups;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;
    if (keyword == "nranks") {
      // A trailing token is an error, not ignored: a typo must not load.
      if (!(ls >> nranks) || nranks <= 0 || !(ls >> std::ws).eof()) {
        GCR_WARN("groupfile: bad nranks line: %s", line.c_str());
        return std::nullopt;
      }
    } else if (keyword == "group") {
      std::vector<mpi::RankId> members;
      mpi::RankId r;
      while (ls >> r) members.push_back(r);
      if (!ls.eof()) {
        // Stopped at a token that is not a rank: a mistyped rank would
        // otherwise silently drop out of the group.
        GCR_WARN("groupfile: bad group line: %s", line.c_str());
        return std::nullopt;
      }
      if (members.empty()) {
        GCR_WARN("groupfile: empty group line");
        return std::nullopt;
      }
      groups.push_back(std::move(members));
    } else {
      GCR_WARN("groupfile: unknown keyword: %s", keyword.c_str());
      return std::nullopt;
    }
  }
  if (nranks <= 0 || groups.empty()) return std::nullopt;
  // Validate coverage before constructing (GroupSet aborts on violations).
  std::vector<int> seen(static_cast<std::size_t>(nranks), 0);
  for (const auto& g : groups) {
    for (mpi::RankId r : g) {
      if (r < 0 || r >= nranks || seen[static_cast<std::size_t>(r)]++) {
        GCR_WARN("groupfile: invalid or duplicate rank %d", r);
        return std::nullopt;
      }
    }
  }
  for (int c : seen) {
    if (!c) {
      GCR_WARN("groupfile: not all ranks covered");
      return std::nullopt;
    }
  }
  return GroupSet(nranks, std::move(groups));
}

bool save_groupfile(const std::string& path, const GroupSet& groups) {
  std::ofstream os(path);
  if (!os) return false;
  write_groupfile(os, groups);
  return static_cast<bool>(os);
}

}  // namespace gcr::group
