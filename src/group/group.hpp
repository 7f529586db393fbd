// GroupSet: a partition of ranks into checkpoint groups.
//
// The unit of coordination in the paper: checkpoints are coordinated within
// a group; only messages crossing group boundaries are logged.
#pragma once

#include <string>
#include <vector>

#include "mpi/message.hpp"
#include "util/assert.hpp"

namespace gcr::group {

class GroupSet {
 public:
  GroupSet() = default;

  /// Builds from explicit member lists; validates that the groups form a
  /// partition of 0..nranks-1 (aborts otherwise).
  GroupSet(int nranks, std::vector<std::vector<mpi::RankId>> groups);

  int nranks() const { return nranks_; }
  int num_groups() const { return static_cast<int>(groups_.size()); }

  const std::vector<mpi::RankId>& members(int group) const {
    GCR_CHECK_MSG(group >= 0 && group < num_groups(),
                  "group index out of range");
    return groups_[static_cast<std::size_t>(group)];
  }

  /// Group index of a rank.
  int group_of(mpi::RankId rank) const {
    GCR_CHECK_MSG(rank >= 0 && rank < nranks_, "rank id out of range");
    return group_of_[static_cast<std::size_t>(rank)];
  }

  /// True if both ranks are in the same group (their traffic is NOT logged).
  bool same_group(mpi::RankId a, mpi::RankId b) const {
    return group_of(a) == group_of(b);
  }

  std::size_t largest_group_size() const;

  /// Human-readable summary, e.g. "{0,4,8} {1,5} {2,6} ...".
  std::string to_string() const;

  bool operator==(const GroupSet& other) const {
    return nranks_ == other.nranks_ && groups_ == other.groups_;
  }

 private:
  int nranks_ = 0;
  std::vector<std::vector<mpi::RankId>> groups_;
  std::vector<int> group_of_;
};

}  // namespace gcr::group
