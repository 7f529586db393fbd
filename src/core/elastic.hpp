// Traffic-affinity regroup planning for elastic membership (DESIGN.md §16).
//
// When churn changes the member set (src/sim/churn.hpp driven through the
// RecoveryManager), the partition has to be re-derived: a drained rank is
// split into a singleton before it departs, and a rejoining rank should land
// in the group it actually communicates with — not wherever a static
// strategy once put it. The planner reuses the paper's own machinery for
// that decision: observed app-plane traffic is replayed through the
// Gopalan–Nagarajan DynamicGrouper (group/dynamic.hpp) to find the
// rejoiner's communication component, and the merge target is the current
// group with the highest direct-message affinity inside that component,
// subject to a size cap (unbounded dynamic grouping is exactly the failure
// mode the paper criticizes).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "group/group.hpp"
#include "mpi/hooks.hpp"

namespace gcr::core {

/// Passive tap counting app-plane messages per ordered (src, dst) pair.
/// Suppressed re-sends during replay are counted too: affinity measures who
/// talks to whom, not what reached the wire. Attach via
/// Runtime::add_observer; read it between events (the recovery state
/// machine's context).
class TrafficMatrix : public mpi::Observer {
 public:
  explicit TrafficMatrix(int nranks);

  void on_send(const mpi::Rank& rank, const mpi::Message& msg,
               bool transmitted) override;

  /// Messages observed between a and b, either direction.
  std::uint64_t pair_count(mpi::RankId a, mpi::RankId b) const;
  std::uint64_t total() const { return total_; }
  int nranks() const { return nranks_; }

 private:
  int nranks_;
  std::vector<std::uint64_t> counts_;  ///< [src * nranks + dst]
  std::uint64_t total_ = 0;
};

/// Decides where a rejoined singleton should live. Deterministic: ties
/// break toward the lowest group index, and the traffic matrix it reads is
/// a pure function of the (seeded) run so far.
class RegroupPlanner {
 public:
  explicit RegroupPlanner(const TrafficMatrix* traffic);

  /// Returns the index (in `gs`) of the group `rank` should merge into, or
  /// nullopt to stay a singleton. A group qualifies if admitting the rank
  /// keeps it within `max_group_size` (0 = unbounded). Preference order:
  /// highest direct-message affinity; among zero-direct-affinity groups,
  /// largest overlap with the rank's DynamicGrouper component (transitive
  /// communication); no affinity at all → stay singleton.
  std::optional<int> choose_merge_target(mpi::RankId rank,
                                         const group::GroupSet& gs,
                                         int max_group_size) const;

 private:
  const TrafficMatrix* traffic_;
};

}  // namespace gcr::core
