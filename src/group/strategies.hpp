// Canned grouping strategies used throughout the paper's evaluation
// (DESIGN.md §7; mode glossary in README.md):
//   NORM  — one global group (original LAM/MPI coordinated checkpoint)
//   GP1   — one process per group (uncoordinated + full message logging)
//   GPk   — k groups of sequential ranks (the "ad-hoc" GP4 baseline)
//   round-robin — rank r in group r % k (what Algorithm 2 discovers for
//                 HPL's row-major P×Q grids, Table 1)
#pragma once

#include "group/group.hpp"

namespace gcr::group {

/// One group containing every rank.
GroupSet make_norm(int nranks);

/// Every rank is its own group.
GroupSet make_gp1(int nranks);

/// k groups of contiguous ranks (sizes differ by at most one).
GroupSet make_sequential(int nranks, int k);

/// k groups, rank r assigned to group r % k.
GroupSet make_round_robin(int nranks, int k);

/// Groups of exactly `width` consecutive ranks (last may be smaller).
GroupSet make_blocks(int nranks, int width);

// Partition surgery for elastic regrouping (DESIGN.md §16). The result is a
// GroupSet, whose groups are ordered by smallest member, so group indices
// shift: name a group by a member rank across an install, not by index.

/// Moves `rank` out of its group into a new singleton, which sorts into
/// place by its rank like every group. If `rank` is already a singleton,
/// returns the partition unchanged.
GroupSet split_rank(const GroupSet& gs, mpi::RankId rank);

/// Merges singleton `rank` into group `target` (members stay sorted, so
/// the merged group's leader, its smallest member, may become `rank`) and
/// drops the emptied singleton. Aborts if `rank` is not a singleton or
/// `target` is its own group.
GroupSet merge_rank(const GroupSet& gs, mpi::RankId rank, int target);

}  // namespace gcr::group
