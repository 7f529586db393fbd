// Trace analysis: pair-volume aggregation (the preprocessing step of the
// paper's Algorithm 2) and send-volume totals.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace gcr::trace {

/// Aggregated traffic between one unordered pair of ranks: the tuple
/// (P = {a,b}, N = count, S = size) from Algorithm 2's preprocessing.
struct PairVolume {
  mpi::RankId a = 0;  ///< smaller rank of the pair
  mpi::RankId b = 0;  ///< larger rank of the pair
  std::uint64_t count = 0;
  std::int64_t bytes = 0;
};

/// Builds the (pair, count, size) list from send records, sorted descending
/// by size, then count, then pair (the exact ordering Algorithm 2 requires).
std::vector<PairVolume> aggregate_pairs(const Trace& trace);

/// Total bytes on send records.
std::int64_t total_send_bytes(const Trace& trace);

}  // namespace gcr::trace
