#include "trace/analysis.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

namespace gcr::trace {

std::vector<PairVolume> aggregate_pairs(const Trace& trace) {
  // Hashed by the packed pair: the sort below is a total order, so the
  // accumulation order never shows in the output.
  std::unordered_map<std::uint64_t, PairVolume> acc;
  for (const TraceRecord& rec : trace) {
    if (rec.kind != EventKind::kSend) continue;
    const mpi::RankId a = std::min(rec.rank, rec.peer);
    const mpi::RankId b = std::max(rec.rank, rec.peer);
    if (a == b) continue;  // self-sends are irrelevant for grouping
    const std::uint64_t key = (static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(a))
                               << 32) |
                              static_cast<std::uint32_t>(b);
    PairVolume& pv = acc[key];
    pv.a = a;
    pv.b = b;
    pv.count += 1;
    pv.bytes += rec.bytes;
  }
  std::vector<PairVolume> out;
  out.reserve(acc.size());
  for (const auto& [key, pv] : acc) out.push_back(pv);
  std::sort(out.begin(), out.end(), [](const PairVolume& x, const PairVolume& y) {
    if (x.bytes != y.bytes) return x.bytes > y.bytes;    // size desc
    if (x.count != y.count) return x.count > y.count;    // then count desc
    if (x.a != y.a) return x.a < y.a;                    // then pair asc
    return x.b < y.b;
  });
  return out;
}

std::int64_t total_send_bytes(const Trace& trace) {
  std::int64_t total = 0;
  for (const TraceRecord& rec : trace) {
    if (rec.kind == EventKind::kSend) total += rec.bytes;
  }
  return total;
}

}  // namespace gcr::trace
