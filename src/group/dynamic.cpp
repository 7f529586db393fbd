#include "group/dynamic.hpp"

#include <map>

#include "util/assert.hpp"

namespace gcr::group {

DynamicGrouper::DynamicGrouper(int nranks)
    : parent_(static_cast<std::size_t>(nranks)), groups_(nranks) {
  GCR_CHECK(nranks > 0);
  for (int r = 0; r < nranks; ++r) parent_[static_cast<std::size_t>(r)] = r;
}

int DynamicGrouper::find(int r) const {
  while (parent_[static_cast<std::size_t>(r)] != r) {
    // Path halving.
    parent_[static_cast<std::size_t>(r)] =
        parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(r)])];
    r = parent_[static_cast<std::size_t>(r)];
  }
  return r;
}

void DynamicGrouper::on_message(mpi::RankId src, mpi::RankId dst) {
  const int n = static_cast<int>(parent_.size());
  GCR_CHECK_MSG(src >= 0 && src < n && dst >= 0 && dst < n,
                "dynamic grouping: rank id outside [0, nranks)");
  const int a = find(src);
  const int b = find(dst);
  if (a == b) return;
  parent_[static_cast<std::size_t>(b)] = a;
  --groups_;
}

int DynamicGrouper::num_groups() const { return groups_; }

GroupSet DynamicGrouper::current() const {
  std::map<int, std::vector<mpi::RankId>> byroot;
  const int n = static_cast<int>(parent_.size());
  for (int r = 0; r < n; ++r) byroot[find(r)].push_back(r);
  std::vector<std::vector<mpi::RankId>> groups;
  groups.reserve(byroot.size());
  for (auto& [root, members] : byroot) groups.push_back(std::move(members));
  return GroupSet(n, std::move(groups));
}

DynamicReplayResult replay_dynamic(int nranks, const trace::Trace& trace) {
  DynamicGrouper grouper(nranks);
  std::int64_t collapse_at = -1;
  std::int64_t sends = 0;
  for (const trace::TraceRecord& rec : trace) {
    if (rec.kind != trace::EventKind::kSend) continue;
    ++sends;
    grouper.on_message(rec.rank, rec.peer);
    if (collapse_at < 0 && grouper.num_groups() == 1) collapse_at = sends;
  }
  return DynamicReplayResult{grouper.current(), collapse_at};
}

}  // namespace gcr::group
