#include "core/msglog.hpp"

#include "util/assert.hpp"

namespace gcr::core {

void MessageLog::append(const mpi::Message& msg) {
  // Replay rebuilds a message from src_, the destination key and the entry,
  // which is exact only for a single rank's original app-plane sends.
  GCR_CHECK_MSG(msg.src >= 0 &&
                    (src_ == mpi::kExternalSource || msg.src == src_),
                "a message log holds the sends of one rank");
  GCR_CHECK_MSG(!msg.is_ctrl() && !msg.is_replay && msg.piggyback_rr == -1,
                "a message log holds original app-plane sends only");
  src_ = msg.src;
  auto& q = by_dst_[msg.dst];
  GCR_CHECK_MSG(q.empty() || q.back().cum_bytes < msg.cum_bytes ||
                    (q.back().cum_bytes == msg.cum_bytes && msg.bytes == 0),
                "log entries must have non-decreasing cumulative volume");
  q.push_back({msg.seq, msg.cum_bytes, msg.bytes, msg.checksum, msg.tag});
  unflushed_bytes_ += msg.bytes;
}

std::size_t MessageLog::gc(mpi::RankId dst, std::int64_t upto) {
  auto it = by_dst_.find(dst);
  if (it == by_dst_.end()) return 0;
  std::size_t dropped = 0;
  auto& q = it->second;
  while (!q.empty() && q.front().cum_bytes <= upto) {
    q.pop_front();
    ++dropped;
  }
  if (q.empty()) by_dst_.erase(it);
  return dropped;
}

MessageLog::Replay MessageLog::entries_after(mpi::RankId dst,
                                             std::int64_t after) const {
  Replay out;
  out.src_ = src_;
  out.dst_ = dst;
  auto it = by_dst_.find(dst);
  if (it == by_dst_.end()) return out;
  for (const Entry& e : it->second) {
    if (e.cum_bytes > after) out.entries_.push_back(e);
  }
  return out;
}

mpi::Message MessageLog::Replay::operator[](std::size_t i) const {
  GCR_CHECK_MSG(i < entries_.size(), "replay index out of range");
  const Entry& e = entries_[i];
  mpi::Message m;
  m.src = src_;
  m.dst = dst_;
  m.tag = e.tag;
  m.bytes = e.bytes;
  m.seq = e.seq;
  m.cum_bytes = e.cum_bytes;
  m.checksum = e.checksum;
  return m;
}

}  // namespace gcr::core
