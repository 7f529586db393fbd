// Sender-based message log (Algorithm 1; DESIGN.md §4).
//
// Each rank keeps, per out-of-group destination, the ordered list of
// app-plane messages it sent. Entries are garbage-collected when the
// destination piggybacks its recorded received-volume RR (everything at or
// below RR is covered by the peer's checkpoint). The log is "flushed" to
// stable storage right before each checkpoint; the protocol records the
// flushed volume as accounting only, this class tracks the unflushed byte
// count.
//
// Logs are value types: a checkpoint snapshots the whole log into the image
// (the disk copy), and a restart restores from that copy.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "mpi/message.hpp"

namespace gcr::core {

class MessageLog {
 public:
  /// Appends a sent message (msg.cum_bytes must be assigned). Entries per
  /// destination must arrive with strictly increasing cum_bytes.
  void append(const mpi::Message& msg);

  /// Drops entries towards `dst` with cum_bytes <= upto (RR-based GC).
  /// Returns the number of entries dropped.
  std::size_t gc(mpi::RankId dst, std::int64_t upto);

  /// Replay set towards `dst`: every entry with cum_bytes > after, in order.
  std::vector<mpi::Message> entries_after(mpi::RankId dst,
                                          std::int64_t after) const;

  /// Bytes appended since the last mark_flushed() (log-sync cost basis).
  std::int64_t unflushed_bytes() const { return unflushed_bytes_; }
  void mark_flushed() { unflushed_bytes_ = 0; }

  std::int64_t total_bytes() const { return total_bytes_; }
  std::int64_t total_messages() const { return total_messages_; }
  std::size_t entries_towards(mpi::RankId dst) const;

  void clear();

 private:
  std::map<mpi::RankId, std::deque<mpi::Message>> by_dst_;
  std::int64_t unflushed_bytes_ = 0;
  std::int64_t total_bytes_ = 0;
  std::int64_t total_messages_ = 0;
};

}  // namespace gcr::core
