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
// An entry keeps only what replay cannot rebuild. Every message in a log is
// an original app-plane send of one rank, so the log's source and the
// destination key restore `src` and `dst`, and Runtime::replay_send sets
// the replay flag, the piggyback and both incarnation stamps afresh;
// append() checks that invariant in every build.
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
  /// The fields of a logged message that replay reads besides its source
  /// and destination.
  struct Entry {
    std::uint64_t seq;
    std::int64_t cum_bytes;
    std::int64_t bytes;
    std::uint64_t checksum;
    int tag;
  };
  static_assert(sizeof(Entry) <= 40,
                "a log entry keeps only what replay reads");

 public:
  /// A replay set: entries towards one destination, copied out of the log
  /// in send order. Element i is rebuilt into the message that was
  /// appended.
  class Replay {
   public:
    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    mpi::Message operator[](std::size_t i) const;

   private:
    friend class MessageLog;
    mpi::RankId src_ = mpi::kExternalSource;
    mpi::RankId dst_ = 0;
    std::vector<Entry> entries_;
  };

  /// Appends a sent message (msg.cum_bytes must be assigned). It must be an
  /// original app-plane send (no control message, no replay, no piggyback)
  /// from the source of every earlier entry. Entries per destination must
  /// arrive with strictly increasing cum_bytes.
  void append(const mpi::Message& msg);

  /// Drops entries towards `dst` with cum_bytes <= upto (RR-based GC).
  /// Returns the number of entries dropped.
  std::size_t gc(mpi::RankId dst, std::int64_t upto);

  /// Replay set towards `dst`: every entry with cum_bytes > after, in order.
  Replay entries_after(mpi::RankId dst, std::int64_t after) const;

  /// Bytes appended since the last mark_flushed() (log-sync cost basis).
  std::int64_t unflushed_bytes() const { return unflushed_bytes_; }
  void mark_flushed() { unflushed_bytes_ = 0; }

  void clear() { *this = MessageLog(); }

 private:
  /// Source of every entry; kExternalSource until the first append.
  mpi::RankId src_ = mpi::kExternalSource;
  std::map<mpi::RankId, std::deque<Entry>> by_dst_;
  std::int64_t unflushed_bytes_ = 0;
};

}  // namespace gcr::core
