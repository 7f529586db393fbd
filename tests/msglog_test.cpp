// Sender-based message log: append, GC by RR, replay ranges, flush tracking.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "core/msglog.hpp"

namespace gcr::core {
namespace {

mpi::Message msg(mpi::RankId dst, std::int64_t bytes, std::int64_t cum,
                 std::uint64_t seq) {
  mpi::Message m;
  m.src = 0;
  m.dst = dst;
  m.bytes = bytes;
  m.cum_bytes = cum;
  m.seq = seq;
  return m;
}

/// What a log holds towards `dsts`: its entry count and summed bytes, read
/// through the replay set of everything logged.
struct Held {
  std::size_t messages = 0;
  std::int64_t bytes = 0;
};
Held held(const MessageLog& log, std::initializer_list<mpi::RankId> dsts) {
  Held h;
  for (mpi::RankId dst : dsts) {
    const MessageLog::Replay replay = log.entries_after(dst, -1);
    h.messages += replay.size();
    for (std::size_t i = 0; i < replay.size(); ++i) h.bytes += replay[i].bytes;
  }
  return h;
}

TEST(MessageLog, AppendAccumulates) {
  MessageLog log;
  log.append(msg(1, 100, 100, 1));
  log.append(msg(1, 50, 150, 2));
  log.append(msg(2, 10, 10, 1));
  EXPECT_EQ(held(log, {1, 2}).bytes, 160);
  EXPECT_EQ(held(log, {1, 2}).messages, 3u);
  EXPECT_EQ(held(log, {1}).messages, 2u);
  EXPECT_EQ(held(log, {2}).messages, 1u);
  EXPECT_EQ(held(log, {3}).messages, 0u);
}

TEST(MessageLog, GcDropsPrefixOnly) {
  MessageLog log;
  log.append(msg(1, 100, 100, 1));
  log.append(msg(1, 100, 200, 2));
  log.append(msg(1, 100, 300, 3));
  EXPECT_EQ(log.gc(1, 200), 2u);  // entries with cum <= 200
  EXPECT_EQ(held(log, {1}).messages, 1u);
  EXPECT_EQ(held(log, {1}).bytes, 100);
  // GC below the remaining entry drops nothing.
  EXPECT_EQ(log.gc(1, 250), 0u);
  EXPECT_EQ(log.gc(1, 300), 1u);
  EXPECT_EQ(held(log, {1}).messages, 0u);
}

TEST(MessageLog, GcUnknownPeerIsNoop) {
  MessageLog log;
  EXPECT_EQ(log.gc(9, 1000), 0u);
}

TEST(MessageLog, EntriesAfterReturnsReplaySet) {
  MessageLog log;
  for (int i = 1; i <= 5; ++i) {
    log.append(msg(1, 100, 100 * i, static_cast<std::uint64_t>(i)));
  }
  const auto replay = log.entries_after(1, 250);
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_EQ(replay[0].cum_bytes, 300);
  EXPECT_EQ(replay[2].cum_bytes, 500);
  EXPECT_TRUE(log.entries_after(1, 500).empty());
  EXPECT_EQ(log.entries_after(1, 0).size(), 5u);
  EXPECT_TRUE(log.entries_after(7, 0).empty());
}

/// Checks that `log` replays towards `dst`, in order, exactly the messages
/// of `sent` towards `dst` with cum_bytes above `after`, equal in every
/// field Runtime::replay_send reads, and still unmarked as replays.
void expect_replay(const MessageLog& log, mpi::RankId dst, std::int64_t after,
                   const std::vector<mpi::Message>& sent) {
  std::vector<mpi::Message> want;
  for (const mpi::Message& m : sent) {
    if (m.dst == dst && m.cum_bytes > after) want.push_back(m);
  }
  const MessageLog::Replay got = log.entries_after(dst, after);
  ASSERT_EQ(got.size(), want.size()) << "towards " << dst;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const mpi::Message m = got[i];
    EXPECT_EQ(m.src, want[i].src);
    EXPECT_EQ(m.dst, want[i].dst);
    EXPECT_EQ(m.tag, want[i].tag);
    EXPECT_EQ(m.bytes, want[i].bytes);
    EXPECT_EQ(m.seq, want[i].seq);
    EXPECT_EQ(m.cum_bytes, want[i].cum_bytes);
    EXPECT_EQ(m.checksum, want[i].checksum);
    EXPECT_FALSE(m.is_ctrl());
    EXPECT_FALSE(m.is_replay);
    EXPECT_EQ(m.piggyback_rr, -1);
  }
}

TEST(MessageLog, ReplayRebuildsEveryFieldReplaySendReads) {
  // Rank 3 interleaves sends towards 1 and 5; every send differs from the
  // others in tag, bytes, seq, cum_bytes and checksum, and the checksum is
  // not message_checksum's, so only a log that kept it can return it.
  MessageLog log;
  std::vector<mpi::Message> sent;
  std::int64_t cum[6] = {};
  std::uint64_t seq[6] = {};
  const auto send = [&](mpi::RankId dst, int i) {
    mpi::Message m;
    m.src = 3;
    m.dst = dst;
    m.tag = 10 + i;
    m.bytes = 64 * (i + 1);
    cum[dst] += m.bytes;
    m.cum_bytes = cum[dst];
    m.seq = ++seq[dst];
    m.checksum = 0xC0FFEE00u + static_cast<std::uint64_t>(i) * 7;
    log.append(m);
    sent.push_back(m);
  };
  for (int i = 0; i < 9; ++i) send(i % 3 == 0 ? 5 : 1, i);
  for (mpi::RankId dst : {1, 5}) {
    expect_replay(log, dst, -1, sent);
    expect_replay(log, dst, cum[dst] / 2, sent);
  }

  // A checkpoint's copy keeps replaying what it held after the live log
  // has GC'd both destinations and appended more.
  const MessageLog snapshot = log;
  const std::vector<mpi::Message> at_snapshot = sent;
  const std::int64_t rr1 = sent[4].cum_bytes;  // towards 1
  const std::int64_t rr5 = sent[3].cum_bytes;  // towards 5
  log.gc(1, rr1);
  log.gc(5, rr5);
  for (int i = 9; i < 13; ++i) send(i % 2 == 0 ? 5 : 1, i);
  for (mpi::RankId dst : {1, 5}) expect_replay(snapshot, dst, -1, at_snapshot);
  std::vector<mpi::Message> live;
  for (const mpi::Message& m : sent) {
    if (m.cum_bytes > (m.dst == 1 ? rr1 : rr5)) live.push_back(m);
  }
  for (mpi::RankId dst : {1, 5}) expect_replay(log, dst, -1, live);
}

TEST(MessageLog, ReplayAfterGcStillCoversUncoveredRange) {
  // Invariant: GC is driven by the receiver's RR (volume covered by its
  // checkpoint), so entries_after(R) with R >= RR never hits a GC'd hole.
  MessageLog log;
  for (int i = 1; i <= 10; ++i) {
    log.append(msg(1, 10, 10 * i, static_cast<std::uint64_t>(i)));
  }
  log.gc(1, 40);  // receiver checkpointed at RR=40
  for (std::int64_t r = 40; r <= 100; r += 10) {
    const auto replay = log.entries_after(1, r);
    EXPECT_EQ(replay.size(), static_cast<std::size_t>((100 - r) / 10));
    if (!replay.empty()) {
      EXPECT_EQ(replay[0].cum_bytes, r + 10);
    }
  }
}

TEST(MessageLog, FlushTracking) {
  MessageLog log;
  log.append(msg(1, 100, 100, 1));
  EXPECT_EQ(log.unflushed_bytes(), 100);
  log.mark_flushed();
  EXPECT_EQ(log.unflushed_bytes(), 0);
  log.append(msg(1, 30, 130, 2));
  EXPECT_EQ(log.unflushed_bytes(), 30);
  EXPECT_EQ(held(log, {1}).bytes, 130);  // flush does not drop entries
}

TEST(MessageLog, CopySemanticsForSnapshot) {
  MessageLog log;
  log.append(msg(1, 100, 100, 1));
  MessageLog snapshot = log;  // checkpoint copy
  log.append(msg(1, 100, 200, 2));
  EXPECT_EQ(held(snapshot, {1}).messages, 1u);
  EXPECT_EQ(held(log, {1}).messages, 2u);
}

TEST(MessageLog, ClearResetsEverything) {
  MessageLog log;
  log.append(msg(1, 100, 100, 1));
  log.clear();
  EXPECT_EQ(held(log, {1}).bytes, 0);
  EXPECT_EQ(held(log, {1}).messages, 0u);
  EXPECT_EQ(log.unflushed_bytes(), 0);
}

TEST(MessageLogDeathTest, NonMonotonicCumAborts) {
  MessageLog log;
  log.append(msg(1, 100, 100, 1));
  EXPECT_DEATH(log.append(msg(1, 100, 50, 2)), "cumulative");
}

TEST(MessageLogDeathTest, AppendRefusesWhatReplayCannotRebuild) {
  MessageLog log;
  mpi::Message from_driver = msg(1, 100, 100, 1);
  from_driver.src = mpi::kExternalSource;
  EXPECT_DEATH(log.append(from_driver), "one rank");
  log.append(msg(1, 100, 100, 1));  // the log's source is now rank 0

  mpi::Message second_source = msg(1, 100, 200, 2);
  second_source.src = 4;
  EXPECT_DEATH(log.append(second_source), "one rank");

  mpi::Message ctrl = msg(1, 100, 200, 2);
  ctrl.ctrl = mpi::CtrlKind::kBookmark;
  EXPECT_DEATH(log.append(ctrl), "original app-plane");

  mpi::Message replayed = msg(1, 100, 200, 2);
  replayed.is_replay = true;
  EXPECT_DEATH(log.append(replayed), "original app-plane");

  mpi::Message piggybacked = msg(1, 100, 200, 2);
  piggybacked.piggyback_rr = 50;
  EXPECT_DEATH(log.append(piggybacked), "original app-plane");
}

}  // namespace
}  // namespace gcr::core
