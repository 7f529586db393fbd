// MiniMPI runtime: p2p matching, FIFO invariants, volume accounting,
// snapshot/restore, and kill behavior during communication.
#include <gtest/gtest.h>

#include <vector>

#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"

namespace gcr::mpi {
namespace {

using sim::operator""_s;

sim::Co<void> second_recv(Runtime* rt, Rank* rank) {
  (void)co_await rt->recv(*rank, 0, 1);
}

sim::ClusterParams cluster_params(int nranks) {
  sim::ClusterParams p;
  p.num_nodes = nranks + 1;
  p.jitter.enabled = false;
  return p;
}

struct Fixture {
  explicit Fixture(int nranks)
      : cluster(cluster_params(nranks)), rt(cluster, nranks) {}
  sim::Cluster cluster;
  Runtime rt;
};

/// A protocol that only records what reaches its delivery hook, and when;
/// it never delays or suppresses a send.
struct RecordingInterposer final : Interposer {
  struct Delivery {
    RankId rank;
    Message msg;
    sim::Time at;
  };
  sim::Co<bool> before_send(Rank& rank, Message& msg) override {
    (void)rank;
    (void)msg;
    co_return true;
  }
  void on_deliver(Rank& rank, const Message& msg) override {
    seen.push_back({rank.id(), msg, rank.engine().now()});
  }
  sim::Co<void> at_safepoint(Rank& rank) override {
    (void)rank;
    co_return;
  }
  void rank_started(Rank& rank) override { (void)rank; }
  std::vector<Delivery> seen;
};

TEST(Runtime, PingPongVolumesAndSeqs) {
  Fixture f(2);
  f.rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 0) {
      co_await h.send(1, 5, 1000);
      Message m = co_await h.recv(1, 6);
      EXPECT_EQ(m.bytes, 2000);
      EXPECT_EQ(m.seq, 1u);
    } else {
      Message m = co_await h.recv(0, 5);
      EXPECT_EQ(m.bytes, 1000);
      co_await h.send(0, 6, 2000);
    }
    co_await h.safepoint(1);
  });
  f.cluster.engine().run();
  ASSERT_TRUE(f.rt.job_finished());
  EXPECT_EQ(f.rt.rank(0).sent_to(1).bytes, 1000);
  EXPECT_EQ(f.rt.rank(0).recvd_from(1).bytes, 2000);
  EXPECT_EQ(f.rt.rank(1).sent_to(0).count, 1u);
  EXPECT_EQ(f.rt.app_messages_sent(), 2);
  EXPECT_EQ(f.rt.app_bytes_sent(), 3000);
}

TEST(Runtime, TagsMatchedViaSeqOrder) {
  // Sender sends tag A then tag B; receiver consumes in the same order.
  Fixture f(2);
  std::vector<int> tags;
  f.rt.start_app([&tags](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 0) {
      co_await h.send(1, 1, 10);
      co_await h.send(1, 2, 20);
    } else {
      tags.push_back((co_await h.recv(0, 1)).tag);
      tags.push_back((co_await h.recv(0, 2)).tag);
    }
    co_await h.safepoint(1);
  });
  f.cluster.engine().run();
  EXPECT_EQ(tags, (std::vector<int>{1, 2}));
}

TEST(Runtime, AnyTagMatches) {
  Fixture f(2);
  int got_tag = -1;
  f.rt.start_app([&got_tag](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 0) {
      co_await h.send(1, 77, 10);
    } else {
      got_tag = (co_await h.recv(0, kAnyTag)).tag;
    }
    co_await h.safepoint(1);
  });
  f.cluster.engine().run();
  EXPECT_EQ(got_tag, 77);
}

TEST(Runtime, SendrecvPairwiseExchangeNoDeadlock) {
  Fixture f(2);
  f.rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    const RankId peer = 1 - h.id();
    for (int i = 0; i < 20; ++i) {
      Message m = co_await h.sendrecv(peer, 3, 500000, peer, 3);
      EXPECT_EQ(m.bytes, 500000);
    }
    co_await h.safepoint(1);
  });
  f.cluster.engine().run();
  EXPECT_TRUE(f.rt.job_finished());
}

TEST(Runtime, EarlyArrivalsBufferUntilMatched) {
  Fixture f(2);
  f.rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 0) {
      for (int i = 0; i < 5; ++i) co_await h.send(1, 9, 100);
    } else {
      co_await h.compute(0.5);  // messages pile up in pending
      EXPECT_GE(h.rank().pending_count(), 0u);
      for (int i = 0; i < 5; ++i) {
        Message m = co_await h.recv(0, 9);
        EXPECT_EQ(m.seq, static_cast<std::uint64_t>(i + 1));
      }
    }
    co_await h.safepoint(1);
  });
  f.cluster.engine().run();
  EXPECT_TRUE(f.rt.job_finished());
}

TEST(Runtime, ComputeAdvancesClock) {
  Fixture f(1);
  f.rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    co_await h.compute(2.5);
    co_await h.safepoint(1);
  });
  f.cluster.engine().run();
  EXPECT_DOUBLE_EQ(sim::to_seconds(f.cluster.engine().now()), 2.5);
}

TEST(Runtime, SnapshotCapturesCountersAndPending) {
  Fixture f(2);
  RankSnapshot snap;
  f.rt.start_app([&](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 0) {
      co_await h.send(1, 1, 100);
      co_await h.send(1, 1, 200);
    } else {
      (void)co_await h.recv(0, 1);
      co_await h.compute(0.2);  // second message arrives, stays pending
      snap = f.rt.snapshot_rank(h.rank());
      (void)co_await h.recv(0, 1);
    }
    co_await h.safepoint(1);
  });
  f.cluster.engine().run();
  EXPECT_EQ(snap.recvd[0].bytes, 300);   // both delivered
  EXPECT_EQ(snap.consumed[0], 1u);       // one consumed
  ASSERT_EQ(snap.pending.size(), 1u);
  EXPECT_EQ(snap.pending.front().bytes, 200);
}

TEST(Runtime, KillDuringRecvUnblocksCleanly) {
  Fixture f(2);
  f.rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 1) {
      (void)co_await h.recv(0, 1);  // never satisfied
      ADD_FAILURE() << "rank 1 should have been killed";
    }
    co_await h.safepoint(1);
  });
  f.cluster.engine().call_at(1_s, [&] { f.rt.kill_rank(f.rt.rank(1)); });
  f.cluster.engine().run();
  EXPECT_FALSE(f.rt.rank(1).alive());
  EXPECT_FALSE(f.rt.job_finished());
}

// A 1000-byte message from rank 0 to a receive posted at t = 0 arrives at
// 185.12 us: 20 us send overhead, then 10 us per message plus 1064 wire
// bytes at 12.5 MB/s on the NIC, then 70 us latency. The receive returns
// 15 us later, its receive overhead.
constexpr sim::Time kArrival = 185'120;
constexpr sim::Time kRecvReturn = kArrival + 15'000;

TEST(Runtime, BlockedRecvWakesOnceAfterTheOverhead) {
  Fixture f(2);
  sim::Time returned = -1;
  f.rt.start_app([&](AppHandle h) -> sim::Co<void> {
    if (h.id() == 0) {
      co_await h.send(1, 1, 1000);
    } else {
      (void)co_await h.recv(0, 1);
      returned = f.cluster.engine().now();
    }
  });
  // Two process starts, the send overhead, the sender's egress wait, the
  // delivery and one wake: the delivery arms the wake itself, with no
  // resume at the arrival instant in between.
  EXPECT_EQ(f.cluster.engine().run(), 6u);
  EXPECT_EQ(returned, kRecvReturn);
}

TEST(Runtime, BufferedRecvPaysTheOverheadOnce) {
  Fixture f(2);
  sim::Time returned = -1;
  f.rt.start_app([&](AppHandle h) -> sim::Co<void> {
    if (h.id() == 0) {
      co_await h.send(1, 1, 1000);
    } else {
      co_await h.compute(1.0);  // the message is buffered by then
      EXPECT_EQ(h.rank().pending_count(), 1u);
      (void)co_await h.recv(0, 1);
      returned = f.cluster.engine().now();
    }
  });
  // Two process starts, the send overhead, the egress wait, the delivery,
  // the compute and the receive's wake.
  EXPECT_EQ(f.cluster.engine().run(), 7u);
  EXPECT_EQ(returned, 1'000'015'000);
  EXPECT_EQ(f.rt.rank(1).pending_count(), 0u);
}

struct ConsumeCounter final : Observer {
  void on_consume(const Rank& rank, const Message& msg) override {
    (void)rank;
    (void)msg;
    ++consumes;
  }
  int consumes = 0;
};

// Between the match and the wake the message belongs to the receive alone:
// it has left the buffer, and nothing is consumed yet. A kill in that
// window unwinds the rank with nothing consumed, and the armed wake,
// dispatched later, resumes nothing, not even the respawned incarnation.
TEST(Runtime, KillBetweenMatchAndWakeUnwinds) {
  Fixture f(2);
  ConsumeCounter counter;
  f.rt.add_observer(&counter);
  int rank1_starts = 0;
  int rank1_returns = 0;
  f.rt.start_app([&](AppHandle h) -> sim::Co<void> {
    if (h.id() == 0) {
      co_await h.send(1, 1, 1000);
    } else {
      ++rank1_starts;
      (void)co_await h.recv(0, 1);  // the respawned one is never satisfied
      ++rank1_returns;
    }
  });
  sim::Engine& eng = f.cluster.engine();
  Rank& r1 = f.rt.rank(1);
  eng.call_at(kArrival + 5'000, [&] {
    EXPECT_EQ(r1.recvd_from(0).count, 1u);  // delivered and matched,
    EXPECT_EQ(r1.pending_count(), 0u);      // not buffered
    f.rt.kill_rank(r1);
  });
  RankSnapshot snap;
  std::size_t live_after_kill = 99;
  eng.call_at(kArrival + 10'000, [&] {
    live_after_kill = eng.live_process_count();
    snap = f.rt.snapshot_rank(r1);
    f.rt.begin_restart(r1);
    f.rt.respawn_rank(r1);
    r1.resume_gate().fire();
  });
  eng.run();
  EXPECT_EQ(live_after_kill, 0u);  // rank 0 finished, rank 1 unwound
  EXPECT_EQ(snap.consumed[0], 0u);
  EXPECT_EQ(counter.consumes, 0);
  EXPECT_EQ(rank1_starts, 2);
  EXPECT_EQ(rank1_returns, 0);
  // The stale wake was the last event, and the respawned receive is still
  // blocked.
  EXPECT_EQ(eng.now(), kRecvReturn);
  EXPECT_EQ(eng.live_process_count(), 1u);
  EXPECT_EQ(r1.incarnation(), 1u);
}

TEST(Runtime, StaleIncarnationTrafficDropped) {
  // Messages sent to incarnation 0, app or control, must not reach
  // incarnation 1 (nor its protocol).
  Fixture f(2);
  RecordingInterposer proto;
  f.rt.set_protocol(&proto);
  f.rt.start_app([&f](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 0) {
      Message bookmark;
      bookmark.ctrl = CtrlKind::kBookmark;
      bookmark.ctrl_data = {1, 100};
      f.rt.send_ctrl(0, 1, bookmark);  // both in flight when rank 1 dies
      co_await h.send(1, 1, 100);
    }
    co_await h.safepoint(1);
  });
  // Kill rank 1 immediately so the messages are in flight across the bump.
  f.cluster.engine().post([&] { f.rt.kill_rank(f.rt.rank(1)); });
  f.cluster.engine().call_at(1_s, [&] {
    f.rt.begin_restart(f.rt.rank(1));
    f.rt.respawn_rank(f.rt.rank(1));
    f.rt.rank(1).resume_gate().fire();
  });
  f.cluster.engine().run();
  EXPECT_EQ(f.rt.rank(1).recvd_from(0).bytes, 0);
  EXPECT_EQ(f.rt.rank(1).pending_count(), 0u);
  EXPECT_TRUE(proto.seen.empty());
}

TEST(Runtime, BeginRestartResetsState) {
  Fixture f(2);
  f.rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 0) co_await h.send(1, 1, 100);
    if (h.id() == 1) (void)co_await h.recv(0, 1);
    co_await h.safepoint(1);
  });
  f.cluster.engine().run();
  Rank& r1 = f.rt.rank(1);
  f.rt.kill_rank(r1);
  f.cluster.engine().run();
  const std::uint32_t inc_before = r1.incarnation();
  f.rt.begin_restart(r1);
  EXPECT_EQ(r1.incarnation(), inc_before + 1);
  EXPECT_EQ(r1.recvd_from(0).bytes, 0);
  EXPECT_FALSE(r1.finished());
  EXPECT_EQ(r1.iteration(), 0u);
}

TEST(Runtime, RestoreRankReinstallsSnapshot) {
  Fixture f(2);
  RankSnapshot snap;
  snap.iteration = 7;
  snap.sent.resize(2);
  snap.recvd.resize(2);
  snap.consumed.resize(2);
  snap.sent[0].bytes = 123;
  snap.recvd[0].bytes = 45;
  snap.consumed[0] = 2;
  Message pend;
  pend.src = 0;
  pend.dst = 1;
  pend.bytes = 9;
  snap.pending.push_back(pend);

  Rank& r1 = f.rt.rank(1);
  f.rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
  });
  f.cluster.engine().run();
  f.rt.kill_rank(r1);
  f.cluster.engine().run();
  f.rt.begin_restart(r1);
  f.rt.restore_rank(r1, snap);
  EXPECT_EQ(r1.start_iteration(), 7u);
  EXPECT_EQ(r1.sent_to(0).bytes, 123);
  EXPECT_EQ(r1.recvd_from(0).bytes, 45);
  EXPECT_EQ(r1.pending_count(), 1u);
}

TEST(Runtime, TwoValueCtrlPayloadArrivesIntact) {
  Fixture f(2);
  RecordingInterposer proto;
  f.rt.set_protocol(&proto);
  const std::int64_t before = f.cluster.network().total_bytes();
  Message bookmark;
  bookmark.ctrl = CtrlKind::kBookmark;
  bookmark.ctrl_data = {7, -1234567890123};
  f.rt.send_ctrl(0, 1, bookmark);
  // Modeled size: 8 sync bytes + 8 per value, plus the 64-byte wire header.
  EXPECT_EQ(f.cluster.network().total_bytes() - before, 8 + 2 * 8 + 64);
  f.cluster.engine().run();
  ASSERT_EQ(proto.seen.size(), 1u);  // rank 0 receives nothing
  EXPECT_EQ(proto.seen.front().rank, 1);
  const Message& got = proto.seen.front().msg;
  EXPECT_EQ(got.ctrl, CtrlKind::kBookmark);
  EXPECT_EQ(got.src, 0);
  EXPECT_EQ(got.bytes, 8 + 2 * 8);
  ASSERT_EQ(got.ctrl_data.size(), 2u);
  EXPECT_EQ(got.ctrl_data.at(0), 7);
  EXPECT_EQ(got.ctrl_data.at(1), -1234567890123);
}

// A control message reaches the protocol inside its delivery callback, the
// one event it costs, at 87.04 us: 10 us per message plus 88 wire bytes
// (8 sync, 16 payload, 64 header) at 12.5 MB/s on the NIC, then 70 us
// latency. It moves no R counter.
TEST(Runtime, CtrlMessageReachesTheProtocolAtArrival) {
  Fixture f(2);
  RecordingInterposer proto;
  f.rt.set_protocol(&proto);
  Message bookmark;
  bookmark.ctrl = CtrlKind::kBookmark;
  bookmark.ctrl_data = {3, 4096};
  f.rt.send_ctrl(0, 1, bookmark);
  EXPECT_EQ(f.cluster.engine().run(), 1u);
  ASSERT_EQ(proto.seen.size(), 1u);
  EXPECT_EQ(proto.seen[0].rank, 1);
  EXPECT_EQ(proto.seen[0].at, 87'040);
  EXPECT_EQ(proto.seen[0].msg.ctrl, CtrlKind::kBookmark);
  EXPECT_EQ(proto.seen[0].msg.ctrl_data.at(1), 4096);
  EXPECT_EQ(f.rt.rank(1).recvd_from(0).count, 0u);
}

TEST(CtrlDataDeathTest, ThreeValuesExceedTheCapacity) {
  Message m;
  EXPECT_DEATH((m.ctrl_data = {1, 2, 3}), "at most two values");
}

TEST(CtrlDataDeathTest, IndexPastTheSizeDies) {
  Message m;
  m.ctrl_data = {1, 2};
  EXPECT_DEATH((void)m.ctrl_data.at(2), "index out of range");
  m.ctrl_data = {1};
  EXPECT_DEATH((void)m.ctrl_data.at(1), "index out of range");
}

TEST(RuntimeDeathTest, TwoOutstandingRecvsForbidden) {
  // The runtime supports exactly one blocking recv per rank; protocol code
  // must never recv concurrently with the app. Simulated via direct call.
  Fixture f(2);
  f.rt.start_app([&](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 1) {
      // Spawn a second coroutine on the same rank doing a recv.
      f.cluster.engine().spawn(second_recv(&f.rt, &h.rank()));
      (void)co_await h.recv(0, 2);
    }
    co_await h.safepoint(1);
  });
  EXPECT_DEATH(f.cluster.engine().run(), "one outstanding");
}

// sendrecv builds its message through send's checks: an out-of-range
// destination or a negative size aborts instead of indexing the rank
// tables unchecked.
TEST(RuntimeDeathTest, SendrecvChecksDestinationAndSize) {
  auto exchange = [](RankId dst, std::int64_t bytes) {
    Fixture f(2);
    f.rt.start_app([dst, bytes](AppHandle h) -> sim::Co<void> {
      if (h.id() == 0) (void)co_await h.sendrecv(dst, 1, bytes, 1, 1);
    });
    f.cluster.engine().run();
  };
  EXPECT_DEATH(exchange(2, 8), "dst >= 0 && dst < nranks");
  EXPECT_DEATH(exchange(-1, 8), "dst >= 0 && dst < nranks");
  EXPECT_DEATH(exchange(1, -1), "bytes >= 0");
}

// Rank ids handed in by callers are checked in every build, not used to
// index the rank table unchecked.
TEST(RuntimeDeathTest, RankLookupChecksTheId) {
  Fixture f(2);
  EXPECT_DEATH((void)f.rt.rank(-1), "rank id outside the run");
  EXPECT_DEATH((void)f.rt.rank(2), "rank id outside the run");
}

TEST(RuntimeDeathTest, RankVolumeLookupsCheckThePeer) {
  Fixture f(2);
  const Rank& rank = f.rt.rank(0);
  EXPECT_DEATH((void)rank.sent_to(2), "peer rank id outside the run");
  EXPECT_DEATH((void)rank.recvd_from(-1), "peer rank id outside the run");
  EXPECT_DEATH((void)rank.recvd_prefix_bytes(kExternalSource),
               "peer rank id outside the run");
}

TEST(RuntimeDeathTest, SendCtrlChecksTheDestination) {
  Fixture f(2);
  Message m;
  m.ctrl = CtrlKind::kBookmark;
  EXPECT_DEATH(f.rt.send_ctrl(0, 2, m), "rank id outside the run");
}

}  // namespace
}  // namespace gcr::mpi
