// Tracer, trace IO round-trips, pair aggregation, and timeline rendering.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"
#include "trace/analysis.hpp"
#include "trace/io.hpp"
#include "trace/timeline.hpp"
#include "trace/tracer.hpp"

namespace gcr::trace {
namespace {

TraceRecord send_rec(sim::Time t, mpi::RankId src, mpi::RankId dst,
                     std::int64_t bytes) {
  return TraceRecord{t, EventKind::kSend, src, dst, 0, bytes};
}

TEST(Tracer, CapturesSendsFromLiveRun) {
  sim::ClusterParams cp;
  cp.num_nodes = 3;
  cp.jitter.enabled = false;
  sim::Cluster cluster(cp);
  mpi::Runtime rt(cluster, 2);
  Tracer tracer;
  Tracer sends_only(/*record_deliveries=*/false);
  rt.add_observer(&tracer);
  rt.add_observer(&sends_only);
  rt.start_app([](mpi::AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    if (h.id() == 0) {
      co_await h.send(1, 7, 4096);
    } else {
      (void)co_await h.recv(0, 7);
    }
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  int sends = 0, delivers = 0;
  for (const auto& r : tracer.records()) {
    if (r.kind == EventKind::kSend) ++sends;
    if (r.kind == EventKind::kDeliver) ++delivers;
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(delivers, 1);
  EXPECT_EQ(tracer.records().size(), 2u);  // the receive records nothing
  // The send-only tracer keeps the same send record and no delivery.
  const Trace s = sends_only.records();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].kind, EventKind::kSend);
  EXPECT_EQ(s[0].time, tracer.records()[0].time);
  EXPECT_EQ(s[0].peer, 1);
  EXPECT_EQ(s[0].bytes, 4096);
}

TEST(Tracer, RecordsComeBackInTimeRankAppendOrder) {
  sim::Engine engine;
  std::vector<std::unique_ptr<mpi::Rank>> ranks;
  for (int r = 0; r < 4; ++r) {
    ranks.push_back(std::make_unique<mpi::Rank>(engine, r, r, 4));
  }
  Tracer tracer;
  const auto at_instant = [&](std::int64_t bytes) {
    for (int r : {3, 1, 2}) {
      mpi::Message msg;
      msg.src = r;
      msg.dst = 0;
      msg.bytes = bytes;
      tracer.on_send(*ranks[static_cast<std::size_t>(r)], msg, true);
      tracer.on_deliver(*ranks[static_cast<std::size_t>(r)], msg);
    }
  };
  engine.call_at(sim::from_seconds(1.0), [&] { at_instant(10); });
  engine.call_at(sim::from_seconds(2.0), [&] { at_instant(20); });
  engine.run();

  const Trace got = tracer.records();
  ASSERT_EQ(got.size(), 12u);
  std::size_t i = 0;
  for (const auto& [t, bytes] : {std::pair{1.0, 10}, std::pair{2.0, 20}}) {
    for (mpi::RankId r : {1, 2, 3}) {
      for (EventKind kind : {EventKind::kSend, EventKind::kDeliver}) {
        EXPECT_EQ(got[i].time, sim::from_seconds(t)) << i;
        EXPECT_EQ(got[i].rank, r) << i;
        EXPECT_EQ(got[i].kind, kind) << i;
        EXPECT_EQ(got[i].bytes, bytes) << i;
        ++i;
      }
    }
  }
  EXPECT_EQ(tracer.take().size(), 12u);
  EXPECT_TRUE(tracer.records().empty());
}

TEST(TracerDeathTest, TimeGoingBackwardsIsRejected) {
  sim::Engine engine;
  mpi::Rank rank(engine, 0, 0, 1);
  Tracer tracer;
  mpi::Message msg;
  engine.call_at(sim::from_seconds(2.0), [&] { tracer.on_send(rank, msg, true); });
  engine.run();
  // Only a second engine (or a rewound clock) can produce this: the trace
  // must come from one simulation.
  sim::Engine other;
  mpi::Rank early(other, 0, 0, 1);
  tracer.on_send(early, msg, true);
  EXPECT_DEATH((void)tracer.records(), "out of time order");
}

TEST(TraceIo, RoundTripPreservesRecords) {
  Trace trace;
  trace.push_back(send_rec(1000, 0, 1, 512));
  trace.push_back(TraceRecord{2000, EventKind::kDeliver, 1, 0, 9, 512});
  std::stringstream ss;
  write_trace(ss, trace);
  const Trace back = read_trace(ss);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].time, trace[i].time);
    EXPECT_EQ(back[i].kind, trace[i].kind);
    EXPECT_EQ(back[i].rank, trace[i].rank);
    EXPECT_EQ(back[i].peer, trace[i].peer);
    EXPECT_EQ(back[i].tag, trace[i].tag);
    EXPECT_EQ(back[i].bytes, trace[i].bytes);
  }
}

TEST(TraceIo, SkipsMalformedLines) {
  // A `C` (consume) line, as older traces hold, is an unknown kind.
  std::stringstream ss(
      "# comment\ngarbage here\n100 S 0 1 2 300 7\n100 S 0 1 2 300\n"
      "200 C 1 0 2 300\n");
  const Trace t = read_trace(ss);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].bytes, 300);
}

TEST(Analysis, AggregatesUnorderedPairs) {
  Trace trace;
  trace.push_back(send_rec(0, 0, 1, 100));
  trace.push_back(send_rec(1, 1, 0, 50));   // same unordered pair
  trace.push_back(send_rec(2, 2, 3, 500));
  const auto pairs = aggregate_pairs(trace);
  ASSERT_EQ(pairs.size(), 2u);
  // Sorted by size desc: (2,3) first.
  EXPECT_EQ(pairs[0].a, 2);
  EXPECT_EQ(pairs[0].b, 3);
  EXPECT_EQ(pairs[0].bytes, 500);
  EXPECT_EQ(pairs[1].bytes, 150);
  EXPECT_EQ(pairs[1].count, 2u);
}

TEST(Analysis, SortBreaksTiesByCountThenPair) {
  Trace trace;
  trace.push_back(send_rec(0, 4, 5, 100));
  trace.push_back(send_rec(0, 0, 1, 50));
  trace.push_back(send_rec(0, 0, 1, 50));
  trace.push_back(send_rec(0, 2, 3, 100));
  const auto pairs = aggregate_pairs(trace);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].count, 2u);           // 100 bytes, 2 msgs wins
  EXPECT_EQ(pairs[1].a, 2);                // then pair order
  EXPECT_EQ(pairs[2].a, 4);
}

TEST(Analysis, SendTotals) {
  Trace trace;
  trace.push_back(send_rec(0, 0, 1, 100));
  trace.push_back(send_rec(1, 0, 1, 100));
  trace.push_back(send_rec(2, 1, 0, 70));
  EXPECT_EQ(total_send_bytes(trace), 270);
}

TEST(Timeline, RendersActivityAndCkptGlyphs) {
  Trace trace;
  trace.push_back(send_rec(sim::from_seconds(0.5), 0, 1, 10));
  trace.push_back(send_rec(sim::from_seconds(2.5), 0, 1, 10));
  std::vector<CkptWindow> windows{
      {0, sim::from_seconds(2.0), sim::from_seconds(4.0)}};
  TimelineOptions opts;
  opts.begin = 0;
  opts.end = sim::from_seconds(10.0);
  opts.columns = 10;
  opts.ranks = {0};
  const std::string art = render_timeline(trace, windows, opts);
  // Column 0 has activity; column 2 is ckpt+activity; column 3 is a gap.
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find('C'), std::string::npos);
  EXPECT_NE(art.find('-'), std::string::npos);
}

TEST(Timeline, GapFractionFullWhenIdle) {
  Trace trace;  // no activity at all
  std::vector<CkptWindow> windows{{0, 0, sim::from_seconds(1.0)}};
  EXPECT_DOUBLE_EQ(gap_fraction(trace, windows, 10.0), 1.0);
}

TEST(Timeline, GapFractionZeroWhenBusyEveryBin) {
  Trace trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back(send_rec(sim::from_seconds(0.01 * i), 0, 1, 10));
  }
  std::vector<CkptWindow> windows{{0, 0, sim::from_seconds(0.99)}};
  EXPECT_DOUBLE_EQ(gap_fraction(trace, windows, 10.0), 0.0);
}

TEST(Timeline, GapFractionPartial) {
  Trace trace;
  // Active only in the first half of a 2 s window.
  for (int i = 0; i < 10; ++i) {
    trace.push_back(send_rec(sim::from_seconds(0.1 * i), 0, 1, 10));
  }
  std::vector<CkptWindow> windows{{0, 0, sim::from_seconds(2.0)}};
  const double g = gap_fraction(trace, windows, 10.0);
  EXPECT_GT(g, 0.4);
  EXPECT_LT(g, 0.6);
}

}  // namespace
}  // namespace gcr::trace
