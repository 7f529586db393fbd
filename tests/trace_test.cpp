// Tracer, trace IO round-trips, pair aggregation, and timeline rendering.
#include <gtest/gtest.h>

#include <sstream>

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
  rt.add_observer(&tracer);
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
  int sends = 0, delivers = 0, consumes = 0;
  for (const auto& r : tracer.records()) {
    if (r.kind == EventKind::kSend) ++sends;
    if (r.kind == EventKind::kDeliver) ++delivers;
    if (r.kind == EventKind::kConsume) ++consumes;
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(delivers, 1);
  EXPECT_EQ(consumes, 1);
}

TEST(TraceIo, RoundTripPreservesRecords) {
  Trace trace;
  trace.push_back(send_rec(1000, 0, 1, 512));
  trace.push_back(TraceRecord{2000, EventKind::kDeliver, 1, 0, 9, 512});
  trace.push_back(TraceRecord{3000, EventKind::kConsume, 1, 0, 9, 512});
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
  std::stringstream ss("# comment\ngarbage here\n100 S 0 1 2 300\n");
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

TEST(Analysis, CommMatrixAndTotals) {
  Trace trace;
  trace.push_back(send_rec(0, 0, 1, 100));
  trace.push_back(send_rec(1, 0, 1, 100));
  trace.push_back(send_rec(2, 1, 0, 70));
  const auto m = comm_matrix(trace, 2);
  EXPECT_EQ(m[0][1], 200);
  EXPECT_EQ(m[1][0], 70);
  EXPECT_EQ(m[0][0], 0);
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
  EXPECT_DOUBLE_EQ(gap_fraction(trace, windows), 1.0);
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
