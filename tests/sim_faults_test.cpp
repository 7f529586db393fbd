// Unit tests for the pluggable node-event models (sim/node_events.hpp):
// stream determinism, nondecreasing event order, distribution sanity, burst
// adjacency, drain/reclaim-rejoin pairing, and the fault trace reader.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "sim/node_events.hpp"
#include "util/rng.hpp"

namespace gcr::sim {
namespace {

std::function<Rng(std::uint64_t)> rng_factory(std::uint64_t seed) {
  return [seed](std::uint64_t stream) { return Rng(mix_seed(seed, stream)); };
}

std::vector<NodeEvent> draw(NodeEventModel& model, int count) {
  std::vector<NodeEvent> events;
  for (int i = 0; i < count; ++i) {
    auto ev = model.next();
    if (!ev.has_value()) break;
    events.push_back(*ev);
  }
  return events;
}

TEST(FaultModels, EventsAreDeterministicAndNondecreasing) {
  using Maker = std::function<std::unique_ptr<NodeEventModel>()>;
  std::vector<std::pair<std::string, Maker>> makers;
  for (FaultModelKind kind :
       {FaultModelKind::kExponential, FaultModelKind::kWeibull,
        FaultModelKind::kBurst}) {
    FaultModelParams params;
    params.kind = kind;
    params.mtbf_s = 50.0;
    params.burst_mtbf_s = 50.0;
    makers.emplace_back(fault_model_name(kind),
                        [params] { return make_fault_model(params); });
  }
  ChurnModelParams churn;
  churn.drain_mtbd_s = 5.0;
  churn.outage_s = 7.0;
  churn.warning_s = 3.0;
  for (ChurnModelKind kind : {ChurnModelKind::kDrains, ChurnModelKind::kSpot}) {
    churn.kind = kind;
    makers.emplace_back(churn_model_name(kind),
                        [churn] { return make_churn_model(churn); });
  }
  for (const auto& [name, make] : makers) {
    auto a = make();
    auto b = make();
    a->bind(8, rng_factory(7));
    b->bind(8, rng_factory(7));
    const auto ea = draw(*a, 200);
    const auto eb = draw(*b, 200);
    ASSERT_EQ(ea.size(), 200u) << name;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].at_s, eb[i].at_s) << name;
      EXPECT_EQ(ea[i].node, eb[i].node) << name;
      EXPECT_EQ(ea[i].kind, eb[i].kind) << name;
      EXPECT_EQ(ea[i].warning_s, eb[i].warning_s) << name;
      if (i > 0) {
        EXPECT_GE(ea[i].at_s, ea[i - 1].at_s) << name;
      }
    }
    // A different seed gives a different history.
    auto c = make();
    c->bind(8, rng_factory(8));
    EXPECT_NE(draw(*c, 200).front().at_s, ea.front().at_s) << name;

    if (name == "exp" || name == "weibull" || name == "burst") {
      for (const NodeEvent& ev : ea) EXPECT_EQ(ev.kind, NodeEventKind::kFault);
      continue;
    }
    // Churn: every departure at t on node n is followed by exactly one join
    // on n at t + outage_s (drains) or t + warning_s + outage_s (spot), and
    // every join answers one earlier departure. Joins due past the last
    // drawn event may not have been drawn yet.
    const bool spot = name == "spot";
    std::multiset<std::pair<double, int>> due;  // (join time, node)
    int departures = 0;
    for (const NodeEvent& ev : ea) {
      if (ev.kind == NodeEventKind::kJoin) {
        const auto it = due.find({ev.at_s, ev.node});
        ASSERT_NE(it, due.end()) << name << ": unmatched join at " << ev.at_s;
        due.erase(it);
        continue;
      }
      ++departures;
      EXPECT_EQ(ev.kind,
                spot ? NodeEventKind::kReclaim : NodeEventKind::kDrain);
      EXPECT_EQ(ev.warning_s, spot ? churn.warning_s : 0.0);
      const double down_at = spot ? ev.at_s + churn.warning_s : ev.at_s;
      due.insert({down_at + churn.outage_s, ev.node});
    }
    EXPECT_GT(departures, 50) << name;
    for (const auto& [at_s, node] : due) {
      EXPECT_GE(at_s, ea.back().at_s) << name << ": join never came";
    }
  }
}

TEST(FaultModels, WeibullShapeOneMatchesExponentialBitForBit) {
  FaultModelParams exp_p;
  exp_p.kind = FaultModelKind::kExponential;
  exp_p.mtbf_s = 120.0;
  FaultModelParams wei_p;
  wei_p.kind = FaultModelKind::kWeibull;
  wei_p.mtbf_s = 120.0;
  wei_p.weibull_shape = 1.0;
  auto e = make_fault_model(exp_p);
  auto w = make_fault_model(wei_p);
  e->bind(4, rng_factory(42));
  w->bind(4, rng_factory(42));
  const auto ee = draw(*e, 100);
  const auto ww = draw(*w, 100);
  for (std::size_t i = 0; i < ee.size(); ++i) {
    EXPECT_EQ(ee[i].at_s, ww[i].at_s);
    EXPECT_EQ(ee[i].node, ww[i].node);
  }
}

TEST(FaultModels, ExponentialMeanIsRoughlyMtbf) {
  FaultModelParams params;
  params.kind = FaultModelKind::kExponential;
  params.mtbf_s = 100.0;
  auto m = make_fault_model(params);
  const int nodes = 4;
  m->bind(nodes, rng_factory(3));
  // Per-node renewal with mean 100 => cluster rate nodes/100; over N events
  // the last timestamp is ~ N * 100 / nodes.
  const auto events = draw(*m, 4000);
  const double horizon = events.back().at_s;
  EXPECT_NEAR(horizon, 4000.0 * 100.0 / nodes, 0.1 * 4000.0 * 100.0 / nodes);
  // All nodes participate.
  std::map<int, int> per_node;
  for (const auto& ev : events) ++per_node[ev.node];
  EXPECT_EQ(per_node.size(), static_cast<std::size_t>(nodes));
}

TEST(FaultModels, BurstKillsAdjacentNodesWithinSpread) {
  FaultModelParams params;
  params.kind = FaultModelKind::kBurst;
  params.burst_mtbf_s = 100.0;
  params.burst_max_nodes = 4;
  params.burst_spread_s = 0.5;
  auto m = make_fault_model(params);
  m->bind(16, rng_factory(11));
  const auto events = draw(*m, 400);
  // Group events into bursts by time gaps larger than the spread window.
  bool saw_multi_node_burst = false;
  std::vector<NodeEvent> burst;
  auto check_burst = [&] {
    if (burst.size() < 2) return;
    saw_multi_node_burst = true;
    int lo = burst.front().node, hi = lo;
    for (const auto& ev : burst) {
      lo = std::min(lo, ev.node);
      hi = std::max(hi, ev.node);
      EXPECT_LE(ev.at_s - burst.front().at_s, params.burst_spread_s + 1e-12);
    }
    EXPECT_LT(hi - lo, params.burst_max_nodes);  // adjacent run
  };
  for (const auto& ev : events) {
    if (!burst.empty() &&
        ev.at_s - burst.front().at_s > params.burst_spread_s) {
      check_burst();
      burst.clear();
    }
    burst.push_back(ev);
  }
  EXPECT_TRUE(saw_multi_node_burst);
  for (const auto& ev : events) {
    EXPECT_GE(ev.node, 0);
    EXPECT_LT(ev.node, 16);
  }
}

TEST(FaultModels, TraceParsesSortsAndClampsToMachine) {
  std::istringstream in(
      "# failure log\n"
      "12.5 3\n"
      "\n"
      "2.0 1   # early bird\n"
      "2.0 9\n"
      "7.25 0\n");
  auto schedule = parse_fault_trace(in);
  ASSERT_EQ(schedule.size(), 4u);

  FaultModelParams params;
  params.kind = FaultModelKind::kTrace;
  params.schedule = schedule;
  auto m = make_fault_model(params);
  m->bind(4, rng_factory(1));  // node 9 is outside the machine: dropped
  const auto events = draw(*m, 10);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at_s, 2.0);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_EQ(events[1].at_s, 7.25);
  EXPECT_EQ(events[1].node, 0);
  EXPECT_EQ(events[2].at_s, 12.5);
  EXPECT_EQ(events[2].node, 3);
  EXPECT_FALSE(m->next().has_value());  // exhausts
}

TEST(FaultModels, TraceFileReplaysLikeInlineSchedule) {
  const std::string text =
      "# failure log\n"
      "12.5 3\n"
      "2.0 1   # early bird\n"
      "2.0 9\n"
      "7.25 0\n";
  const std::string path = testing::TempDir() + "gcr_fault_trace_test.txt";
  {
    std::ofstream out(path);
    out << text;
  }
  std::istringstream in(text);
  FaultModelParams inline_params;
  inline_params.kind = FaultModelKind::kTrace;
  inline_params.schedule = parse_fault_trace(in);
  FaultModelParams file_params;
  file_params.kind = FaultModelKind::kTrace;
  file_params.trace_path = path;
  auto from_inline = make_fault_model(inline_params);
  auto from_file = make_fault_model(file_params);
  std::remove(path.c_str());
  from_inline->bind(4, rng_factory(1));
  from_file->bind(4, rng_factory(1));
  const auto expected = draw(*from_inline, 10);
  const auto replayed = draw(*from_file, 10);
  ASSERT_EQ(expected.size(), 3u);
  ASSERT_EQ(replayed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replayed[i].at_s, expected[i].at_s);
    EXPECT_EQ(replayed[i].node, expected[i].node);
    EXPECT_EQ(replayed[i].kind, NodeEventKind::kFault);
  }
}

TEST(FaultModels, NoneKindMakesNoModel) {
  EXPECT_EQ(make_fault_model(FaultModelParams{}), nullptr);
  EXPECT_EQ(make_churn_model(ChurnModelParams{}), nullptr);
}

TEST(FaultModelsDeathTest, TraceAbortsOnMalformedLine) {
  // A typo'd line must abort, not be silently dropped — a dropped event
  // would make the run use a different fault history than the file says.
  EXPECT_DEATH(
      {
        std::istringstream in("O12.5 3\n");
        parse_fault_trace(in);
      },
      "fault trace line 1");
  EXPECT_DEATH(
      {
        std::istringstream in("7.5 2\n3.0 1 extra\n");
        parse_fault_trace(in);
      },
      "fault trace line 2");
}

TEST(FaultModelsDeathTest, TraceFileMustExist) {
  FaultModelParams params;
  params.kind = FaultModelKind::kTrace;
  params.trace_path = testing::TempDir() + "gcr_no_such_fault_trace.txt";
  EXPECT_DEATH((void)make_fault_model(params), "cannot open fault trace");
}

TEST(FaultModelsDeathTest, ScheduleHoldsOnlyItsModelsKinds) {
  // The fault and churn models share one event record; neither accepts the
  // other's events, and a fault takes no warning.
  FaultModelParams faults;
  faults.kind = FaultModelKind::kTrace;
  faults.schedule = {{1.0, 0}, {2.0, 1, NodeEventKind::kDrain}};
  EXPECT_DEATH((void)make_fault_model(faults), "holds a churn event");
  faults.schedule = {{1.0, 0}, {2.0, 1, NodeEventKind::kFault, 5.0}};
  EXPECT_DEATH((void)make_fault_model(faults), "or a warning");
  ChurnModelParams churn;
  churn.kind = ChurnModelKind::kTrace;
  churn.schedule = {{1.0, 0, NodeEventKind::kDrain}, {2.0, 0}};
  EXPECT_DEATH((void)make_churn_model(churn), "holds a fault event");
}

}  // namespace
}  // namespace gcr::sim
