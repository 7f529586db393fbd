// Campaign layer (DESIGN.md §12): scenario expansion, deterministic
// parallel execution, and watchdog surfacing.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/simple.hpp"
#include "exp/campaign.hpp"
#include "exp/scenario.hpp"
#include "group/strategies.hpp"
#include "util/table.hpp"

namespace {

using namespace gcr;

// A fast real sweep: tiny ring app, two process counts x two groupings,
// with a checkpoint early enough to exercise the protocol.
exp::Scenario tiny_scenario(int reps) {
  exp::Scenario sc;
  sc.name = "test/tiny";
  sc.axes = {exp::SweepAxis::ints("procs", {4, 6}),
             exp::SweepAxis::ints("mode", {0, 1})};
  sc.reps = reps;
  sc.config = [](const exp::SweepPoint& point) {
    apps::RingParams rp;
    rp.iterations = 30;
    rp.compute_s = 0.02;
    exp::ExperimentConfig cfg;
    cfg.app = [rp](int nr) { return apps::make_ring(nr, rp); };
    cfg.nranks = static_cast<int>(point.get_int("procs"));
    cfg.seed = point.seed;
    cfg.groups = point.get_int("mode") == 0 ? group::make_norm(cfg.nranks)
                                            : group::make_gp1(cfg.nranks);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 0.2;
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("exec", res.exec_time_s);
    col.add("bytes", static_cast<double>(res.app_bytes));
  };
  return sc;
}

// Renders every cell's aggregates at full precision; byte-equality of two
// renderings is the determinism contract the benches rely on.
std::string render(const exp::Scenario& sc, const exp::CampaignResult& camp) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t cell = 0; cell < camp.cells.size(); ++cell) {
    os << "cell " << cell << " runs=" << camp.cells[cell].runs
       << " unfinished=" << camp.cells[cell].unfinished_runs << "\n";
    for (const auto& [metric, stats] : camp.cells[cell].metrics) {
      os << "  " << metric << " n=" << stats.count() << " mean=" << stats.mean()
         << " min=" << stats.min() << " max=" << stats.max() << "\n";
    }
    for (const std::string& text : camp.cells[cell].texts) {
      os << "  text: " << text << "\n";
    }
  }
  os << "jobs=" << camp.jobs_run << " unfinished=" << camp.unfinished_runs
     << " name=" << sc.name << "\n";
  return os.str();
}

TEST(Scenario, ExpandsRowMajorWithSeedsInnermost) {
  exp::Scenario sc = tiny_scenario(/*reps=*/3);
  EXPECT_EQ(sc.num_cells(), 4u);
  EXPECT_EQ(sc.num_jobs(), 12u);

  const std::vector<exp::SweepPoint> jobs = sc.expand();
  ASSERT_EQ(jobs.size(), 12u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].job, i);
    EXPECT_EQ(jobs[i].cell, i / 3);
    EXPECT_EQ(jobs[i].seed, i % 3 + 1);  // seeds 1..reps innermost
  }
  // Row-major: axis 0 (procs) outermost, axis 1 (mode) fastest.
  EXPECT_EQ(jobs[0].get_int("procs"), 4);
  EXPECT_EQ(jobs[0].get_int("mode"), 0);
  EXPECT_EQ(jobs[3].get_int("procs"), 4);
  EXPECT_EQ(jobs[3].get_int("mode"), 1);
  EXPECT_EQ(jobs[6].get_int("procs"), 6);
  EXPECT_EQ(jobs[6].get_int("mode"), 0);

  EXPECT_EQ(sc.cell_index({0, 0}), 0u);
  EXPECT_EQ(sc.cell_index({0, 1}), 1u);
  EXPECT_EQ(sc.cell_index({1, 0}), 2u);
  EXPECT_EQ(sc.cell_index({1, 1}), 3u);
}

TEST(Scenario, NoAxesMeansOneCell) {
  exp::Scenario sc;
  sc.name = "test/single";
  sc.reps = 2;
  sc.job = [](const exp::SweepPoint& point, exp::Collector& col) {
    col.add("seed", static_cast<double>(point.seed));
  };
  EXPECT_EQ(sc.num_cells(), 1u);
  const exp::CampaignResult camp = exp::run_campaign(sc, {1});
  EXPECT_EQ(camp.stat(0, "seed").count(), 2u);
  EXPECT_EQ(camp.stat(0, "seed").mean(), 1.5);  // seeds 1 and 2
}

TEST(Campaign, ParallelAggregatesAreByteIdenticalToSerial) {
  const exp::Scenario sc = tiny_scenario(/*reps=*/3);
  const std::string serial = render(sc, exp::run_campaign(sc, {1}));
  const std::string parallel = render(sc, exp::run_campaign(sc, {4}));
  EXPECT_EQ(serial, parallel);
}

TEST(Campaign, OversubscribedPoolIsStillDeterministic) {
  const exp::Scenario sc = tiny_scenario(/*reps=*/2);  // 8 jobs
  const std::string serial = render(sc, exp::run_campaign(sc, {1}));
  const std::string oversubscribed = render(sc, exp::run_campaign(sc, {16}));
  EXPECT_EQ(serial, oversubscribed);
}

TEST(Campaign, WatchdogRunsAreCountedNotAveraged) {
  exp::Scenario sc = tiny_scenario(/*reps=*/2);
  // Mode 1's cells get an impossible deadline: every run trips the watchdog.
  auto base_config = sc.config;
  sc.config = [base_config](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg = base_config(point);
    if (point.get_int("mode") == 1) cfg.max_sim_s = 1e-6;
    return cfg;
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {2});

  // 2 procs values x 1 tripped mode x 2 reps.
  EXPECT_EQ(camp.unfinished_runs, 4);
  for (std::size_t procs_i = 0; procs_i < 2; ++procs_i) {
    const std::size_t ok = sc.cell_index({procs_i, 0});
    const std::size_t tripped = sc.cell_index({procs_i, 1});
    EXPECT_EQ(camp.cells[ok].unfinished_runs, 0);
    EXPECT_EQ(camp.stat(ok, "exec").count(), 2u);
    // Tripped runs contribute NO samples — their truncated exec time must
    // not be averaged into the figure.
    EXPECT_EQ(camp.cells[tripped].unfinished_runs, 2);
    EXPECT_EQ(camp.stat(tripped, "exec").count(), 0u);
    EXPECT_EQ(camp.cells[tripped].runs, 2);
  }
}

TEST(Campaign, TextsKeepJobOrder) {
  exp::Scenario sc;
  sc.name = "test/texts";
  sc.axes = {exp::SweepAxis::ints("x", {0, 1})};
  sc.reps = 3;
  sc.job = [](const exp::SweepPoint& point, exp::Collector& col) {
    col.add_text("job" + std::to_string(point.job));
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {4});
  ASSERT_EQ(camp.cells.size(), 2u);
  EXPECT_EQ(camp.cells[0].texts,
            (std::vector<std::string>{"job0", "job1", "job2"}));
  EXPECT_EQ(camp.cells[1].texts,
            (std::vector<std::string>{"job3", "job4", "job5"}));
}

TEST(Campaign, UnknownMetricIsEmptyStats) {
  const exp::Scenario sc = tiny_scenario(/*reps=*/1);
  const exp::CampaignResult camp = exp::run_campaign(sc, {1});
  EXPECT_EQ(camp.stat(0, "no-such-metric").count(), 0u);
  EXPECT_EQ(camp.stat(999, "exec").count(), 0u);  // out-of-range cell
}

}  // namespace
