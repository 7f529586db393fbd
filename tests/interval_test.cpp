// Checkpoint-interval planning (Young/Daly), the expected-waste model,
// per-group schedules, and random failure injection.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/simple.hpp"
#include "core/interval.hpp"
#include "exp/experiment.hpp"
#include "group/strategies.hpp"
#include "sim/node_events.hpp"

namespace gcr::core {
namespace {

/// A trace fault model with exponential arrivals of mean mtbf_s[g] on group
/// g's first rank (0 = group g never fails), drawn from a per-group
/// substream of `cfg.seed` until one arrival past `cfg.max_sim_s`.
sim::FaultModelParams flaky_groups(const exp::ExperimentConfig& cfg,
                                   const std::vector<double>& mtbf_s) {
  sim::FaultModelParams faults;
  faults.kind = sim::FaultModelKind::kTrace;
  for (std::size_t g = 0; g < mtbf_s.size(); ++g) {
    if (mtbf_s[g] <= 0) continue;
    Rng rng(mix_seed(cfg.seed, 0xFA11 + g));
    const int node = cfg.groups->members(static_cast<int>(g)).front();
    for (sim::Time t = 0; t <= sim::from_seconds(cfg.max_sim_s);) {
      t += sim::from_seconds(rng.next_exponential(mtbf_s[g]));
      faults.schedule.push_back({sim::to_seconds(t), node});
    }
  }
  return faults;
}

TEST(Interval, YoungFormula) {
  EXPECT_DOUBLE_EQ(young_interval(2.0, 3600.0), std::sqrt(2 * 2.0 * 3600.0));
  EXPECT_DOUBLE_EQ(young_interval(0.0, 100.0), 0.0);
}

TEST(Interval, YoungGrowsWithCostAndMtbf) {
  EXPECT_LT(young_interval(1.0, 1000.0), young_interval(4.0, 1000.0));
  EXPECT_LT(young_interval(1.0, 1000.0), young_interval(1.0, 4000.0));
  // Quadrupling the C*M product doubles T.
  EXPECT_NEAR(young_interval(2.0, 2000.0), 2 * young_interval(1.0, 1000.0),
              1e-9);
}

TEST(Interval, DalyCloseToYoungForSmallCost) {
  const double c = 1.0, m = 36000.0;
  EXPECT_NEAR(daly_interval(c, m), young_interval(c, m),
              0.05 * young_interval(c, m));
}

TEST(Interval, DalyFallsBackToMtbfForHugeCost) {
  EXPECT_DOUBLE_EQ(daly_interval(600.0, 1000.0), 1000.0);
}

TEST(Interval, WasteMinimizedNearYoung) {
  const double c = 2.0, r = 5.0, m = 3600.0;
  const double t_opt = young_interval(c, m);
  const double w_opt = expected_waste_fraction(t_opt, c, r, m);
  EXPECT_LT(w_opt, expected_waste_fraction(t_opt / 4, c, r, m));
  EXPECT_LT(w_opt, expected_waste_fraction(t_opt * 4, c, r, m));
}

TEST(Interval, WasteIsCappedAtOne) {
  EXPECT_DOUBLE_EQ(expected_waste_fraction(1.0, 100.0, 1000.0, 1.0), 1.0);
}

TEST(Interval, MeasuredCostsPerGroup) {
  group::GroupSet groups = group::make_round_robin(4, 2);
  Metrics m;
  CkptRecord rec;
  rec.rank = 0;  // group 0
  rec.phases.checkpoint = 2.0;
  m.ckpts.push_back(rec);
  rec.rank = 1;  // group 1
  rec.phases.checkpoint = 4.0;
  m.ckpts.push_back(rec);
  rec.rank = 2;  // group 0
  rec.phases.checkpoint = 6.0;
  m.ckpts.push_back(rec);
  const auto cost = measured_group_ckpt_cost(m, groups);
  ASSERT_EQ(cost.size(), 2u);
  EXPECT_DOUBLE_EQ(cost[0], 4.0);  // (2+6)/2
  EXPECT_DOUBLE_EQ(cost[1], 4.0);  // single record
}

TEST(Interval, MissingGroupFallsBackToGlobalMean) {
  group::GroupSet groups = group::make_round_robin(4, 2);
  Metrics m;
  CkptRecord rec;
  rec.rank = 0;
  rec.phases.checkpoint = 3.0;
  m.ckpts.push_back(rec);
  const auto cost = measured_group_ckpt_cost(m, groups);
  EXPECT_DOUBLE_EQ(cost[1], 3.0);  // group 1 has no records
}

TEST(Interval, PlanGivesFlakyGroupsShorterIntervals) {
  const std::vector<double> cost{1.0, 1.0, 1.0};
  const std::vector<GroupReliability> rel{{36000.0}, {3600.0}, {360.0}};
  const GroupIntervalPlan plan = plan_group_intervals(cost, rel);
  ASSERT_EQ(plan.interval_s.size(), 3u);
  EXPECT_GT(plan.interval_s[0], plan.interval_s[1]);
  EXPECT_GT(plan.interval_s[1], plan.interval_s[2]);
  // The uniform schedule must cope with the combined failure rate, so it is
  // shorter than the most reliable group's own interval.
  EXPECT_LT(plan.uniform_interval_s, plan.interval_s[0]);
}

exp::AppFactory ring_app(std::uint64_t iters) {
  return [iters](int n) {
    apps::RingParams p;
    p.iterations = iters;
    p.compute_s = 0.012;
    return apps::make_ring(n, p);
  };
}

TEST(Interval, PerGroupSchedulesFireAtDifferentRates) {
  exp::ExperimentConfig cfg;
  cfg.app = ring_app(60);
  cfg.nranks = 6;
  cfg.groups = group::make_round_robin(6, 3);
  cfg.jitter = false;
  // Group 0 checkpoints 4x as often as group 2; group 1 opts out.
  cfg.per_group_intervals = {0.1, 0.0, 0.4};
  exp::ExperimentResult res = exp::run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  int per_group[3] = {0, 0, 0};
  for (const auto& rec : res.metrics.ckpts) {
    ++per_group[rec.rank % 3];
  }
  EXPECT_GT(per_group[0], per_group[2]);
  EXPECT_EQ(per_group[1], 0);
  EXPECT_GT(per_group[2], 0);
}

TEST(Interval, RandomFailuresAreDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    exp::ExperimentConfig cfg;
    cfg.app = ring_app(50);
    cfg.nranks = 6;
    cfg.seed = seed;
    cfg.groups = group::make_round_robin(6, 3);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 0.1;
    cfg.schedule.interval_s = 0.2;
    cfg.fault_model = flaky_groups(cfg, {1.5, 0.0, 0.0});  // only group 0
    cfg.recovery.detect_s = 0.1;
    cfg.recovery.relaunch_s = 0.1;
    return exp::run_experiment(cfg);
  };
  exp::ExperimentResult a = run(3);
  exp::ExperimentResult b = run(3);
  ASSERT_TRUE(a.finished);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_DOUBLE_EQ(a.exec_time_s, b.exec_time_s);
  // Only group 0's ranks ever restarted.
  for (const auto& r : a.metrics.restarts) {
    EXPECT_EQ(r.rank % 3, 0);
  }
}

TEST(Interval, FlakyGroupSurvivesRandomStorm) {
  exp::ExperimentConfig cfg;
  cfg.app = ring_app(80);
  cfg.nranks = 8;
  cfg.seed = 7;
  cfg.groups = group::make_round_robin(8, 4);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.schedule.interval_s = 0.15;
  cfg.fault_model = flaky_groups(cfg, {1.0, 2.0, 0.0, 0.0});
  cfg.recovery.detect_s = 0.1;
  cfg.recovery.relaunch_s = 0.1;
  exp::ExperimentResult res = exp::run_experiment(cfg);
  EXPECT_TRUE(res.finished);
  EXPECT_GT(res.failures_injected, 0);
}

}  // namespace
}  // namespace gcr::core
