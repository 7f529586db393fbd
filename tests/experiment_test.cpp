// End-to-end harness tests: whole-stack runs under every protocol/grouping,
// determinism, failure recovery, and the paper's restart experiment.
#include <gtest/gtest.h>

#include "apps/hpl.hpp"
#include "apps/simple.hpp"
#include "exp/experiment.hpp"
#include "group/strategies.hpp"

namespace gcr::exp {
namespace {

AppFactory ring_app(std::uint64_t iters = 30) {
  return [iters](int n) {
    apps::RingParams p;
    p.iterations = iters;
    p.compute_s = 0.02;
    return apps::make_ring(n, p);
  };
}

AppFactory stencil_app(int cluster_width, std::uint64_t iters = 40) {
  return [cluster_width, iters](int n) {
    apps::Stencil1dParams p;
    p.iterations = iters;
    p.cluster_width = cluster_width;
    p.compute_s = 0.015;
    return apps::make_stencil1d(n, p);
  };
}

TEST(Experiment, RingRunsToCompletionWithoutCheckpoints) {
  ExperimentConfig cfg;
  cfg.app = ring_app();
  cfg.nranks = 8;
  cfg.groups = group::make_norm(8);
  ExperimentResult res = run_experiment(cfg);
  EXPECT_TRUE(res.finished);
  EXPECT_GT(res.exec_time_s, 0.5);  // 30 iters x 20ms compute
  EXPECT_GT(res.app_messages, 0);
  EXPECT_EQ(res.checkpoints_completed, 0);
}

TEST(Experiment, DeterministicAcrossRuns) {
  auto run = [] {
    ExperimentConfig cfg;
    cfg.app = ring_app();
    cfg.nranks = 8;
    cfg.groups = group::make_round_robin(8, 2);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 0.1;
    cfg.schedule.interval_s = 0.2;
    return run_experiment(cfg);
  };
  ExperimentResult a = run();
  ExperimentResult b = run();
  EXPECT_DOUBLE_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.app_messages, b.app_messages);
  EXPECT_EQ(a.metrics.logged_bytes, b.metrics.logged_bytes);
  EXPECT_EQ(a.checkpoints_completed, b.checkpoints_completed);
}

TEST(Experiment, SeedChangesJitterButFinishes) {
  auto run = [](std::uint64_t seed) {
    ExperimentConfig cfg;
    cfg.app = ring_app();
    cfg.nranks = 8;
    cfg.seed = seed;
    cfg.groups = group::make_norm(8);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 0.1;
    return run_experiment(cfg);
  };
  ExperimentResult a = run(1);
  ExperimentResult b = run(99);
  EXPECT_TRUE(a.finished);
  EXPECT_TRUE(b.finished);
  EXPECT_NE(a.exec_time_s, b.exec_time_s);  // jitter differs
}

class GroupingParamTest : public ::testing::TestWithParam<int> {};

// One checkpoint under every grouping completes and produces one image per
// rank, regardless of group shape (NORM, GP4-ish, GP1).
TEST_P(GroupingParamTest, OneCheckpointCompletesUnderAnyGrouping) {
  const int ngroups = GetParam();
  const int n = 12;
  ExperimentConfig cfg;
  cfg.app = ring_app();
  cfg.nranks = n;
  cfg.groups = group::make_round_robin(n, ngroups);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;  // one-shot
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.checkpoints_completed, 1);
  EXPECT_EQ(res.metrics.ckpts.size(), static_cast<std::size_t>(n));
  // Inter-group logging only: with one group nothing is logged.
  if (ngroups == 1) {
    EXPECT_EQ(res.metrics.logged_bytes, 0);
  } else {
    EXPECT_GT(res.metrics.logged_bytes, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Groupings, GroupingParamTest,
                         ::testing::Values(1, 2, 3, 4, 6, 12));

TEST(Experiment, FailureWithoutCheckpointRestartsFromScratch) {
  ExperimentConfig cfg;
  cfg.app = ring_app(25);
  cfg.nranks = 6;
  cfg.groups = group::make_round_robin(6, 3);
  cfg.failures = {{1, 0.2}};
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.failures_injected, 1);
  // Restarted ranks re-ran from iteration 0 and everything still completed
  // with per-pair FIFO verification enabled (no loss/dup/reorder).
  EXPECT_EQ(res.metrics.restarts.size(), 2u);  // group of 2
}

TEST(Experiment, FailureAfterCheckpointRestartsFromImage) {
  ExperimentConfig cfg;
  cfg.app = ring_app(25);
  cfg.nranks = 6;
  cfg.groups = group::make_round_robin(6, 3);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.failures = {{1, 0.35}};
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.failures_injected, 1);
  EXPECT_GE(res.checkpoints_completed, 1);
  ASSERT_EQ(res.metrics.restarts.size(), 2u);
  for (const auto& r : res.metrics.restarts) {
    EXPECT_GT(r.image_read_s, 0.0);
  }
}

TEST(Experiment, ClusteredStencilSurvivesEveryGroupFailingInTurn) {
  // Groups match the app's natural blocks; fail each group once.
  const int n = 8;
  ExperimentConfig cfg;
  cfg.app = stencil_app(/*cluster_width=*/4, /*iters=*/60);
  cfg.nranks = n;
  cfg.groups = group::make_blocks(n, 4);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.schedule.interval_s = 0.3;
  cfg.failures = {{0, 0.25}, {1, 0.8}};
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.failures_injected, 2);
}

// A routed fabric, drain-mode tiered storage, tracing and two group
// failures in one run: a rerun reproduces every output and the trace.
TEST(Experiment, FaultedRoutedTieredRunIsDeterministic) {
  auto run = [] {
    ExperimentConfig cfg;
    cfg.app = stencil_app(/*cluster_width=*/4, /*iters=*/60);
    cfg.nranks = 16;
    cfg.groups = group::make_blocks(16, 4);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 0.1;
    cfg.schedule.interval_s = 0.3;
    cfg.failures = {{0, 0.25}, {2, 0.8}};
    cfg.topology.kind = sim::TopologyKind::kFatTree;
    cfg.storage.mode = ckpt::StorageMode::kDrain;
    cfg.collect_trace = true;
    return run_experiment(cfg);
  };
  const ExperimentResult a = run();
  const ExperimentResult b = run();
  ASSERT_TRUE(a.finished);
  EXPECT_EQ(a.failures_injected, 2);
  EXPECT_EQ(a.recoveries_completed, 2);
  EXPECT_GT(a.tier_stats.images_staged, 0);
  EXPECT_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.app_messages, b.app_messages);
  EXPECT_EQ(a.metrics.aggregate_ckpt_time_s(),
            b.metrics.aggregate_ckpt_time_s());
  EXPECT_EQ(a.metrics.aggregate_restart_time_s(),
            b.metrics.aggregate_restart_time_s());
  EXPECT_EQ(a.tier_stats.reads_bb, b.tier_stats.reads_bb);
  ASSERT_FALSE(a.trace.empty());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i].time, b.trace[i].time) << "record " << i;
    ASSERT_EQ(a.trace[i].rank, b.trace[i].rank) << "record " << i;
    ASSERT_EQ(a.trace[i].kind, b.trace[i].kind) << "record " << i;
  }
  // Records come out in (time, rank) order.
  for (std::size_t i = 1; i < a.trace.size(); ++i) {
    const trace::TraceRecord& p = a.trace[i - 1];
    const trace::TraceRecord& q = a.trace[i];
    ASSERT_TRUE(p.time < q.time || (p.time == q.time && p.rank <= q.rank))
        << "record " << i;
  }
}

TEST(Experiment, ReportsOneEngineEventCount) {
  ExperimentConfig cfg;
  cfg.app = ring_app(10);
  cfg.nranks = 4;
  cfg.groups = group::make_norm(4);
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  ASSERT_EQ(res.shard_events.size(), 1u);
  EXPECT_GT(res.shard_events[0], 0u);
}

TEST(ExperimentDeathTest, RejectsMoreThanOneEngine) {
  ExperimentConfig cfg;
  cfg.app = ring_app(10);
  cfg.nranks = 4;
  cfg.groups = group::make_norm(4);
  cfg.shards = 2;
  EXPECT_DEATH(run_experiment(cfg), "one engine");
}

TEST(Experiment, WholeAppRestartMeasuresPreparation) {
  ExperimentConfig cfg;
  cfg.app = ring_app(20);
  cfg.nranks = 8;
  cfg.groups = group::make_round_robin(8, 4);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.restart_after_finish = true;
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.restart_records.size(), 8u);
  EXPECT_GT(res.restart_aggregate_s, 0.0);
}

TEST(Experiment, NormRestartIsCheapestNoResends) {
  auto run = [](int ngroups) {
    ExperimentConfig cfg;
    cfg.app = ring_app(20);
    cfg.nranks = 8;
    cfg.groups = group::make_round_robin(8, ngroups);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 0.1;
    cfg.restart_after_finish = true;
    return run_experiment(cfg);
  };
  ExperimentResult norm = run(1);
  ExperimentResult gp1 = run(8);
  // Global coordinated restart resends nothing (paper §5.1).
  EXPECT_EQ(norm.metrics.resend_bytes, 0);
  EXPECT_GT(gp1.metrics.resend_bytes, 0);
}

TEST(Experiment, ProfileProducesTraceAndGroups) {
  const trace::Trace trace = profile_app(ring_app(10), 6);
  EXPECT_FALSE(trace.empty());
  const group::GroupSet groups = derive_groups(stencil_app(3, 10), 6, 3);
  EXPECT_EQ(groups.nranks(), 6);
  // The stencil's disjoint 3-wide blocks are the obvious grouping.
  EXPECT_EQ(groups.num_groups(), 2);
  EXPECT_TRUE(groups.same_group(0, 2));
  EXPECT_FALSE(groups.same_group(2, 3));
}

}  // namespace
}  // namespace gcr::exp
