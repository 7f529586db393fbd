// Application skeletons: geometry, completion, determinism, memory models,
// and — crucially — that trace-driven formation discovers each app's natural
// structure (HPL's grid columns = the paper's Table 1).
#include <gtest/gtest.h>

#include "apps/cg.hpp"
#include "apps/hpl.hpp"
#include "apps/simple.hpp"
#include "apps/sp.hpp"
#include "exp/experiment.hpp"
#include "group/formation.hpp"
#include "group/strategies.hpp"

namespace gcr::apps {
namespace {

TEST(HplApp, GridChoosesLargestDivisorUpTo8) {
  EXPECT_EQ(hpl_grid(32, 8).p, 8);
  EXPECT_EQ(hpl_grid(32, 8).q, 4);
  EXPECT_EQ(hpl_grid(12, 8).p, 6);
  EXPECT_EQ(hpl_grid(12, 8).q, 2);
  EXPECT_EQ(hpl_grid(7, 8).p, 7);
  EXPECT_EQ(hpl_grid(7, 8).q, 1);
}

TEST(HplApp, GridMappingRowMajor) {
  HplGrid g{8, 4};
  EXPECT_EQ(g.row_of(0), 0);
  EXPECT_EQ(g.col_of(0), 0);
  EXPECT_EQ(g.col_of(5), 1);
  EXPECT_EQ(g.row_of(5), 1);
  EXPECT_EQ(g.at(1, 1), 5);
}

TEST(HplApp, MemoryModelScalesInverselyWithRanks) {
  HplParams p;
  AppSpec s16 = make_hpl(16, p);
  AppSpec s64 = make_hpl(64, p);
  const std::int64_t m16 = s16.image_bytes(0);
  const std::int64_t m64 = s64.image_bytes(0);
  EXPECT_GT(m16, m64);
  EXPECT_NEAR(static_cast<double>(m16 - kHplBaseMemBytes) /
                  static_cast<double>(m64 - kHplBaseMemBytes),
              4.0, 0.01);
}

TEST(HplApp, RunsToCompletionAndIsDeterministic) {
  auto run = [] {
    exp::ExperimentConfig cfg;
    HplParams p;
    p.n = 2400;  // small: 20 iterations
    cfg.app = [p](int n) { return make_hpl(n, p); };
    cfg.nranks = 8;
    cfg.groups = gcr::group::make_norm(8);
    cfg.jitter = false;
    return exp::run_experiment(cfg);
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.finished);
  EXPECT_DOUBLE_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.app_messages, b.app_messages);
}

TEST(HplApp, FormationDiscoversGridColumns) {
  // The paper's Table 1: HPL on 32 procs (8x4) groups into the 4 grid
  // columns {r : r mod 4 == c}, i.e. round-robin by Q.
  HplParams p;
  p.n = 4800;
  exp::AppFactory app = [p](int n) { return make_hpl(n, p); };
  gcr::group::GroupSet groups =
      exp::derive_groups(app, 32, /*max_group_size=*/8);
  EXPECT_EQ(groups, gcr::group::make_round_robin(32, 4));
}

TEST(HplApp, FormationTable1ExactRanks) {
  HplParams p;
  p.n = 4800;
  exp::AppFactory app = [p](int n) { return make_hpl(n, p); };
  gcr::group::GroupSet groups = exp::derive_groups(app, 32, 8);
  ASSERT_EQ(groups.num_groups(), 4);
  EXPECT_EQ(groups.members(0),
            (std::vector<mpi::RankId>{0, 4, 8, 12, 16, 20, 24, 28}));
  EXPECT_EQ(groups.members(1),
            (std::vector<mpi::RankId>{1, 5, 9, 13, 17, 21, 25, 29}));
}

TEST(CgApp, RequiresPowerOfTwo) {
  CgParams p;
  EXPECT_DEATH((void)make_cg(12, p), "power-of-two");
}

TEST(CgApp, RunsAcrossScalesAndTrafficIsContinuous) {
  for (int n : {4, 16}) {
    exp::ExperimentConfig cfg;
    CgParams p;
    p.outer_iters = 5;
    p.inner_steps = 4;
    p.na = 20000;
    cfg.app = [p](int nr) { return make_cg(nr, p); };
    cfg.nranks = n;
    cfg.groups = gcr::group::make_norm(n);
    cfg.jitter = false;
    cfg.collect_trace = true;
    auto res = exp::run_experiment(cfg);
    ASSERT_TRUE(res.finished);
    // Non-stop transfers: messages in every safepoint step.
    EXPECT_GT(res.app_messages, n * 5 * 4);
  }
}

TEST(SpApp, RequiresSquareCount) {
  SpParams p;
  EXPECT_DEATH((void)make_sp(8, p), "square");
}

TEST(SpApp, RunsOnSquareCounts) {
  for (int n : {4, 9, 16}) {
    exp::ExperimentConfig cfg;
    SpParams p;
    p.modeled_iters = 6;
    cfg.app = [p](int nr) { return make_sp(nr, p); };
    cfg.nranks = n;
    cfg.groups = gcr::group::make_norm(n);
    cfg.jitter = false;
    auto res = exp::run_experiment(cfg);
    ASSERT_TRUE(res.finished) << "n=" << n;
    EXPECT_GT(res.app_messages, 0);
  }
}

TEST(SpApp, FormationGroupsGridRows) {
  // X-direction traffic dominates, so rows of the process grid form groups.
  SpParams p;
  p.modeled_iters = 8;
  exp::AppFactory app = [p](int n) { return make_sp(n, p); };
  gcr::group::GroupSet groups = exp::derive_groups(app, 16, 4);
  EXPECT_EQ(groups.num_groups(), 4);
  EXPECT_TRUE(groups.same_group(0, 3));   // row 0
  EXPECT_FALSE(groups.same_group(3, 4));  // row boundary
}

TEST(SimpleApps, StencilClusterWidthConfinesTraffic) {
  exp::ExperimentConfig cfg;
  Stencil1dParams p;
  p.iterations = 10;
  p.cluster_width = 3;
  cfg.app = [p](int n) { return make_stencil1d(n, p); };
  cfg.nranks = 9;
  cfg.groups = gcr::group::make_blocks(9, 3);
  cfg.jitter = false;
  cfg.collect_trace = true;
  auto res = exp::run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  for (const auto& rec : res.trace) {
    if (rec.kind != trace::EventKind::kSend) continue;
    EXPECT_EQ(rec.rank / 3, rec.peer / 3) << "traffic crossed a block";
  }
  // Confined traffic means nothing is ever logged under block grouping.
  EXPECT_EQ(res.metrics.logged_messages, 0);
}

TEST(SimpleApps, RandomPairsIsDeterministicPerSeed) {
  auto run = [](std::uint64_t app_seed) {
    exp::ExperimentConfig cfg;
    RandomPairsParams p;
    p.iterations = 10;
    p.seed = app_seed;
    cfg.app = [p](int n) { return make_random_pairs(n, p); };
    cfg.nranks = 7;  // odd: one idle rank per iteration
    cfg.groups = gcr::group::make_norm(7);
    cfg.jitter = false;
    return exp::run_experiment(cfg);
  };
  auto a1 = run(1);
  auto a2 = run(1);
  auto b = run(2);
  ASSERT_TRUE(a1.finished);
  EXPECT_EQ(a1.app_messages, a2.app_messages);
  EXPECT_DOUBLE_EQ(a1.exec_time_s, a2.exec_time_s);
  ASSERT_TRUE(b.finished);
}

}  // namespace
}  // namespace gcr::apps
