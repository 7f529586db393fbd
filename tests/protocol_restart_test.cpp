// Restart correctness: the runtime asserts the central invariant on every
// consume (per-pair seq continuity + checksums), so a finishing run IS the
// proof that replay/skip reconstructed the exact failure-free delivery
// sequence. These tests exercise the restart paths and the quantities the
// paper reports (resend data/ops, restart phases).
#include <gtest/gtest.h>

#include "apps/simple.hpp"
#include "exp/experiment.hpp"
#include "group/strategies.hpp"
#include "mpi/runtime.hpp"

namespace gcr::exp {
namespace {

AppFactory ring_app(std::uint64_t iters, double compute_s = 0.015) {
  return [iters, compute_s](int n) {
    apps::RingParams p;
    p.iterations = iters;
    p.compute_s = compute_s;
    p.bytes = 32 * 1024;
    return apps::make_ring(n, p);
  };
}

AppFactory pairs_app(std::uint64_t iters) {
  return [iters](int n) {
    apps::RandomPairsParams p;
    p.iterations = iters;
    return apps::make_random_pairs(n, p);
  };
}

TEST(Restart, WholeAppRestartHasRecordPerRank) {
  ExperimentConfig cfg;
  cfg.app = ring_app(25);
  cfg.nranks = 9;
  cfg.groups = group::make_round_robin(9, 3);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.restart_after_finish = true;
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  ASSERT_EQ(res.restart_records.size(), 9u);
  for (const auto& r : res.restart_records) {
    EXPECT_GT(r.end, r.begin);
    EXPECT_GT(r.image_read_s, 0.0);
    EXPECT_GE(r.exchange_s, 0.0);
  }
}

TEST(Restart, ExchangeCountMatchesOutOfGroupPeers) {
  // NORM: no out-of-group peers, so restart has no exchange resends at all
  // and the exchange phase is just the group barrier.
  ExperimentConfig cfg;
  cfg.app = ring_app(20);
  cfg.nranks = 8;
  cfg.groups = group::make_norm(8);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.restart_after_finish = true;
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.metrics.resend_ops, 0);
  EXPECT_EQ(res.metrics.resend_messages, 0);
}

TEST(Restart, Gp1ResendsMoreThanGroupedRestart) {
  // Cut skew is randomized per group per seed; compare totals over seeds.
  auto run_total = [](int ngroups) {
    std::int64_t total_bytes = 0;
    std::int64_t total_ops = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ExperimentConfig cfg;
      cfg.app = ring_app(40);
      cfg.nranks = 12;
      cfg.seed = seed;
      cfg.groups = ngroups == 12 ? group::make_gp1(12)
                                 : group::make_blocks(12, 12 / ngroups);
      cfg.checkpoints = true;
      cfg.schedule.first_at_s = 0.1;
      cfg.restart_after_finish = true;
      ExperimentResult res = run_experiment(cfg);
      EXPECT_TRUE(res.finished);
      total_bytes += res.metrics.resend_bytes;
      total_ops += res.metrics.resend_ops;
    }
    return std::pair<std::int64_t, std::int64_t>(total_bytes, total_ops);
  };
  const auto [gp1_bytes, gp1_ops] = run_total(12);
  const auto [blk_bytes, blk_ops] = run_total(3);  // blocks of 4
  EXPECT_GT(gp1_ops, 0);
  // GP1 logs every ring edge (12 directed cross edges); blocks of 4 log only
  // the 3 block-boundary edges, so GP1's replay dominates in aggregate.
  EXPECT_GE(gp1_bytes, blk_bytes);
  EXPECT_GE(gp1_ops, blk_ops);
}

TEST(Restart, MixedEpochCutsReconcile) {
  // Different groups checkpoint at different times (periodic + skew); a
  // whole-app restart from mixed-epoch images must still satisfy the seq
  // invariant (verified by the runtime) and complete.
  ExperimentConfig cfg;
  cfg.app = pairs_app(50);  // unstructured traffic crosses all groups
  cfg.nranks = 10;
  cfg.groups = group::make_round_robin(10, 5);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.05;
  cfg.schedule.interval_s = 0.1;
  cfg.schedule.round_spread_s = 0.05;
  cfg.restart_after_finish = true;
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_GE(res.checkpoints_completed, 1);
  EXPECT_EQ(res.restart_records.size(), 10u);
}

TEST(Restart, RestartWithoutAnyCheckpointStartsFromScratch) {
  ExperimentConfig cfg;
  cfg.app = ring_app(15);
  cfg.nranks = 6;
  cfg.groups = group::make_round_robin(6, 2);
  cfg.checkpoints = false;  // no images exist
  cfg.restart_after_finish = true;
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  ASSERT_EQ(res.restart_records.size(), 6u);
  for (const auto& r : res.restart_records) {
    EXPECT_LT(r.image_read_s, 0.01);  // only relaunch handling, no image
  }
}

TEST(Restart, ResendOpsCountDirectedPairsWithData) {
  ExperimentConfig cfg;
  cfg.app = ring_app(40);
  cfg.nranks = 8;
  cfg.groups = group::make_gp1(8);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.restart_after_finish = true;
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  // Ring traffic: at most one outgoing neighbor per rank ever gets data, so
  // resend_ops is bounded by the directed edges of the ring.
  EXPECT_LE(res.metrics.resend_ops, 8);
  if (res.metrics.resend_ops > 0) {
    EXPECT_GT(res.metrics.resend_messages, 0);
    EXPECT_GT(res.metrics.resend_bytes, 0);
  }
}

TEST(Restart, DeterministicRestartMetrics) {
  auto run = [] {
    ExperimentConfig cfg;
    cfg.app = ring_app(30);
    cfg.nranks = 8;
    cfg.groups = group::make_round_robin(8, 4);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 0.1;
    cfg.restart_after_finish = true;
    return run_experiment(cfg);
  };
  ExperimentResult a = run();
  ExperimentResult b = run();
  EXPECT_DOUBLE_EQ(a.restart_aggregate_s, b.restart_aggregate_s);
  EXPECT_EQ(a.metrics.resend_bytes, b.metrics.resend_bytes);
  EXPECT_EQ(a.metrics.resend_ops, b.metrics.resend_ops);
}

// A control message's source indexes the protocol's per-peer state only
// through a checked lookup: an exchange reply from the driver, which is no
// rank, dies in every build instead of indexing out of bounds.
TEST(RestartDeathTest, ExchangeReplyFromOutsideTheRunDies) {
  constexpr int kRanks = 4;
  sim::ClusterParams cp;
  cp.num_nodes = kRanks + 1;
  sim::Cluster cluster(cp);
  mpi::Runtime rt(cluster, kRanks);
  const apps::AppSpec app = apps::make_ring(kRanks, apps::RingParams{});
  ckpt::Checkpointer checkpointer(cluster);
  ckpt::ImageRegistry registry;
  core::Metrics metrics;
  core::GroupProtocol protocol(rt, group::make_blocks(kRanks, 2), checkpointer,
                               registry, app.image_bytes, metrics);
  mpi::Message reply;
  reply.ctrl = mpi::CtrlKind::kExchangeReply;
  reply.src = mpi::kExternalSource;
  reply.dst = 0;
  reply.ctrl_data = {0};
  EXPECT_DEATH(protocol.on_deliver(rt.rank(0), reply),
               "control message source outside the run");
}

}  // namespace
}  // namespace gcr::exp
