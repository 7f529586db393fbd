// VCL (non-blocking Chandy-Lamport) protocol: send-block windows, markers,
// channel recording, and the blocking cascade the paper observes at scale.
#include <gtest/gtest.h>

#include "apps/cg.hpp"
#include "apps/simple.hpp"
#include "exp/experiment.hpp"
#include "trace/timeline.hpp"

namespace gcr::exp {
namespace {

AppFactory small_cg(int outer = 10) {
  return [outer](int n) {
    apps::CgParams p;
    p.outer_iters = outer;
    p.inner_steps = 5;
    p.na = 15000;
    return apps::make_cg(n, p);
  };
}

ExperimentConfig vcl_config(int nranks) {
  ExperimentConfig cfg;
  cfg.app = small_cg();
  cfg.nranks = nranks;
  cfg.protocol = ProtocolKind::kVcl;
  cfg.remote_storage = true;  // VCL stores on checkpoint servers
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.05;
  cfg.jitter = false;
  return cfg;
}

TEST(Vcl, RoundProducesRecordPerRank) {
  ExperimentConfig cfg = vcl_config(8);
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.checkpoints_completed, 1);
  ASSERT_EQ(res.metrics.ckpts.size(), 8u);
  for (const auto& rec : res.metrics.ckpts) {
    EXPECT_GT(rec.phases.checkpoint, 0.0);  // upload happened
    EXPECT_GT(rec.end, rec.begin);
  }
}

TEST(Vcl, PeriodicRoundsAccumulate) {
  ExperimentConfig cfg = vcl_config(4);
  cfg.app = small_cg(60);
  cfg.schedule.first_at_s = 0.2;
  cfg.schedule.interval_s = 0.5;
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_GE(res.checkpoints_completed, 2);
}

TEST(Vcl, AppKeepsReceivingDuringCheckpoint) {
  // Non-blocking: the run must finish even with a checkpoint mid-stream;
  // only sends are gated.
  ExperimentConfig cfg = vcl_config(8);
  ExperimentResult res = run_experiment(cfg);
  EXPECT_TRUE(res.finished);
}

TEST(Vcl, UploadContentionGrowsWithScale) {
  // 4 shared servers: per-checkpoint time grows with rank count (paper
  // Figure 14's VCL curve).
  auto mean_time = [](int n) {
    ExperimentConfig cfg = vcl_config(n);
    cfg.app = small_cg(40);
    ExperimentResult res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    return res.metrics.mean_ckpt_time_s();
  };
  const double t8 = mean_time(8);
  const double t32 = mean_time(32);
  EXPECT_GT(t32, 1.5 * t8);
}

TEST(Vcl, CheckpointShareOfExecutionGrowsWithScale) {
  // Figure 2's phenomenon quantified: with 4 fixed servers the upload wave
  // grows with scale, so checkpointing consumes a growing share of the
  // execution (the paper: >50% at 128 procs), and the windows are gappy.
  auto share_and_gap = [](int n) {
    ExperimentConfig cfg = vcl_config(n);
    cfg.app = small_cg(40);
    cfg.schedule.interval_s = 8.0;  // periodic, as in the paper (every 30 s)
    cfg.collect_trace = true;
    ExperimentResult res = run_experiment(cfg);
    EXPECT_TRUE(res.finished);
    double window_s = 0;
    for (const auto& rec : res.metrics.ckpts) {
      window_s += sim::to_seconds(rec.end - rec.begin);
    }
    const double share = window_s / (n * res.exec_time_s);
    const double gap =
        trace::gap_fraction(res.trace, res.metrics.ckpt_windows(), 20.0);
    return std::pair<double, double>(share, gap);
  };
  const auto [share8, gap8] = share_and_gap(8);
  const auto [share32, gap32] = share_and_gap(32);
  EXPECT_GT(share32, share8 * 1.3);
  EXPECT_GT(gap32, 0.5);  // large scale: windows are mostly gaps
  (void)gap8;
}

TEST(Vcl, ChannelRecordingCapturesInFlightTraffic) {
  ExperimentConfig cfg = vcl_config(16);
  cfg.app = small_cg(30);
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  // CG never stops sending, so some messages always land inside snapshots.
  // (Accessor exercised via the protocol's aggregate; see VclProtocol.)
  EXPECT_GE(res.metrics.ckpts.size(), 16u);
}

TEST(VclDeathTest, RestartRefused) {
  ExperimentConfig cfg = vcl_config(4);
  cfg.restart_after_finish = true;
  EXPECT_DEATH((void)run_experiment(cfg), "not supported");
  // Group-protocol-only settings are refused too, never silently ignored.
  cfg = vcl_config(4);
  cfg.fault_model.kind = sim::FaultModelKind::kExponential;
  EXPECT_DEATH((void)run_experiment(cfg), "not supported");
  cfg = vcl_config(4);
  cfg.per_group_intervals = {0.01};
  EXPECT_DEATH((void)run_experiment(cfg), "not supported");
  cfg = vcl_config(4);
  cfg.churn.kind = sim::ChurnModelKind::kDrains;
  EXPECT_DEATH((void)run_experiment(cfg), "not supported");
}

}  // namespace
}  // namespace gcr::exp
