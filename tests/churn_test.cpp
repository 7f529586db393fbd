// Elastic churn semantics (DESIGN.md §16): drains are not failures,
// reclaim warnings convert to checkpoint-on-warning exits, rolling
// upgrades visit every node exactly once, and rejoined nodes are admitted
// back into a group by the traffic-affinity planner.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/service.hpp"
#include "apps/simple.hpp"
#include "core/scheduler.hpp"
#include "exp/experiment.hpp"
#include "group/strategies.hpp"
#include "sim/node_events.hpp"

namespace gcr::exp {
namespace {

constexpr int kRanks = 8;

/// Continuous-load service app sized so churn completes well before the
/// request stream ends (~12 s of arrivals).
ExperimentConfig service_config(std::uint64_t seed = 1) {
  apps::ServiceParams sp;
  sp.requests = 240;
  sp.arrival_rate_hz = 20.0;
  sp.service_s = 0.005;
  sp.slo_s = 0.1;
  sp.mem_bytes = 8ll << 20;
  sp.seed = seed;
  ExperimentConfig cfg;
  cfg.app = [sp](int n) { return apps::make_service(n, sp); };
  cfg.nranks = kRanks;
  cfg.seed = seed;
  cfg.groups = group::make_norm(kRanks);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.5;
  cfg.schedule.interval_s = 1.5;
  cfg.schedule.round_spread_s = 0.1;
  cfg.recovery.detect_s = 0.2;
  cfg.recovery.relaunch_s = 0.2;
  cfg.churn_options.poll_s = 0.05;
  cfg.max_sim_s = 300.0;
  return cfg;
}

TEST(ChurnTest, DrainIsNotAFailureAndRejoinsThroughMerge) {
  ExperimentConfig cfg = service_config();
  cfg.churn.kind = sim::ChurnModelKind::kTrace;
  cfg.churn.schedule = {
      {2.0, 3, sim::NodeEventKind::kDrain, 0.0},
      {5.0, 3, sim::NodeEventKind::kJoin, 0.0},
  };
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  // A planned drain is not a failure; nothing enters the recovery books.
  EXPECT_EQ(res.failures_injected, 0);
  EXPECT_EQ(res.recoveries_completed, 0);
  EXPECT_EQ(res.recoveries_aborted, 0);
  EXPECT_EQ(res.drains_completed, 1);
  // NORM: the departing rank is split out of the global group first...
  EXPECT_EQ(res.splits_installed, 1);
  // ...and after the rejoin the planner merges it back (service traffic
  // links every rank), restoring the single global group.
  EXPECT_EQ(res.joins_completed, 1);
  EXPECT_EQ(res.merges_installed, 1);
  EXPECT_EQ(res.final_num_groups, 1);
  // The outage (departure -> rejoin completion) is charged to availability.
  EXPECT_LT(res.availability, 1.0);
  EXPECT_GT(res.availability, 0.5);
  // The open-loop stream still completed every request.
  ASSERT_TRUE(res.service.has_value());
  EXPECT_EQ(res.service->completed, res.service->requests);
}

TEST(ChurnTest, ReclaimWarningTriggersCheckpointBeforeKill) {
  ExperimentConfig cfg = service_config();
  // No periodic schedule: the ONLY way an image can exist is the
  // checkpoint-on-warning the reclaim path demands before the kill.
  cfg.checkpoints = false;
  cfg.churn.kind = sim::ChurnModelKind::kTrace;
  cfg.churn.schedule = {
      {2.0, 5, sim::NodeEventKind::kReclaim, 5.0},
      {9.0, 5, sim::NodeEventKind::kJoin, 0.0},
  };
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.reclaims_clean, 1);
  EXPECT_EQ(res.reclaims_forced, 0);
  EXPECT_EQ(res.failures_injected, 0);
  // The warning window produced a committed checkpoint before the node
  // was taken.
  EXPECT_GE(res.checkpoints_completed, 1);
  EXPECT_EQ(res.joins_completed, 1);
}

TEST(ChurnTest, ExpiredReclaimWarningForcesGroupFailure) {
  ExperimentConfig cfg = service_config();
  cfg.churn.kind = sim::ChurnModelKind::kTrace;
  // 1 ms of notice cannot fit quiescence + commit: the node is lost and
  // the whole group fails through the ordinary failure path.
  cfg.churn.schedule = {
      {2.0, 5, sim::NodeEventKind::kReclaim, 0.001},
  };
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.reclaims_forced, 1);
  EXPECT_EQ(res.reclaims_clean, 0);
  EXPECT_EQ(res.failures_injected, 1);
  EXPECT_EQ(res.recoveries_completed + res.recoveries_aborted, 1);
  EXPECT_EQ(res.drains_completed, 0);
}

TEST(ChurnTest, RollingUpgradeVisitsEveryNodeExactlyOnce) {
  ExperimentConfig cfg = service_config();
  // GP1: every rank is already a singleton, so a rolling upgrade needs no
  // splits and (cap 1) no merges — pure drain/join cycling.
  cfg.groups = group::make_gp1(kRanks);
  cfg.churn.kind = sim::ChurnModelKind::kRolling;
  cfg.churn.rolling_start_s = 1.0;
  cfg.churn.rolling_step_s = 1.0;
  cfg.churn.outage_s = 0.5;
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.drains_completed, kRanks);
  EXPECT_EQ(res.joins_completed, kRanks);
  EXPECT_EQ(res.failures_injected, 0);
  EXPECT_EQ(res.splits_installed, 0);
  EXPECT_EQ(res.merges_installed, 0);
  EXPECT_EQ(res.final_num_groups, kRanks);
  ASSERT_TRUE(res.service.has_value());
  EXPECT_EQ(res.service->completed, res.service->requests);
}

TEST(ChurnTest, JoinProducesALiveRankAdmittedIntoAGroup) {
  ExperimentConfig cfg = service_config();
  // Two sequential groups of four; rank 2 drains out of group 0 and must
  // be merged back into it (its ring partners are all in group 0).
  cfg.groups = group::make_sequential(kRanks, 2);
  apps::ServiceParams sp;
  sp.requests = 240;
  sp.arrival_rate_hz = 20.0;
  sp.service_s = 0.005;
  sp.slo_s = 0.1;
  sp.mem_bytes = 8ll << 20;
  sp.cluster_width = 4;  // partner ring stays inside each group of 4
  cfg.app = [sp](int n) { return apps::make_service(n, sp); };
  cfg.churn.kind = sim::ChurnModelKind::kTrace;
  cfg.churn.schedule = {
      {2.0, 2, sim::NodeEventKind::kDrain, 0.0},
      {5.0, 2, sim::NodeEventKind::kJoin, 0.0},
  };
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.drains_completed, 1);
  EXPECT_EQ(res.joins_completed, 1);
  EXPECT_EQ(res.splits_installed, 1);
  EXPECT_EQ(res.merges_installed, 1);
  // Back to the configured partition: two groups of four.
  EXPECT_EQ(res.final_num_groups, 2);
  EXPECT_EQ(res.failures_injected, 0);
}

TEST(ChurnTest, ChurnRunsAreDeterministic) {
  ExperimentConfig cfg = service_config();
  cfg.churn.kind = sim::ChurnModelKind::kSpot;
  cfg.churn.drain_mtbd_s = 3.0;
  cfg.churn.outage_s = 1.0;
  cfg.churn.warning_s = 2.0;
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  ASSERT_TRUE(a.finished);
  ASSERT_TRUE(b.finished);
  EXPECT_EQ(a.exec_time_s, b.exec_time_s);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.drains_completed, b.drains_completed);
  EXPECT_EQ(a.reclaims_clean, b.reclaims_clean);
  EXPECT_EQ(a.reclaims_forced, b.reclaims_forced);
  EXPECT_EQ(a.joins_completed, b.joins_completed);
  EXPECT_EQ(a.merges_installed, b.merges_installed);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  ASSERT_TRUE(a.service.has_value() && b.service.has_value());
  EXPECT_EQ(a.service->p999_latency_s, b.service->p999_latency_s);
  EXPECT_EQ(a.service->slo_miss_rate, b.service->slo_miss_rate);
}

// Regression (ablation_elastic on its defaults): a staggered checkpoint
// request fires up to round_spread_s after its round's tick, and a regroup
// in between renumbers groups. The request names its group by leader rank:
// it follows the leader to the group's new index, and is dropped when that
// rank no longer leads — never dispatched to a stale or out-of-range index.
TEST(ElasticSchedule, StaggeredRequestFollowsLeaderAcrossRegroup) {
  sim::ClusterParams cp;
  cp.num_nodes = kRanks + 1;
  cp.jitter.enabled = false;
  sim::Cluster cluster(cp);
  mpi::Runtime rt(cluster, kRanks);
  apps::RingParams ring;
  ring.iterations = 400;
  const apps::AppSpec app = apps::make_ring(kRanks, ring);
  ckpt::Checkpointer checkpointer(cluster);
  ckpt::ImageRegistry registry;
  core::Metrics metrics;
  // Blocks of two: {0,1} {2,3} {4,5} {6,7}, requested at 1.0/1.1/1.2/1.3 s.
  core::GroupProtocol protocol(rt, group::make_blocks(kRanks, 2), checkpointer,
                               registry, app.image_bytes, metrics);
  rt.set_protocol(&protocol);
  core::SchedulerOptions opts;
  opts.first_at_s = 1.0;
  opts.round_spread_s = 0.4;
  core::CheckpointScheduler sched =
      core::CheckpointScheduler::for_groups(rt, protocol, opts);
  sched.start();
  // After the tick, before the staggered requests: merge {2,3} and {4,5}.
  // Three groups remain, so the fourth request's old index is out of range.
  cluster.engine().call_at(sim::from_seconds(1.05), [&protocol] {
    protocol.install_groups(
        group::GroupSet(kRanks, {{0, 1}, {2, 3, 4, 5}, {6, 7}}));
  });
  rt.start_app(app.body);
  cluster.engine().run_while([&rt] { return !rt.job_finished(); });
  ASSERT_TRUE(rt.job_finished());
  // Leader 2's request reaches the merged group, leader 4's is dropped (4
  // no longer leads), leader 6's reaches {6,7} at its new index: every
  // rank checkpoints exactly once and no round aborts.
  std::vector<int> per_rank(kRanks, 0);
  for (const core::CkptRecord& rec : metrics.ckpts) {
    ++per_rank[static_cast<std::size_t>(rec.rank)];
  }
  EXPECT_EQ(per_rank, std::vector<int>(kRanks, 1));
  EXPECT_EQ(metrics.aborted_rounds, 0);
}

// A request naming a rank that leads no group sends nothing at all (not a
// message the rank then drops), so the driver NIC's timing is untouched.
TEST(ElasticSchedule, RequestToAFollowerSendsNothing) {
  sim::ClusterParams cp;
  cp.num_nodes = kRanks + 1;
  cp.jitter.enabled = false;
  sim::Cluster cluster(cp);
  mpi::Runtime rt(cluster, kRanks);
  apps::RingParams ring;
  ring.iterations = 100;
  const apps::AppSpec app = apps::make_ring(kRanks, ring);
  ckpt::Checkpointer checkpointer(cluster);
  ckpt::ImageRegistry registry;
  core::Metrics metrics;
  core::GroupProtocol protocol(rt, group::make_blocks(kRanks, 2), checkpointer,
                               registry, app.image_bytes, metrics);
  rt.set_protocol(&protocol);
  std::int64_t to_follower = -1;
  std::int64_t to_leader = -1;
  cluster.engine().call_at(sim::from_seconds(0.5), [&] {
    // Merging {2,3} and {4,5} makes rank 4 a follower of rank 2.
    protocol.install_groups(
        group::GroupSet(kRanks, {{0, 1}, {2, 3, 4, 5}, {6, 7}}));
    const sim::Network& net = cluster.network();
    const std::int64_t before = net.total_messages();
    protocol.request_checkpoint(4);
    to_follower = net.total_messages() - before;
    protocol.request_checkpoint(2);
    to_leader = net.total_messages() - before - to_follower;
  });
  rt.start_app(app.body);
  cluster.engine().run_while([&rt] { return !rt.job_finished(); });
  ASSERT_TRUE(rt.job_finished());
  EXPECT_EQ(to_follower, 0);
  EXPECT_EQ(to_leader, 1);
}

}  // namespace
}  // namespace gcr::exp
