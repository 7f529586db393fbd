// Service workload accounting (DESIGN.md §16): open-loop SLO/latency
// stats are deterministic, checkpoints land between requests under load,
// and faults charge the outage to the requests that sat through it.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/service.hpp"
#include "exp/experiment.hpp"
#include "group/strategies.hpp"
#include "sim/node_events.hpp"

namespace gcr::exp {
namespace {

ExperimentConfig base_config(apps::ServiceParams sp, int nranks) {
  ExperimentConfig cfg;
  cfg.app = [sp](int n) { return apps::make_service(n, sp); };
  cfg.nranks = nranks;
  cfg.seed = sp.seed;
  cfg.groups = group::make_norm(nranks);
  cfg.max_sim_s = 300.0;
  return cfg;
}

apps::ServiceParams quick_params() {
  apps::ServiceParams sp;
  sp.requests = 200;
  sp.arrival_rate_hz = 25.0;
  sp.service_s = 0.004;
  sp.slo_s = 0.1;
  sp.mem_bytes = 8ll << 20;
  return sp;
}

void expect_stats_equal(const apps::ServiceStats& a,
                        const apps::ServiceStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slo_misses, b.slo_misses);
  EXPECT_EQ(a.slo_miss_rate, b.slo_miss_rate);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.p999_latency_s, b.p999_latency_s);
  EXPECT_EQ(a.max_latency_s, b.max_latency_s);
}

TEST(ServiceApp, LatencyAccountingIsDeterministic) {
  const ExperimentConfig cfg = base_config(quick_params(), 8);
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  ASSERT_TRUE(a.finished);
  ASSERT_TRUE(b.finished);
  EXPECT_EQ(a.exec_time_s, b.exec_time_s);
  ASSERT_TRUE(a.service.has_value());
  ASSERT_TRUE(b.service.has_value());
  expect_stats_equal(*a.service, *b.service);
  // Fault-free run: every request completes, quantiles are ordered.
  EXPECT_EQ(a.service->completed, a.service->requests);
  EXPECT_EQ(a.service->requests, 8u * quick_params().requests);
  EXPECT_LE(a.service->p50_latency_s, a.service->p99_latency_s);
  EXPECT_LE(a.service->p99_latency_s, a.service->p999_latency_s);
  EXPECT_LE(a.service->p999_latency_s, a.service->max_latency_s);
  EXPECT_EQ(a.availability, 1.0);
}

TEST(ServiceApp, DifferentSeedsGiveDifferentArrivals) {
  apps::ServiceParams sp = quick_params();
  const ExperimentResult a = run_experiment(base_config(sp, 8));
  sp.seed = 2;
  ExperimentConfig cfg = base_config(sp, 8);
  const ExperimentResult b = run_experiment(cfg);
  ASSERT_TRUE(a.finished && b.finished);
  EXPECT_NE(a.exec_time_s, b.exec_time_s);
}

TEST(ServiceApp, CheckpointsLandBetweenRequestsUnderLoad) {
  ExperimentConfig cfg = base_config(quick_params(), 8);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.5;
  cfg.schedule.interval_s = 1.0;
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_GE(res.checkpoints_completed, 2);
  ASSERT_TRUE(res.service.has_value());
  // Checkpoint stalls delay requests but lose none of them.
  EXPECT_EQ(res.service->completed, res.service->requests);
  EXPECT_EQ(res.service->slo_miss_rate,
            static_cast<double>(res.service->slo_misses) /
                static_cast<double>(res.service->requests));
}

TEST(ServiceApp, FaultAndRestoreChargeTheOutageToSloMisses) {
  ExperimentConfig cfg = base_config(quick_params(), 8);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.5;
  cfg.schedule.interval_s = 1.0;
  cfg.recovery.detect_s = 0.2;
  cfg.recovery.relaunch_s = 0.2;
  const ExperimentResult baseline = run_experiment(cfg);
  cfg.failures = {{0, 2.0}};  // kill rank 0's group mid-stream
  const ExperimentResult faulted = run_experiment(cfg);
  ASSERT_TRUE(baseline.finished);
  ASSERT_TRUE(faulted.finished);
  EXPECT_EQ(faulted.failures_injected, 1);
  EXPECT_EQ(faulted.recoveries_completed, 1);
  ASSERT_TRUE(baseline.service.has_value());
  ASSERT_TRUE(faulted.service.has_value());
  // The open-loop stream kept arriving through the outage; after the
  // restore the backlog drained, so every request still completed — but
  // the ones that sat through detect + relaunch + restore + replay missed
  // the SLO, and the downtime shows up in availability. (Total execution
  // time is NOT compared: the outage also suppresses checkpoint rounds,
  // which can outweigh the restore delay.)
  EXPECT_EQ(faulted.service->completed, faulted.service->requests);
  EXPECT_GT(faulted.service->slo_misses, baseline.service->slo_misses);
  EXPECT_LT(faulted.availability, 1.0);
  EXPECT_GT(baseline.availability, faulted.availability);
}

}  // namespace
}  // namespace gcr::exp
