// Randomized protocol-torture harness (ISSUE 4): N seeds x random fault
// schedules from every fault-model family against small CG/SP runs.
//
// Each seed draws a random grouping, checkpoint schedule, recovery delays
// and fault model, then asserts the protocol-level invariants:
//   * the job completes (no rank left suspended: job_finished requires
//     every app coroutine to return, and the run would otherwise hit the
//     watchdog and report finished == false);
//   * recovery bookkeeping settles: failures_injected ==
//     recoveries_completed + recoveries_aborted (nothing dropped mid-way),
//     and restart records are consistent with the group sizes;
//   * reruns with the same seed are byte-identical (every double compared
//     exactly, not approximately).
// On top of that, every consume inside the run passes the runtime's
// sequence/checksum verification, so loss, duplication, or reordering
// anywhere in the kill/queue/defer/replay machinery aborts the test.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/cg.hpp"
#include "apps/service.hpp"
#include "apps/sp.hpp"
#include "exp/experiment.hpp"
#include "group/strategies.hpp"
#include "sim/node_events.hpp"
#include "util/rng.hpp"

namespace gcr::exp {
namespace {

struct RunSummary {
  double exec_time_s;
  int failures_injected;
  int failures_absorbed;
  int recoveries_completed;
  int recoveries_aborted;
  int checkpoints_completed;
  std::size_t restart_records;
  std::size_t ckpt_records;
  std::int64_t app_messages;
  std::int64_t app_bytes;
  std::int64_t logged_bytes;
  std::int64_t resend_messages;
  std::int64_t resend_bytes;
  double last_restart_end;

  bool operator==(const RunSummary&) const = default;
};

RunSummary summarize(const ExperimentResult& res) {
  RunSummary s{};
  s.exec_time_s = res.exec_time_s;
  s.failures_injected = res.failures_injected;
  s.failures_absorbed = res.failures_absorbed;
  s.recoveries_completed = res.recoveries_completed;
  s.recoveries_aborted = res.recoveries_aborted;
  s.checkpoints_completed = res.checkpoints_completed;
  s.restart_records = res.metrics.restarts.size();
  s.ckpt_records = res.metrics.ckpts.size();
  s.app_messages = res.app_messages;
  s.app_bytes = res.app_bytes;
  s.logged_bytes = res.metrics.logged_bytes;
  s.resend_messages = res.metrics.resend_messages;
  s.resend_bytes = res.metrics.resend_bytes;
  s.last_restart_end = res.metrics.restarts.empty()
                           ? 0.0
                           : sim::to_seconds(res.metrics.restarts.back().end);
  return s;
}

/// Small CG (8 ranks, ~1 s fault-free) or SP (9 ranks, ~1.6 s fault-free).
ExperimentConfig torture_config(std::uint64_t seed) {
  gcr::Rng rng(mix_seed(0x70127053, seed));
  ExperimentConfig cfg;
  cfg.seed = seed;
  if (seed % 2 == 0) {
    apps::CgParams p;
    p.na = 8000;
    p.nonzer = 4;
    p.outer_iters = 8;
    p.inner_steps = 6;
    cfg.app = [p](int n) { return apps::make_cg(n, p); };
    cfg.nranks = 8;  // power of two (NPB)
    const int choices[] = {1, 2, 4, 8};
    cfg.groups = group::make_round_robin(
        8, choices[rng.next_below(4)]);
  } else {
    apps::SpParams p;
    p.grid_points = 40;
    p.niter = 24;
    p.modeled_iters = 12;
    cfg.app = [p](int n) { return apps::make_sp(n, p); };
    cfg.nranks = 9;  // perfect square (NPB)
    const int choices[] = {1, 3, 9};
    cfg.groups = group::make_round_robin(9, choices[rng.next_below(3)]);
  }

  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.05 + rng.next_double() * 0.15;
  cfg.schedule.interval_s = 0.2 + rng.next_double() * 0.3;
  // Up to the benches' 0.4 s per-group propagation window.
  cfg.schedule.round_spread_s = rng.next_double() * 0.4;

  cfg.recovery.detect_s = 0.05 + rng.next_double() * 0.15;
  cfg.recovery.relaunch_s = 0.05 + rng.next_double() * 0.15;
  (void)rng.next_below(2);  // discarded: keeps the seed -> config map stable

  // Aggressive fault pressure: several expected failures per run, with
  // bursts/traces engineered to overlap recovery and checkpoint windows.
  const int n = cfg.nranks;
  switch (rng.next_below(4)) {
    case 0:
      cfg.fault_model.kind = sim::FaultModelKind::kExponential;
      cfg.fault_model.mtbf_s = 6.0 + rng.next_double() * 8.0;
      break;
    case 1:
      cfg.fault_model.kind = sim::FaultModelKind::kWeibull;
      cfg.fault_model.mtbf_s = 6.0 + rng.next_double() * 8.0;
      cfg.fault_model.weibull_shape = 0.5 + rng.next_double();
      break;
    case 2:
      cfg.fault_model.kind = sim::FaultModelKind::kBurst;
      cfg.fault_model.burst_mtbf_s = 1.5 + rng.next_double() * 2.0;
      cfg.fault_model.burst_max_nodes =
          1 + static_cast<int>(rng.next_below(4));
      cfg.fault_model.burst_spread_s = 0.05 + rng.next_double() * 0.3;
      break;
    default: {
      cfg.fault_model.kind = sim::FaultModelKind::kTrace;
      const int k = 2 + static_cast<int>(rng.next_below(4));
      for (int i = 0; i < k; ++i) {
        const double at = 0.2 + rng.next_double() * 2.5;
        const int node = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        cfg.fault_model.schedule.push_back({at, node});
        if (rng.next_below(3) == 0) {
          // Same-instant second fault on another node.
          cfg.fault_model.schedule.push_back(
              {at, static_cast<int>(
                       rng.next_below(static_cast<std::uint64_t>(n)))});
        }
      }
      break;
    }
  }
  cfg.max_sim_s = 300.0;  // a stuck run fails fast instead of at 50000 s
  return cfg;
}

class FaultTortureTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultTortureTest, InvariantsHoldAndRerunsAreIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const ExperimentConfig cfg = torture_config(seed);
  const ExperimentResult res = run_experiment(cfg);

  ASSERT_TRUE(res.finished)
      << "seed " << seed << " hit the watchdog; injected="
      << res.failures_injected << " completed=" << res.recoveries_completed
      << " aborted=" << res.recoveries_aborted;

  // Every accepted failure's recovery settled one way or the other.
  EXPECT_EQ(res.failures_injected,
            res.recoveries_completed + res.recoveries_aborted)
      << "seed " << seed;
  EXPECT_GE(res.failures_absorbed, 0);

  // Restart records: every completed recovery restarted a whole group; an
  // aborted one contributes at most a group's worth.
  const int gsize =
      cfg.nranks / cfg.groups->num_groups();  // round-robin: equal sizes
  const auto lo = static_cast<std::size_t>(res.recoveries_completed) *
                  static_cast<std::size_t>(gsize);
  const auto hi = static_cast<std::size_t>(res.recoveries_completed +
                                           res.recoveries_aborted) *
                  static_cast<std::size_t>(gsize);
  EXPECT_GE(res.metrics.restarts.size(), lo) << "seed " << seed;
  EXPECT_LE(res.metrics.restarts.size(), hi) << "seed " << seed;
  for (const auto& r : res.metrics.restarts) {
    EXPECT_GE(sim::to_seconds(r.end), sim::to_seconds(r.begin));
  }

  // Byte-identical rerun: same seed, same config => same history, compared
  // field-exact (doubles included).
  const ExperimentResult res2 = run_experiment(cfg);
  EXPECT_TRUE(summarize(res) == summarize(res2))
      << "seed " << seed << " is not deterministic: exec " << res.exec_time_s
      << " vs " << res2.exec_time_s << ", failures "
      << res.failures_injected << " vs " << res2.failures_injected;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultTortureTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Churn torture (ISSUE 10): the same randomized-invariant harness, but with
// a churn model (drains / spot reclaims / rolling restarts / random traces)
// layered on top of random faults against the continuous-load service app.
// Every departure eventually rejoins, so job completion also proves that
// drains, reclaim kills, splits, merges and rejoin restores all unwound.

struct ChurnSummary {
  RunSummary base;
  int drains_completed;
  int reclaims_clean;
  int reclaims_forced;
  int joins_completed;
  int joins_aborted;
  int splits_installed;
  int merges_installed;
  int final_num_groups;
  double availability;
  std::uint64_t service_completed;
  std::uint64_t slo_misses;
  double p999_latency_s;

  bool operator==(const ChurnSummary&) const = default;
};

ChurnSummary churn_summarize(const ExperimentResult& res) {
  ChurnSummary s{};
  s.base = summarize(res);
  s.drains_completed = res.drains_completed;
  s.reclaims_clean = res.reclaims_clean;
  s.reclaims_forced = res.reclaims_forced;
  s.joins_completed = res.joins_completed;
  s.joins_aborted = res.joins_aborted;
  s.splits_installed = res.splits_installed;
  s.merges_installed = res.merges_installed;
  s.final_num_groups = res.final_num_groups;
  s.availability = res.availability;
  s.service_completed = res.service ? res.service->completed : 0;
  s.slo_misses = res.service ? res.service->slo_misses : 0;
  s.p999_latency_s = res.service ? res.service->p999_latency_s : 0.0;
  return s;
}

/// Service app (8 ranks, ~6-12 s of arrivals) under a random churn model
/// plus optional random faults.
ExperimentConfig churn_torture_config(std::uint64_t seed) {
  gcr::Rng rng(mix_seed(0xC4021E70, seed));
  apps::ServiceParams sp;
  sp.requests = 120 + 30 * rng.next_below(4);
  sp.arrival_rate_hz = 20.0;
  sp.service_s = 0.003 + rng.next_double() * 0.004;
  sp.slo_s = 0.1;
  sp.mem_bytes = 4ll << 20;
  sp.seed = seed;
  const double horizon =
      static_cast<double>(sp.requests) / sp.arrival_rate_hz;

  ExperimentConfig cfg;
  cfg.app = [sp](int n) { return apps::make_service(n, sp); };
  cfg.nranks = 8;
  cfg.seed = seed;
  const int choices[] = {1, 2, 4, 8};
  cfg.groups = group::make_round_robin(8, choices[rng.next_below(4)]);

  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1 + rng.next_double() * 0.2;
  cfg.schedule.interval_s = 0.4 + rng.next_double() * 0.4;
  // Up to the benches' 0.4 s per-group propagation window.
  cfg.schedule.round_spread_s = rng.next_double() * 0.4;
  cfg.recovery.detect_s = 0.05 + rng.next_double() * 0.1;
  cfg.recovery.relaunch_s = 0.05 + rng.next_double() * 0.1;

  switch (rng.next_below(4)) {
    case 0:
      cfg.churn.kind = sim::ChurnModelKind::kDrains;
      cfg.churn.drain_mtbd_s = 2.0 + rng.next_double() * 2.0;
      cfg.churn.outage_s = 0.5 + rng.next_double() * 0.5;
      break;
    case 1:
      // Warning windows straddling the commit time: some reclaims exit
      // clean, some expire into forced group failures.
      cfg.churn.kind = sim::ChurnModelKind::kSpot;
      cfg.churn.drain_mtbd_s = 2.5 + rng.next_double() * 2.0;
      cfg.churn.outage_s = 0.5 + rng.next_double() * 0.5;
      cfg.churn.warning_s = 0.2 + rng.next_double() * 1.3;
      break;
    case 2:
      cfg.churn.kind = sim::ChurnModelKind::kRolling;
      cfg.churn.rolling_start_s = 0.5;
      cfg.churn.rolling_step_s = 0.8 * horizon / 8.0;
      cfg.churn.outage_s = 0.3 + rng.next_double() * 0.3;
      break;
    default: {
      cfg.churn.kind = sim::ChurnModelKind::kTrace;
      const int k = 2 + static_cast<int>(rng.next_below(3));
      for (int i = 0; i < k; ++i) {
        sim::NodeEvent ev;
        ev.at_s = 0.3 + rng.next_double() * 0.7 * horizon;
        ev.node = static_cast<int>(rng.next_below(8));
        double down_at = ev.at_s;
        if (rng.next_below(2) == 0) {
          ev.kind = sim::NodeEventKind::kReclaim;
          ev.warning_s = 0.2 + rng.next_double() * 1.0;
          down_at += ev.warning_s;
        } else {
          ev.kind = sim::NodeEventKind::kDrain;
        }
        cfg.churn.schedule.push_back(ev);
        cfg.churn.schedule.push_back({down_at + 0.4 + rng.next_double() * 0.8,
                                      ev.node, sim::NodeEventKind::kJoin,
                                      0.0});
      }
      break;
    }
  }

  // Surprise faults on top of the planned churn, on a third of the seeds.
  switch (rng.next_below(3)) {
    case 0:
      cfg.fault_model.kind = sim::FaultModelKind::kExponential;
      cfg.fault_model.mtbf_s = 8.0 + rng.next_double() * 8.0;
      break;
    case 1: {
      cfg.fault_model.kind = sim::FaultModelKind::kTrace;
      const int k = 1 + static_cast<int>(rng.next_below(2));
      for (int i = 0; i < k; ++i) {
        cfg.fault_model.schedule.push_back(
            {0.3 + rng.next_double() * 0.7 * horizon,
             static_cast<int>(rng.next_below(8))});
      }
      break;
    }
    default:
      break;  // churn only
  }

  cfg.max_sim_s = 300.0;
  return cfg;
}

class ChurnTortureTest : public ::testing::TestWithParam<int> {};

TEST_P(ChurnTortureTest, InvariantsHoldAndRerunsAreIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const ExperimentConfig cfg = churn_torture_config(seed);
  const ExperimentResult res = run_experiment(cfg);

  ASSERT_TRUE(res.finished)
      << "seed " << seed << " hit the watchdog; injected="
      << res.failures_injected << " completed=" << res.recoveries_completed
      << " aborted=" << res.recoveries_aborted << " drains="
      << res.drains_completed << " reclaims=" << res.reclaims_clean << "+"
      << res.reclaims_forced << " joins=" << res.joins_completed;

  // The failure books settle exactly as without churn: planned departures
  // never enter them, forced reclaims enter as ordinary failures.
  EXPECT_EQ(res.failures_injected,
            res.recoveries_completed + res.recoveries_aborted)
      << "seed " << seed;

  // Every join the recovery layer admitted targeted a clean departure
  // (forced reclaims re-enter through the failure path instead).
  EXPECT_LE(res.joins_completed + res.joins_aborted,
            res.drains_completed + res.reclaims_clean)
      << "seed " << seed;
  EXPECT_GE(res.availability, 0.0);
  EXPECT_LE(res.availability, 1.0);

  // job_finished requires every rank's coroutine to return, so a finished
  // run served the entire open-loop stream despite churn + faults.
  ASSERT_TRUE(res.service.has_value());
  EXPECT_EQ(res.service->completed, res.service->requests) << "seed " << seed;

  const ExperimentResult res2 = run_experiment(cfg);
  EXPECT_TRUE(churn_summarize(res) == churn_summarize(res2))
      << "seed " << seed << " is not deterministic: exec " << res.exec_time_s
      << " vs " << res2.exec_time_s << ", drains " << res.drains_completed
      << " vs " << res2.drains_completed << ", avail " << res.availability
      << " vs " << res2.availability;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnTortureTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace gcr::exp
