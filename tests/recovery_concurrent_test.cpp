// Directed tests for the concurrent-failure recovery paths
// (core/recovery.hpp): failures are never deferred — a group dies the
// instant its fault fires — and recoveries queue. Covers: the restore
// starting exactly detect + relaunch after the fault, a failure during
// another group's restart (queued restore, deferred volume exchange), a
// re-failure of a restoring group (aborted restore, requeued), a failure
// during a checkpoint window (staged-image rollback), same-timestamp
// failures of two groups, absorption of faults hitting an already-down
// group, and fault-model events past the end of the tick range. Every run that finishes has passed the runtime's
// per-consume sequence/checksum verification, so loss, duplication, or
// reordering anywhere in the deferred-exchange/replay machinery aborts.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/simple.hpp"
#include "exp/experiment.hpp"
#include "group/strategies.hpp"

namespace gcr::exp {
namespace {

AppFactory ring_app(std::uint64_t iters) {
  return [iters](int n) {
    apps::RingParams p;
    p.iterations = iters;
    p.compute_s = 0.012;
    return apps::make_ring(n, p);
  };
}

/// Ring with 48 MB images: restores spend ~0.56 s reading the image, which
/// opens a wide deterministic restore window to land a second failure in.
/// (The one-shot checkpoint at 0.1 s commits by ~4.8 s — ring traffic
/// couples the groups, so the round stretches far beyond the raw write.)
AppFactory big_image_ring_app() {
  return [](int n) {
    apps::RingParams p;
    p.iterations = 80;
    p.compute_s = 0.012;
    p.mem_bytes = 48 * 1024 * 1024;
    return apps::make_ring(n, p);
  };
}

/// [min begin, max end] over the restart records of one rank range.
struct Window {
  double begin = 1e300;
  double end = -1e300;
};
Window restore_window(const ExperimentResult& res, mpi::RankId lo,
                      mpi::RankId hi) {
  Window w;
  for (const auto& r : res.metrics.restarts) {
    if (r.rank < lo || r.rank > hi) continue;
    w.begin = std::min(w.begin, sim::to_seconds(r.begin));
    w.end = std::max(w.end, sim::to_seconds(r.end));
  }
  return w;
}

// A failure of group 1 while group 0 is mid-restore is accepted (killed
// now), queued, and restored only after group 0's restore window closes.
// Group 0's exchange toward the dead group 1 defers and converges later.
TEST(ConcurrentRecovery, FailureDuringAnotherGroupsRestartQueues) {
  ExperimentConfig cfg;
  cfg.app = big_image_ring_app();
  cfg.nranks = 8;
  cfg.groups = group::make_blocks(8, 4);  // {0..3}, {4..7}
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;  // one-shot, committed by ~4.8 s
  cfg.recovery.detect_s = 0.2;
  cfg.recovery.relaunch_s = 0.2;
  // Group 0 dies at 5.5 (after its commit), restores 5.9..~6.46 (image
  // read); group 1 dies at 6.1, inside that restore window.
  cfg.failures = {{0, 5.5}, {1, 6.1}};
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.failures_injected, 2);
  EXPECT_EQ(res.failures_absorbed, 0);
  EXPECT_EQ(res.recoveries_completed, 2);
  EXPECT_EQ(res.recoveries_aborted, 0);
  EXPECT_EQ(res.metrics.restarts.size(), 8u);
  const Window g0 = restore_window(res, 0, 3);
  const Window g1 = restore_window(res, 4, 7);
  // Group 0 really restored from its image (wide window)...
  EXPECT_GT(g0.end - g0.begin, 0.3);
  for (const auto& r : res.metrics.restarts) EXPECT_GT(r.image_read_s, 0.3);
  // ...and group 1's restore queued behind it (one restore slot).
  EXPECT_GE(g1.begin, g0.end - 1e-9);
}

// The kill, the recovery bookkeeping and the restore all take effect at
// the instant they are decided: with one restore slot free, the group's
// ranks restart exactly detect + relaunch after the fault.
TEST(ConcurrentRecovery, RestoreStartsDetectPlusRelaunchAfterTheFault) {
  ExperimentConfig cfg;
  cfg.app = ring_app(40);
  cfg.nranks = 8;
  cfg.groups = group::make_blocks(8, 4);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.recovery.detect_s = 0.2;
  cfg.recovery.relaunch_s = 0.2;
  cfg.failures = {{1, 0.25}};
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.recoveries_completed, 1);
  ASSERT_EQ(res.metrics.restarts.size(), 4u);
  const sim::Time want =
      sim::from_seconds(0.25) + sim::from_seconds(0.2 + 0.2);
  for (const auto& r : res.metrics.restarts) {
    EXPECT_GE(r.rank, 4);
    EXPECT_EQ(r.begin, want) << "rank " << r.rank;
  }
}

// A second failure of the SAME group while it is restoring aborts the
// in-flight restore (its restore coroutine dies with the ranks) and queues
// a fresh recovery; the job still completes.
TEST(ConcurrentRecovery, RefailureDuringRestoreAbortsAndRequeues) {
  ExperimentConfig cfg;
  cfg.app = big_image_ring_app();
  cfg.nranks = 8;
  cfg.groups = group::make_blocks(8, 4);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.recovery.detect_s = 0.2;
  cfg.recovery.relaunch_s = 0.2;
  // First failure at 5.5 -> restoring 5.9..~6.46; the re-failure at 6.1
  // lands mid-image-read and kills the restore coroutine with the ranks.
  cfg.failures = {{0, 5.5}, {0, 6.1}};
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.failures_injected, 2);
  EXPECT_EQ(res.recoveries_aborted, 1);
  EXPECT_EQ(res.recoveries_completed, 1);
  EXPECT_EQ(res.failures_absorbed, 0);
  // Only the second (completed) restore produced records.
  EXPECT_EQ(res.metrics.restarts.size(), 4u);
}

// A fault arriving while its group is dead and waiting for a restore slot
// is absorbed: a node cannot die twice.
TEST(ConcurrentRecovery, FaultOnDownGroupIsAbsorbed) {
  ExperimentConfig cfg;
  cfg.app = ring_app(40);
  cfg.nranks = 4;
  cfg.groups = group::make_round_robin(4, 2);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.05;
  // Detection+relaunch 2 s (defaults): the 0.5 s fault hits a dead group.
  cfg.failures = {{0, 0.3}, {0, 0.5}};
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.failures_injected, 1);
  EXPECT_EQ(res.failures_absorbed, 1);
  EXPECT_EQ(res.recoveries_completed, 1);
}

// A failure inside the group's own checkpoint window kills the round and
// discards the group's staged (never-committed) images: the restore runs
// from scratch, never from a torn image.
TEST(ConcurrentRecovery, FailureDuringCheckpointRollsBackStagedImage) {
  ExperimentConfig cfg;
  cfg.app = ring_app(60);
  cfg.nranks = 4;
  cfg.groups = group::make_round_robin(4, 2);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;  // one-shot
  cfg.disk_bandwidth_Bps = 1e6;   // 8 MB images: an 8 s write window
  cfg.recovery.detect_s = 0.2;
  cfg.recovery.relaunch_s = 0.2;
  cfg.failures = {{0, 2.0}};  // deep inside the image write
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.failures_injected, 1);
  EXPECT_EQ(res.recoveries_completed, 1);
  // The round never completed on the failed group.
  EXPECT_EQ(res.checkpoints_completed, 0);
  // Every member restarted from scratch: the half-written image was staged
  // but never group-committed, so restore must not read it.
  int restarted = 0;
  for (const auto& r : res.metrics.restarts) {
    EXPECT_LT(r.image_read_s, 0.01);
    ++restarted;
  }
  EXPECT_EQ(restarted, 2);
}

// Two groups failing at the same simulated instant: both kills are
// accepted at that instant, recoveries queue in failure order, and both
// complete. The first group to restore exchanges volumes with a fully dead
// peer group — the deferred-exchange path — and the run still passes the
// per-consume seq/checksum verification.
TEST(ConcurrentRecovery, SimultaneousTwoGroupFailure) {
  ExperimentConfig cfg;
  cfg.app = ring_app(60);
  cfg.nranks = 8;
  cfg.groups = group::make_blocks(8, 4);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.schedule.interval_s = 0.2;
  cfg.recovery.detect_s = 0.2;
  cfg.recovery.relaunch_s = 0.2;
  cfg.failures = {{0, 0.7}, {1, 0.7}};
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.failures_injected, 2);
  EXPECT_EQ(res.failures_absorbed, 0);
  EXPECT_EQ(res.recoveries_completed, 2);
  EXPECT_EQ(res.metrics.restarts.size(), 8u);
  const Window g0 = restore_window(res, 0, 3);
  const Window g1 = restore_window(res, 4, 7);
  EXPECT_GE(g1.begin, g0.end - 1e-9);  // one restore slot, failure order
}

// With two restore slots, simultaneous failures restore CONCURRENTLY:
// both groups' windows overlap, both exchanges defer against each other,
// and the run still converges.
TEST(ConcurrentRecovery, TwoRestoreSlotsOverlapWindows) {
  ExperimentConfig cfg;
  cfg.app = big_image_ring_app();
  cfg.nranks = 8;
  cfg.groups = group::make_blocks(8, 4);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;  // one-shot, committed by ~4.8 s
  cfg.recovery.detect_s = 0.2;
  cfg.recovery.relaunch_s = 0.2;
  cfg.recovery.max_concurrent_restores = 2;
  cfg.failures = {{0, 5.5}, {1, 5.5}};
  ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  EXPECT_EQ(res.failures_injected, 2);
  EXPECT_EQ(res.recoveries_completed, 2);
  const Window g0 = restore_window(res, 0, 3);
  const Window g1 = restore_window(res, 4, 7);
  EXPECT_LT(g1.begin, g0.end);  // windows genuinely overlap
  EXPECT_LT(g0.begin, g1.end);
}

// A fault-model event at or past the end of the tick range (~9.2e9 s) ends
// the model's stream instead of overflowing the conversion to ticks, which
// fired it at once. An event just inside the range simply never comes due.
TEST(ConcurrentRecovery, EventPastTheTickRangeNeverFires) {
  ExperimentConfig cfg;
  cfg.app = [](int n) {
    apps::RingParams p;
    p.iterations = 30;
    p.compute_s = 0.01;
    return apps::make_ring(n, p);
  };
  cfg.nranks = 4;
  cfg.groups = group::make_blocks(4, 2);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  const ExperimentResult clean = run_experiment(cfg);
  ASSERT_TRUE(clean.finished);
  cfg.fault_model.kind = sim::FaultModelKind::kTrace;
  for (const double at : {9e9, 1e10}) {
    cfg.fault_model.schedule = {{at, 0}};
    const ExperimentResult res = run_experiment(cfg);
    ASSERT_TRUE(res.finished) << at;
    EXPECT_EQ(res.failures_injected, 0) << at;
    EXPECT_EQ(res.exec_time_s, clean.exec_time_s) << at;
  }
}

}  // namespace
}  // namespace gcr::exp
