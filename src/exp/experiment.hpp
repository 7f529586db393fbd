// Experiment harness: one config in, one simulated run out.
//
// Wires cluster + runtime + protocol + checkpointer + scheduler + recovery
// together the same way for every bench/test, so figures differ only in the
// parameters the paper varies. The profiling run that feeds Algorithm 2
// (profile_app) wires only cluster + runtime + a send-only tracer.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "ckpt/checkpointer.hpp"
#include "core/group_protocol.hpp"
#include "core/metrics.hpp"
#include "core/recovery.hpp"
#include "core/scheduler.hpp"
#include "core/vcl_protocol.hpp"
#include "group/group.hpp"
#include "sim/cluster.hpp"
#include "trace/record.hpp"

namespace gcr::exp {

enum class ProtocolKind {
  kGroup,  ///< Algorithm 1 (NORM/GP1/GPk/GP are groupings of this)
  kVcl,    ///< MPICH-VCL-style non-blocking coordinated
};

/// Checkpoint storage subsystem (DESIGN.md §13). The default — direct mode
/// with concurrency 1 — writes each image to a single-slot FIFO device
/// (the node's disk or its NFS server), as the paper's testbed does.
struct StorageConfig {
  ckpt::StorageMode mode = ckpt::StorageMode::kDirect;
  /// Fair-share width of the DIRECT devices (local disk / NFS server): K
  /// admitted transfers share the bandwidth, 1 = strict FIFO.
  int direct_concurrency = 1;
  // --- tier hierarchy (modes kBurstBuffer / kDrain) ---
  int burst_buffers = 1;               ///< shared burst-buffer servers
  double node_buffer_Bps = 2e9;        ///< per-node staging copy rate
  double burst_buffer_Bps = 400e6;     ///< per-server ingest bandwidth
  int burst_buffer_concurrency = 4;    ///< fair-share width per server
  double burst_buffer_capacity_bytes = 8e9;  ///< aggregate image capacity
  double pfs_Bps = 50e6;               ///< parallel-file-system bandwidth
  int pfs_concurrency = 8;             ///< PFS stripe width (fair-share)
};

using AppFactory = std::function<apps::AppSpec(int nranks)>;

struct FailurePlan {
  int group = 0;
  double at_s = 0;
};

struct ExperimentConfig {
  AppFactory app;
  int nranks = 16;
  std::uint64_t seed = 1;

  // Cluster model (Gideon-300 defaults; see DESIGN.md §6).
  double net_latency_s = 70e-6;
  double net_bandwidth_Bps = 12.5e6;
  // Fabric topology (DESIGN.md §14). kFlat (default) is the paper's
  // non-blocking switch and reproduces historical outputs byte-identically;
  // kFatTree/kDragonfly route every message over per-link fair-share
  // contention at net_bandwidth_Bps for the scale-extrapolation campaigns.
  sim::TopologyParams topology;
  // Engines per simulation. Only 1 is accepted: every simulation runs on
  // one sim::Engine, and campaign --jobs supplies the parallelism. The
  // field stays because perfbench/traced.cpp reads it; the next benchmark
  // change removes it.
  int shards = 1;
  // Local image writes land in the page cache first (512 MB nodes); the
  // effective rate seen by the checkpointer is memory-copy-bound, not raw
  // IDE-disk-bound. Calibrated against the paper's Figure 9 image phases.
  double disk_bandwidth_Bps = 100e6;
  bool remote_storage = false;  ///< images go to 4 shared NFS servers
  int remote_servers = 4;
  double remote_bandwidth_Bps = 12.5e6;
  // Storage subsystem: tier modes route images through burst buffers with
  // write-behind draining; direct mode (default) is the paper's setup.
  StorageConfig storage;
  bool jitter = true;

  // Protocol.
  ProtocolKind protocol = ProtocolKind::kGroup;
  std::optional<group::GroupSet> groups;  ///< required for kGroup
  // Group-protocol cost-model knobs. Defaults reproduce the paper's
  // cluster; scale campaigns raise commit_margin so the leader's commit
  // fan-out (O(group) control messages over a contended fabric) cannot
  // outrun the agreed target iteration.
  core::GroupProtocolOptions protocol_options{};

  // Checkpoint schedule (enable with first_at_s/interval via `schedule`).
  bool checkpoints = false;
  core::SchedulerOptions schedule{};
  // Non-empty: per-group periodic intervals (seconds; one per group,
  // 0 = that group never checkpoints). Overrides `schedule` for the group
  // protocol — the paper's "flaky groups checkpoint more often" feature.
  std::vector<double> per_group_intervals;

  // Failure injection (group protocol only).
  std::vector<FailurePlan> failures;
  // kind != kNone: pluggable node-fault model (sim/node_events.hpp) — node
  // faults map to the group hosting that node's rank; concurrent failures
  // queue recoveries (core/recovery.hpp). Composable with `failures`.
  sim::FaultModelParams fault_model;
  core::RecoveryOptions recovery{};
  // kind != kNone: planned churn (sim/node_events.hpp) — drains, spot
  // reclaims and rejoins drive the elastic regrouping state machines in
  // core/recovery.hpp, with merge targets picked by a traffic-affinity
  // RegroupPlanner. Group protocol only; composable with faults.
  sim::ChurnModelParams churn;

  // The paper's restart experiment: after the job finishes, restart the
  // whole application from the stored images and measure restart prep.
  bool restart_after_finish = false;

  // Collect a communication trace of sends and deliveries (timelines, gap
  // fractions); profile_app collects the sends alone without this harness.
  bool collect_trace = false;

  // Watchdog: abort the run if simulated time exceeds this.
  double max_sim_s = 50000.0;
};

struct ExperimentResult {
  double exec_time_s = 0;  ///< job completion (simulated)
  core::Metrics metrics;
  trace::Trace trace;
  std::int64_t app_messages = 0;
  std::int64_t app_bytes = 0;
  int checkpoints_completed = 0;
  int failures_injected = 0;
  int failures_absorbed = 0;     ///< arrivals while the group was already down
  int recoveries_completed = 0;  ///< restores that ran to completion
  int recoveries_aborted = 0;    ///< restores re-killed mid-flight
  /// Tier counters (all zero in direct mode — see StorageConfig).
  ckpt::TierStats tier_stats;
  bool finished = false;  ///< false if the watchdog tripped

  /// Service-app aggregates (set when the app publishes service_stats —
  /// apps/service.hpp).
  std::optional<apps::ServiceStats> service;
  /// Fraction of rank-time the ranks were up over [0, exec_time]: faults
  /// accrue downtime from kill to restore completion, churn from departure
  /// to rejoin completion. 1.0 when nothing went down.
  double availability = 1.0;
  // Churn books (all zero unless config.churn is armed).
  int drains_completed = 0;
  int reclaims_clean = 0;   ///< warning window sufficed: committed + departed
  int reclaims_forced = 0;  ///< warning expired: the group failed instead
  int joins_completed = 0;
  int joins_aborted = 0;    ///< join restores cut down by a fault
  int splits_installed = 0;
  int merges_installed = 0;
  /// Group count at the end of the run (== the configured partition's
  /// count unless churn re-derived it).
  int final_num_groups = 0;

  /// Restart-experiment aggregates (valid when restart_after_finish).
  double restart_aggregate_s = 0;
  std::vector<core::RestartRecord> restart_records;

  /// Events the run's engine dispatched, as a one-element vector. Kept in
  /// this shape because perfbench/workloads.cpp sums it; the next benchmark
  /// change replaces it with a scalar.
  std::vector<std::uint64_t> shard_events;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

/// Profiling helper: runs the app once on the default cluster with only a
/// send-only tracer attached (no protocol, checkpointer or recovery) and
/// returns its send records — the paper's group-formation input. They equal
/// the send records of a collect_trace run_experiment under NORM groups
/// without checkpoints.
trace::Trace profile_app(const AppFactory& app, int nranks,
                         std::uint64_t seed = 1);

/// Full trace-assisted workflow: profile (profile_app's default seed), then
/// run Algorithm 2.
group::GroupSet derive_groups(const AppFactory& app, int nranks,
                              int max_group_size = 0);

}  // namespace gcr::exp
