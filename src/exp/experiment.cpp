#include "exp/experiment.hpp"

#include <memory>
#include <utility>

#include "group/formation.hpp"
#include "group/strategies.hpp"
#include "mpi/runtime.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace gcr::exp {
namespace {

sim::ClusterParams make_cluster_params(const ExperimentConfig& config) {
  sim::ClusterParams cp;
  cp.num_nodes = config.nranks + 1;  // + driver (mpirun) node
  cp.seed = config.seed;
  cp.net.latency_s = config.net_latency_s;
  cp.net.bandwidth_Bps = config.net_bandwidth_Bps;
  cp.net.topology = config.topology;
  cp.local_disk.bandwidth_Bps = config.disk_bandwidth_Bps;
  cp.local_disk.concurrency = config.storage.direct_concurrency;
  cp.num_remote_servers = config.remote_storage ? config.remote_servers : 0;
  cp.remote_server.bandwidth_Bps = config.remote_bandwidth_Bps;
  cp.remote_server.concurrency = config.storage.direct_concurrency;
  if (config.storage.mode != ckpt::StorageMode::kDirect) {
    const StorageConfig& s = config.storage;
    cp.tiers.num_burst_buffers = s.burst_buffers;
    cp.tiers.node_buffer.bandwidth_Bps = s.node_buffer_Bps;
    cp.tiers.burst_buffer.bandwidth_Bps = s.burst_buffer_Bps;
    cp.tiers.burst_buffer.concurrency = s.burst_buffer_concurrency;
    cp.tiers.pfs.bandwidth_Bps = s.pfs_Bps;
    cp.tiers.pfs.concurrency = s.pfs_concurrency;
  }
  cp.jitter.enabled = config.jitter;
  return cp;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  GCR_CHECK(config.app != nullptr);
  GCR_CHECK(config.nranks > 0);
  GCR_CHECK_MSG(config.shards == 1,
                "every simulation runs on one engine (shards == 1)");

  sim::Cluster cluster(make_cluster_params(config));
  mpi::Runtime runtime(cluster, config.nranks);
  apps::AppSpec spec = config.app(config.nranks);

  ckpt::CheckpointerOptions ckpt_opts;
  ckpt_opts.remote_storage = config.remote_storage;
  ckpt_opts.mode = config.storage.mode;
  ckpt_opts.bb_capacity_bytes =
      static_cast<std::int64_t>(config.storage.burst_buffer_capacity_bytes);
  ckpt::Checkpointer checkpointer(cluster, ckpt_opts);
  ckpt::ImageRegistry registry;
  registry.reserve_ranks(config.nranks);
  core::Metrics metrics;

  trace::Tracer tracer;
  if (config.collect_trace) runtime.add_observer(&tracer);

  std::unique_ptr<core::GroupProtocol> group_protocol;
  std::unique_ptr<core::VclProtocol> vcl_protocol;
  std::unique_ptr<core::CheckpointScheduler> scheduler;
  std::unique_ptr<core::RecoveryManager> recovery;
  std::unique_ptr<core::TrafficMatrix> traffic;
  std::unique_ptr<core::RegroupPlanner> planner;

  if (config.protocol == ProtocolKind::kGroup) {
    GCR_CHECK_MSG(config.groups.has_value(),
                  "group protocol requires a GroupSet");
    group_protocol = std::make_unique<core::GroupProtocol>(
        runtime, *config.groups, checkpointer, registry, spec.image_bytes,
        metrics, config.protocol_options);
    runtime.set_protocol(group_protocol.get());
    if (!config.per_group_intervals.empty()) {
      core::CheckpointScheduler::start_per_group(runtime, *group_protocol,
                                                 config.per_group_intervals);
    } else if (config.checkpoints) {
      scheduler = std::make_unique<core::CheckpointScheduler>(
          core::CheckpointScheduler::for_groups(runtime, *group_protocol,
                                                config.schedule));
    }
    recovery = std::make_unique<core::RecoveryManager>(
        runtime, *group_protocol, registry, checkpointer, config.recovery);
    for (const FailurePlan& f : config.failures) {
      recovery->fail_group_at(f.group, sim::from_seconds(f.at_s));
    }
    if (config.fault_model.kind != sim::FaultModelKind::kNone) {
      recovery->arm_fault_model(sim::make_fault_model(config.fault_model));
    }
    if (config.churn.kind != sim::ChurnModelKind::kNone) {
      GCR_CHECK_MSG(config.per_group_intervals.empty(),
                    "per-group intervals are indexed into a static "
                    "partition; churn re-derives the partition — use the "
                    "uniform schedule");
      traffic = std::make_unique<core::TrafficMatrix>(config.nranks);
      runtime.add_observer(traffic.get());
      planner = std::make_unique<core::RegroupPlanner>(traffic.get());
      recovery->arm_churn_model(sim::make_churn_model(config.churn),
                                planner.get());
    }
  } else {
    // Every group-protocol-only setting is refused rather than ignored.
    GCR_CHECK_MSG(config.failures.empty() && !config.restart_after_finish &&
                      config.fault_model.kind == sim::FaultModelKind::kNone &&
                      config.per_group_intervals.empty() &&
                      config.churn.kind == sim::ChurnModelKind::kNone,
                  "VCL restart/failures/per-group intervals/churn are not "
                  "supported (see DESIGN.md §8)");
    vcl_protocol = std::make_unique<core::VclProtocol>(
        runtime, checkpointer, spec.image_bytes, metrics);
    runtime.set_protocol(vcl_protocol.get());
    if (config.checkpoints) {
      scheduler = std::make_unique<core::CheckpointScheduler>(
          core::CheckpointScheduler::for_vcl(runtime, *vcl_protocol,
                                             config.schedule));
    }
  }
  if (scheduler) scheduler->start();

  runtime.start_app(spec.body);

  const sim::Time deadline = sim::from_seconds(config.max_sim_s);
  sim::Engine& engine = cluster.engine();
  engine.run_while(
      [&] { return !runtime.job_finished() && engine.now() < deadline; });

  ExperimentResult result;
  result.finished = runtime.job_finished();
  const sim::Time end_time = engine.now();
  result.exec_time_s = sim::to_seconds(end_time);
  result.app_messages = runtime.app_messages_sent();
  result.app_bytes = runtime.app_bytes_sent();
  result.failures_injected = recovery ? recovery->failures_injected() : 0;
  result.failures_absorbed = recovery ? recovery->failures_absorbed() : 0;
  result.recoveries_completed = recovery ? recovery->recoveries_completed() : 0;
  result.recoveries_aborted = recovery ? recovery->recoveries_aborted() : 0;
  result.availability = recovery ? recovery->availability(end_time) : 1.0;
  if (recovery) {
    result.drains_completed = recovery->drains_completed();
    result.reclaims_clean = recovery->reclaims_clean();
    result.reclaims_forced = recovery->reclaims_forced();
    result.joins_completed = recovery->joins_completed();
    result.joins_aborted = recovery->joins_aborted();
    result.splits_installed = recovery->splits_installed();
    result.merges_installed = recovery->merges_installed();
  }
  result.final_num_groups =
      group_protocol ? group_protocol->groups().num_groups() : 0;
  if (spec.service_stats) result.service = spec.service_stats();

  if (result.finished && config.restart_after_finish && recovery) {
    const std::size_t before = metrics.restarts.size();
    recovery->restart_all_at(engine.now() + sim::from_seconds(1.0));
    const std::size_t want = before + static_cast<std::size_t>(config.nranks);
    engine.run_while([&] {
      return metrics.restarts.size() < want &&
             engine.now() < deadline + sim::from_seconds(5000);
    });
    GCR_CHECK_MSG(metrics.restarts.size() >= want,
                  "whole-application restart did not complete");
    for (std::size_t i = before; i < metrics.restarts.size(); ++i) {
      const auto& r = metrics.restarts[i];
      result.restart_aggregate_s += sim::to_seconds(r.end - r.begin);
      result.restart_records.push_back(r);
    }
  }

  result.shard_events.push_back(engine.events_processed());
  result.checkpoints_completed = metrics.completed_rounds(config.nranks);
  if (const ckpt::TierStats* ts = checkpointer.tier_stats()) {
    result.tier_stats = *ts;
  }
  result.metrics = std::move(metrics);
  if (config.collect_trace) result.trace = tracer.take();
  return result;
}

trace::Trace profile_app(const AppFactory& app, int nranks,
                         std::uint64_t seed) {
  ExperimentConfig config;
  config.app = app;
  config.nranks = nranks;
  config.seed = seed;
  config.collect_trace = true;
  config.protocol = ProtocolKind::kGroup;
  config.groups = group::make_norm(nranks);
  config.checkpoints = false;
  ExperimentResult result = run_experiment(config);
  GCR_CHECK_MSG(result.finished, "profiling run did not finish");
  return std::move(result.trace);
}

group::GroupSet derive_groups(const AppFactory& app, int nranks,
                              int max_group_size) {
  const trace::Trace trace = profile_app(app, nranks);
  group::FormationOptions options;
  options.max_group_size = max_group_size;
  return group::form_groups_from_trace(nranks, trace, options);
}

}  // namespace gcr::exp
