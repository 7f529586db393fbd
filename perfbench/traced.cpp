// Traced job: the stack exp::run_experiment builds, rebuilt from the public
// constructors in the same order, with spans around each layer's calls and
// counters at its boundaries. The benchmark checks that its simulated
// outcome digest equals the untraced run's.
//
// Coverage (single engine shard, group protocol, no churn — the workloads'
// configs): the Interposer forwarder returns GroupProtocol's coroutines
// unwrapped, so it counts before_send/at_safepoint calls without adding a
// coroutine frame; the synchronous hooks are timed. Host time inside the
// network and storage code needs spans inside the program and is not
// measured here.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "ckpt/checkpointer.hpp"
#include "core/group_protocol.hpp"
#include "core/recovery.hpp"
#include "core/scheduler.hpp"
#include "mpi/hooks.hpp"
#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"
#include "util/assert.hpp"

namespace perfbench {
namespace {

using gcr::exp::ExperimentConfig;

/// Mirrors run_experiment's cluster parameters (one engine shard).
gcr::sim::ClusterParams cluster_params(const ExperimentConfig& config) {
  gcr::sim::ClusterParams cp;
  cp.num_nodes = config.nranks + 1;  // + driver (mpirun) node
  cp.seed = config.seed;
  cp.net.latency_s = config.net_latency_s;
  cp.net.bandwidth_Bps = config.net_bandwidth_Bps;
  cp.net.topology = config.topology;
  cp.num_shards = 1;
  cp.local_disk.bandwidth_Bps = config.disk_bandwidth_Bps;
  cp.local_disk.concurrency = config.storage.direct_concurrency;
  cp.num_remote_servers = config.remote_storage ? config.remote_servers : 0;
  cp.remote_server.bandwidth_Bps = config.remote_bandwidth_Bps;
  cp.remote_server.concurrency = config.storage.direct_concurrency;
  if (config.storage.mode != gcr::ckpt::StorageMode::kDirect) {
    const gcr::exp::StorageConfig& s = config.storage;
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

/// Sits between the Runtime and GroupProtocol: forwards every hook,
/// counts the coroutine hooks, times the synchronous ones.
class ForwardingInterposer final : public gcr::mpi::Interposer {
 public:
  ForwardingInterposer(gcr::mpi::Interposer& inner, LayerStats& stats)
      : inner_(&inner), stats_(&stats) {}

  gcr::sim::Co<bool> before_send(gcr::mpi::Rank& rank,
                                 gcr::mpi::Message& msg) override {
    ++stats_->before_send_calls;
    return inner_->before_send(rank, msg);
  }
  void on_deliver(gcr::mpi::Rank& rank,
                  const gcr::mpi::Message& msg) override {
    const Clock::time_point t0 = Clock::now();
    inner_->on_deliver(rank, msg);
    stats_->hook_on_deliver_s += seconds_since(t0);
  }
  gcr::sim::Co<void> at_safepoint(gcr::mpi::Rank& rank) override {
    ++stats_->safepoint_calls;
    return inner_->at_safepoint(rank);
  }
  void rank_started(gcr::mpi::Rank& rank) override {
    const Clock::time_point t0 = Clock::now();
    inner_->rank_started(rank);
    stats_->hook_rank_started_s += seconds_since(t0);
  }
  void rank_finished(gcr::mpi::Rank& rank) override {
    inner_->rank_finished(rank);
  }
  void rank_killed(gcr::mpi::Rank& rank) override {
    const Clock::time_point t0 = Clock::now();
    inner_->rank_killed(rank);
    stats_->hook_rank_killed_s += seconds_since(t0);
  }

 private:
  gcr::mpi::Interposer* inner_;
  LayerStats* stats_;
};

/// Message-path counts (passive; adds no simulated work).
class CountingObserver final : public gcr::mpi::Observer {
 public:
  explicit CountingObserver(LayerStats& stats) : stats_(&stats) {}
  void on_send(const gcr::mpi::Rank&, const gcr::mpi::Message&,
               bool transmitted) override {
    ++(transmitted ? stats_->sends : stats_->suppressed_sends);
  }
  void on_deliver(const gcr::mpi::Rank&, const gcr::mpi::Message&) override {
    ++stats_->deliveries;
  }
  void on_consume(const gcr::mpi::Rank&, const gcr::mpi::Message&) override {
    ++stats_->consumes;
  }

 private:
  LayerStats* stats_;
};

/// Bytes moved by every storage device of the cluster.
void add_storage_bytes(gcr::sim::Cluster& cluster, LayerStats& stats) {
  std::vector<gcr::sim::StorageDevice*> devices;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    devices.push_back(&cluster.local_disk(n));
    if (cluster.has_remote_storage()) {
      devices.push_back(&cluster.remote_server_for(n));
    }
    if (cluster.has_tiered_storage()) {
      devices.push_back(&cluster.node_buffer(n));
      devices.push_back(&cluster.burst_buffer_for(n));
    }
  }
  if (cluster.has_tiered_storage()) devices.push_back(&cluster.pfs());
  std::sort(devices.begin(), devices.end());
  devices.erase(std::unique(devices.begin(), devices.end()), devices.end());
  for (const gcr::sim::StorageDevice* d : devices) {
    stats.storage_written += d->bytes_written();
    stats.storage_read += d->bytes_read();
  }
}

}  // namespace

JobOutcome run_traced(const Job& job, SpanLog& spans, int parent,
                      LayerStats& stats) {
  const ExperimentConfig& config = job.config;
  GCR_CHECK(config.shards == 1 && config.groups.has_value() &&
            config.protocol == gcr::exp::ProtocolKind::kGroup &&
            config.churn.kind == gcr::sim::ChurnModelKind::kNone);
  const int job_span = spans.begin("exp.job." + job.mode, parent);
  double loop_s = 0;
  double restart_loop_s = 0;
  gcr::exp::ExperimentResult result;
  {
    gcr::sim::Cluster cluster(cluster_params(config));
    gcr::mpi::Runtime runtime(cluster, config.nranks);
    gcr::apps::AppSpec spec = config.app(config.nranks);

    gcr::ckpt::CheckpointerOptions ckpt_opts;
    ckpt_opts.remote_storage = config.remote_storage;
    ckpt_opts.mode = config.storage.mode;
    ckpt_opts.bb_capacity_bytes = static_cast<std::int64_t>(
        config.storage.burst_buffer_capacity_bytes);
    gcr::ckpt::Checkpointer checkpointer(cluster, ckpt_opts);
    gcr::ckpt::ImageRegistry registry;
    registry.reserve_ranks(config.nranks);
    gcr::core::Metrics metrics;

    CountingObserver observer(stats);
    runtime.add_observer(&observer);
    gcr::core::GroupProtocol protocol(runtime, *config.groups, checkpointer,
                                      registry, spec.image_bytes, metrics,
                                      config.protocol_options);
    ForwardingInterposer forwarder(protocol, stats);
    runtime.set_protocol(&forwarder);
    std::unique_ptr<gcr::core::CheckpointScheduler> scheduler;
    if (config.checkpoints) {
      scheduler = std::make_unique<gcr::core::CheckpointScheduler>(
          gcr::core::CheckpointScheduler::for_groups(runtime, protocol,
                                                     config.schedule));
    }
    gcr::core::RecoveryManager recovery(runtime, protocol, registry,
                                        checkpointer, config.recovery);
    for (const gcr::exp::FailurePlan& f : config.failures) {
      recovery.fail_group_at(f.group, gcr::sim::from_seconds(f.at_s));
    }
    if (config.fault_model.kind != gcr::sim::FaultModelKind::kNone) {
      recovery.arm_fault_model(gcr::sim::make_fault_model(config.fault_model));
    }
    if (scheduler) scheduler->start();
    runtime.start_app(spec.body);

    const gcr::sim::Time deadline = gcr::sim::from_seconds(config.max_sim_s);
    const int loop_span = spans.begin("sim.loop", job_span);
    cluster.shards().run_while([&] {
      return !runtime.job_finished() && cluster.engine().now() < deadline;
    });
    spans.end(loop_span);
    loop_s = spans.duration(loop_span);
    protocol.finalize_metrics();

    result.finished = runtime.job_finished();
    const gcr::sim::Time end_time = cluster.engine().now();
    result.exec_time_s = gcr::sim::to_seconds(end_time);
    result.app_messages = runtime.app_messages_sent();
    result.app_bytes = runtime.app_bytes_sent();
    result.failures_injected = recovery.failures_injected();
    result.failures_absorbed = recovery.failures_absorbed();
    result.recoveries_completed = recovery.recoveries_completed();
    result.recoveries_aborted = recovery.recoveries_aborted();

    if (result.finished && config.restart_after_finish) {
      const int restart_span = spans.begin("core.restart_loop", job_span);
      const std::size_t before = metrics.restarts.size();
      recovery.restart_all_at(cluster.engine().now() +
                              gcr::sim::from_seconds(1.0));
      const std::size_t want =
          before + static_cast<std::size_t>(config.nranks);
      cluster.shards().run_while([&] {
        return metrics.restarts.size() < want &&
               cluster.engine().now() <
                   deadline + gcr::sim::from_seconds(5000);
      });
      GCR_CHECK_MSG(metrics.restarts.size() >= want,
                    "whole-application restart did not complete");
      for (std::size_t i = before; i < metrics.restarts.size(); ++i) {
        result.restart_records.push_back(metrics.restarts[i]);
      }
      spans.end(restart_span);
      restart_loop_s = spans.duration(restart_span);
    }
    result.shard_events.push_back(cluster.shards().events_processed());
    result.checkpoints_completed = metrics.completed_rounds(config.nranks);
    if (const gcr::ckpt::TierStats* ts = checkpointer.tier_stats()) {
      result.tier_stats = *ts;
    }

    gcr::sim::Network& net = cluster.network();
    stats.net_messages += net.total_messages();
    stats.net_bytes += net.total_bytes();
    stats.fabric_offered += net.fabric_bytes_offered();
    stats.fabric_dropped += net.fabric_bytes_dropped();
    stats.app_messages += result.app_messages;
    stats.app_bytes += result.app_bytes;
    add_storage_bytes(cluster, stats);
    result.metrics = std::move(metrics);
  }
  spans.end(job_span);

  const double job_s = spans.duration(job_span);
  stats.job_s[job.mode] += job_s;
  stats.loop_s += loop_s;
  stats.restart_loop_s += restart_loop_s;
  stats.build_s += job_s - loop_s - restart_loop_s;

  const JobOutcome o = outcome_of(result);
  stats.events += o.events;
  stats.restart_s += o.restart_s;
  const gcr::core::Metrics& m = result.metrics;
  stats.logged_messages += m.logged_messages;
  stats.logged_bytes += m.logged_bytes;
  stats.resend_messages += m.resend_messages;
  for (const gcr::core::CkptRecord& c : m.ckpts) {
    stats.phase_lock_s += c.phases.lock_mpi;
    stats.phase_coord_s += c.phases.coordination;
    stats.phase_image_s += c.phases.checkpoint;
    stats.phase_finalize_s += c.phases.finalize;
  }
  stats.failures += result.failures_injected;
  stats.recoveries_completed += result.recoveries_completed;
  stats.recoveries_aborted += result.recoveries_aborted;
  const gcr::ckpt::TierStats& t = result.tier_stats;
  stats.images_staged += t.images_staged;
  stats.drains_completed += t.drains_completed;
  stats.evictions += t.evictions;
  stats.writer_stalls += t.writer_stalls;
  stats.bb_bytes_peak = std::max(stats.bb_bytes_peak, t.bb_bytes_peak);
  stats.reads_local += t.reads_local;
  stats.reads_bb += t.reads_bb;
  stats.reads_pfs += t.reads_pfs;
  return o;
}

int SpanLog::begin(std::string name, int parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start = std::chrono::duration<double>(Clock::now() - origin_).count();
  s.end = s.start;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int span) {
  spans_[static_cast<std::size_t>(span)].end =
      std::chrono::duration<double>(Clock::now() - origin_).count();
}

double SpanLog::duration(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  return s.end - s.start;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
