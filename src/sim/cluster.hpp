// Cluster: the simulated machine — engine + network + storage + jitter +
// seed.
//
// One Cluster is one reproducible experiment environment. Every stochastic
// component draws from a substream derived from (run seed, stream id), so
// adding a new consumer never perturbs existing streams.
//
// Storage comes in two independent families:
//   * the legacy direct devices — one local disk per node plus optional
//     shared NFS checkpoint servers (the paper's Gideon-300 setup);
//   * the tier hierarchy (enabled by num_burst_buffers > 0) — a per-node
//     memory-speed staging buffer, shared burst buffers, and one parallel
//     file system. Tier *policy* (capacity, eviction, drain, residency)
//     lives in ckpt/tiers.hpp; the cluster only owns the devices.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/jitter.hpp"
#include "sim/network.hpp"
#include "sim/storage.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gcr::sim {

/// Device parameters for the checkpoint tier hierarchy (DESIGN.md §13).
/// Devices are only constructed when `num_burst_buffers > 0`, so the
/// default cluster is structurally identical to the pre-tier one.
struct StorageTierParams {
  /// Per-node staging buffer (page-cache / RAM speed; one per node).
  StorageParams node_buffer{/*bandwidth_Bps=*/2e9, /*latency_s=*/1e-5,
                            /*concurrency=*/1};
  int num_burst_buffers = 0;  ///< 0 = tier hierarchy absent
  /// Shared burst-buffer servers (nodes map round-robin, like NFS).
  StorageParams burst_buffer{/*bandwidth_Bps=*/400e6, /*latency_s=*/1e-3,
                             /*concurrency=*/4};
  /// The parallel file system: one shared device whose `concurrency`
  /// models its stripe width (K writers fair-share the aggregate pipe).
  StorageParams pfs{/*bandwidth_Bps=*/50e6, /*latency_s=*/5e-3,
                    /*concurrency=*/8};
};

struct ClusterParams {
  int num_nodes = 16;
  std::uint64_t seed = 1;
  /// Engines per simulation. Only 1 is accepted: every simulation runs on
  /// one sim::Engine. The field stays because perfbench/traced.cpp sets it;
  /// the next benchmark change removes it.
  int num_shards = 1;
  NetParams net;
  StorageParams local_disk{/*bandwidth_Bps=*/100e6, /*latency_s=*/5e-3};
  int num_remote_servers = 0;  ///< checkpoint servers (0 = local disk only)
  StorageParams remote_server{/*bandwidth_Bps=*/12.5e6, /*latency_s=*/10e-3};
  StorageTierParams tiers;
  JitterParams jitter;
};

class Cluster {
 public:
  explicit Cluster(const ClusterParams& params)
      : num_nodes_(params.num_nodes),
        seed_(params.seed),
        network_(engine_, params.num_nodes, params.net),
        jitter_(params.jitter) {
    GCR_CHECK(params.num_nodes > 0);
    GCR_CHECK_MSG(params.num_shards == 1,
                  "every simulation runs on one engine (num_shards == 1)");
    local_disks_.reserve(static_cast<std::size_t>(params.num_nodes));
    for (int n = 0; n < params.num_nodes; ++n) {
      local_disks_.push_back(
          std::make_unique<StorageDevice>(engine_, params.local_disk));
    }
    for (int s = 0; s < params.num_remote_servers; ++s) {
      remote_servers_.push_back(
          std::make_unique<StorageDevice>(engine_, params.remote_server));
    }
    if (params.tiers.num_burst_buffers > 0) {
      node_buffers_.reserve(static_cast<std::size_t>(params.num_nodes));
      for (int n = 0; n < params.num_nodes; ++n) {
        node_buffers_.push_back(std::make_unique<StorageDevice>(
            engine_, params.tiers.node_buffer));
      }
      for (int b = 0; b < params.tiers.num_burst_buffers; ++b) {
        burst_buffers_.push_back(std::make_unique<StorageDevice>(
            engine_, params.tiers.burst_buffer));
      }
      pfs_ = std::make_unique<StorageDevice>(engine_, params.tiers.pfs);
    }
  }

  /// The simulation's one event engine; every model object lives on it.
  Engine& engine() { return engine_; }
  /// The same engine under its old name, kept because perfbench/traced.cpp
  /// drives runs through it; the next benchmark change removes it.
  Engine& shards() { return engine_; }
  Network& network() { return network_; }

  int num_nodes() const { return num_nodes_; }

  /// The node's private direct-attached disk.
  StorageDevice& local_disk(int node) {
    GCR_CHECK(node >= 0 && node < num_nodes());
    return *local_disks_[static_cast<std::size_t>(node)];
  }

  bool has_remote_storage() const { return !remote_servers_.empty(); }

  /// The checkpoint server a given node writes to (round-robin assignment,
  /// matching the paper's 4-isolated-server setup).
  StorageDevice& remote_server_for(int node) {
    GCR_CHECK(has_remote_storage());
    return *remote_servers_[static_cast<std::size_t>(node) %
                            remote_servers_.size()];
  }

  /// True when the burst-buffer/PFS tier hierarchy was configured.
  bool has_tiered_storage() const { return pfs_ != nullptr; }

  /// The node's memory-speed staging buffer (tier hierarchy only).
  StorageDevice& node_buffer(int node) {
    GCR_CHECK(has_tiered_storage());
    GCR_CHECK(node >= 0 && node < num_nodes());
    return *node_buffers_[static_cast<std::size_t>(node)];
  }

  /// The shared burst buffer a given node stages into (round-robin).
  StorageDevice& burst_buffer_for(int node) {
    GCR_CHECK(has_tiered_storage());
    return *burst_buffers_[static_cast<std::size_t>(node) %
                           burst_buffers_.size()];
  }

  /// The parallel file system (tier hierarchy only; one shared device).
  StorageDevice& pfs() {
    GCR_CHECK(has_tiered_storage());
    return *pfs_;
  }

  /// Deterministic substream for a named consumer.
  Rng make_rng(std::uint64_t stream_id) const {
    return Rng(mix_seed(seed_, stream_id));
  }

  /// One jitter sample from the given stream.
  Time draw_jitter(Rng& rng) const { return jitter_.draw(rng); }

 private:
  int num_nodes_;
  std::uint64_t seed_;
  /// Declared before every device so the engine is destroyed last.
  Engine engine_;
  Network network_;
  JitterModel jitter_;
  std::vector<std::unique_ptr<StorageDevice>> local_disks_;
  std::vector<std::unique_ptr<StorageDevice>> remote_servers_;
  std::vector<std::unique_ptr<StorageDevice>> node_buffers_;
  std::vector<std::unique_ptr<StorageDevice>> burst_buffers_;
  std::unique_ptr<StorageDevice> pfs_;
};

}  // namespace gcr::sim
