// BLCR-like per-process checkpointer model over pluggable storage paths.
//
// The protocol treats the system-level checkpointer as a black box that
// dumps/loads a process image of a given size; what matters for every
// experiment is the duration, which is dominated by storage (local disk, a
// shared NFS checkpoint server with heavy contention at scale — paper §5.3
// — or the burst-buffer/PFS tier hierarchy of DESIGN.md §13). A fixed
// per-image setup cost models BLCR's quiesce/fork work.
//
// Image IO is two-phase to mirror ImageRegistry's visibility protocol:
// stage_image makes the bytes durable at the mode's commit tier,
// commit_image makes them the restore source, discard_staged throws them
// away on failure. In StorageMode::kDirect the stage/commit calls reduce to
// exactly the legacy single-device write (commit is a no-op), which keeps
// pre-tier campaign outputs bit-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/tiers.hpp"
#include "sim/cluster.hpp"
#include "sim/co.hpp"

namespace gcr::ckpt {

struct CheckpointerOptions {
  bool remote_storage = false;   ///< direct mode: write to shared NFS servers
  /// Storage path for images. Non-direct modes require the cluster's tier
  /// hierarchy (ClusterParams::tiers) and exclude `remote_storage`.
  StorageMode mode = StorageMode::kDirect;
  /// Aggregate burst-buffer capacity (non-direct modes only).
  std::int64_t bb_capacity_bytes = std::int64_t{8} << 30;
};

class Checkpointer {
 public:
  /// BLCR quiesce + metadata per image, paid on every dump and load (s).
  static constexpr double kSetupS = 0.05;

  /// `cluster` must outlive the checkpointer. Asserts that the cluster has
  /// the devices the configured mode needs.
  Checkpointer(sim::Cluster& cluster, CheckpointerOptions options = {})
      : cluster_(&cluster), options_(options) {
    if (options_.mode == StorageMode::kDirect) {
      if (options_.remote_storage) {
        GCR_CHECK_MSG(cluster.has_remote_storage(),
                      "remote_storage requires cluster remote servers");
      }
    } else {
      GCR_CHECK_MSG(!options_.remote_storage,
                    "remote_storage is a direct-mode path; tiered modes "
                    "write through the burst buffer");
      tiers_.emplace(cluster,
                     TierStoreOptions{options_.mode,
                                      options_.bb_capacity_bytes});
    }
  }

  const CheckpointerOptions& options() const { return options_; }

  /// Dumps an image of `bytes` from the process on `node` for `rank` at
  /// checkpoint `epoch`. Blocks the caller until the image is durable at
  /// the mode's commit tier (direct device / burst buffer); the image
  /// stays STAGED until commit_image or discard_staged. Kill-safe: a
  /// failure mid-write strands no device slot or tier capacity.
  sim::Co<void> stage_image(int node, mpi::RankId rank, std::uint64_t epoch,
                            std::int64_t bytes) {
    co_await sim::delay(cluster_->engine(), sim::from_seconds(kSetupS));
    if (tiers_) {
      co_await tiers_->stage_image(node, rank, epoch, bytes);
    } else {
      co_await device_for(node).write(bytes);
    }
  }

  /// Promotes one rank's staged image to the restore source and starts the
  /// write-behind drain in kDrain mode. Synchronous (no suspension), so a
  /// leader can commit a whole group at one simulated instant; pair with
  /// ImageRegistry::commit_group. No-op in direct mode.
  void commit_image(mpi::RankId rank) {
    if (tiers_) tiers_->commit_image(rank);
  }

  /// commit_image for every group member, in member order.
  void commit_images(const std::vector<mpi::RankId>& ranks) {
    for (mpi::RankId r : ranks) commit_image(r);
  }

  /// Drops a rank's staged image bytes, if any (failure before the group's
  /// commit point). Synchronous; pair with ImageRegistry::discard_staged.
  void discard_staged(mpi::RankId rank) {
    if (tiers_) tiers_->discard_staged(rank);
  }

  /// Node fault: the rank's stage dies with it AND its committed image
  /// loses node-buffer residency, so the coming restore reads from a
  /// shared tier (burst buffer / PFS). Voluntary restarts skip this — a
  /// relaunch on a healthy node reads back at staging-buffer speed.
  /// Synchronous. (The recovery manager's failure path calls this; the
  /// protocol's kill hook calls only discard_staged.)
  void on_node_failed(mpi::RankId rank) {
    if (tiers_) tiers_->on_node_failed(rank);
  }

  /// Loads `rank`'s image of `bytes` back into a process on `node`,
  /// reading from the fastest tier holding the committed image (direct
  /// mode: the node's device). Blocks until the data is in memory.
  sim::Co<void> read_image(int node, mpi::RankId rank, std::int64_t bytes) {
    co_await sim::delay(cluster_->engine(), sim::from_seconds(kSetupS));
    if (tiers_) {
      co_await tiers_->read_image(node, rank, bytes);
    } else {
      co_await device_for(node).read(bytes);
    }
  }

  /// Tier counters, or nullptr in direct mode.
  const TierStats* tier_stats() const {
    return tiers_ ? &tiers_->stats() : nullptr;
  }

 private:
  /// The direct-mode device a given node writes images to.
  sim::StorageDevice& device_for(int node) {
    return options_.remote_storage ? cluster_->remote_server_for(node)
                                   : cluster_->local_disk(node);
  }

  sim::Cluster* cluster_;
  CheckpointerOptions options_;
  std::optional<TierStore> tiers_;
};

}  // namespace gcr::ckpt
