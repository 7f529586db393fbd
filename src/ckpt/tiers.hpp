// Multi-tier checkpoint storage: residency, write-behind drain, eviction.
//
// The cluster (sim/cluster.hpp) owns the tier DEVICES — per-node staging
// buffer, shared burst buffers, parallel file system. This module owns the
// tier POLICY: which tiers hold which rank's image, when a group's commit
// is durable, when the burst buffer drains to the PFS, and what a restart
// reads. See DESIGN.md §13.
//
// Write path (stage_image): setup is charged by the Checkpointer; the image
// is copied through the node's staging buffer, reserves burst-buffer
// capacity (stalling for evictions/drains under pressure), and lands on a
// burst-buffer server. It is then STAGED: the group protocol's finalize
// barrier decides whether it becomes visible (commit_image) or is thrown
// away (discard_staged) — mirroring ImageRegistry's two-phase visibility,
// with byte accounting attached.
//
// Commit semantics by mode:
//   * kBurstBuffer — the commit point is burst-buffer durability; images
//     stay resident there forever (nothing is evictable), so the capacity
//     must cover the committed working set plus one group's stage —
//     exhausting it is asserted as a configuration error, never a stall.
//   * kDrain — the commit point is still burst-buffer durability, but a
//     background write-behind drains each committed image to the PFS
//     through the burst buffer's outbound pipe (modeled as the PFS write
//     alone). Drained images become evictable under capacity pressure; a
//     superseding commit abandons an in-flight drain.
//
// Restart reads from the FASTEST tier holding the committed image: the
// node staging buffer if the rank never died since the commit, else a
// burst buffer, else the PFS. A node fault (PR-4 fault models) loses that
// rank's staging-buffer residency, so post-failure restores fall back to
// the shared tiers — the invariant `committed => resident somewhere` is
// asserted, never silently violated.
//
// Every call takes effect at the instant it is made: stage and read run
// their device transfers in the caller's coroutine; commit,
// discard and failure notices update residency synchronously, so a whole
// group's commits issued at one instant land at that instant (the
// leader's atomic-commit contract).
//
// Kill-safety: stage_image may be killed at any suspension (ProcessKilled
// unwind); reserved-but-unstaged capacity is returned by an RAII guard, so
// burst-buffer bytes are never stranded by a failure mid-checkpoint.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "mpi/message.hpp"
#include "sim/cluster.hpp"
#include "sim/co.hpp"

namespace gcr::ckpt {

/// Where checkpoint images go and what "durable" means for a commit.
enum class StorageMode {
  kDirect,       ///< legacy: straight to local disk / NFS (bit-reproducible)
  kBurstBuffer,  ///< commit at burst-buffer durability; no PFS copy
  kDrain,        ///< commit at burst-buffer durability + async PFS drain
};

/// Stable lowercase name (config parsing, table headers).
const char* storage_mode_name(StorageMode mode);

/// Counters exposed through ExperimentResult. All are monotone over a
/// run except `bb_bytes_used`, a current-occupancy gauge.
struct TierStats {
  std::int64_t images_staged = 0;    ///< stage_image completions
  std::int64_t drains_started = 0;   ///< write-behind coroutines spawned
  std::int64_t drains_completed = 0; ///< drains that marked PFS residency
  std::int64_t drains_abandoned = 0; ///< drains killed by a superseding epoch
  std::int64_t evictions = 0;        ///< drained images dropped for capacity
  std::int64_t writer_stalls = 0;    ///< stage waits for burst-buffer space
  std::int64_t bb_bytes_used = 0;    ///< current burst-buffer occupancy
  std::int64_t bb_bytes_peak = 0;    ///< high-water occupancy (bound: capacity)
  std::int64_t reads_local = 0;      ///< restores served from the node buffer
  std::int64_t reads_bb = 0;         ///< restores served from a burst buffer
  std::int64_t reads_pfs = 0;        ///< restores served from the PFS
};

/// Tier residency and drain orchestration for checkpoint images, keyed by
/// rank with ImageRegistry-style stage/commit/discard two-phase visibility.
/// Requires cluster.has_tiered_storage(); one instance per experiment.
class TierStore {
 public:
  /// `mode` is kBurstBuffer or kDrain; `bb_capacity_bytes` is the
  /// aggregate burst-buffer capacity across all servers (one logical pool).
  TierStore(sim::Cluster& cluster, StorageMode mode,
            std::int64_t bb_capacity_bytes);

  const TierStats& stats() const { return stats_; }

  /// Stages `bytes` for `rank` (hosted on `node`) at checkpoint `epoch`:
  /// node-buffer copy, capacity reservation (may stall under pressure),
  /// burst-buffer write. Completes at burst-buffer durability. Replaces
  /// any prior stage for the rank. Kill-safe (see header comment).
  sim::Co<void> stage_image(int node, mpi::RankId rank, std::uint64_t epoch,
                            std::int64_t bytes);

  /// Promotes the rank's staged image to committed (restore-visible),
  /// superseding — and freeing — the previous committed image, and starts
  /// the write-behind drain in kDrain mode.
  void commit_image(mpi::RankId rank);

  /// Drops the rank's staged image, if any, returning its burst-buffer
  /// bytes (failure before the group's commit point).
  void discard_staged(mpi::RankId rank);

  /// Node fault: the rank's staged image dies with the process and its
  /// committed image loses node-buffer residency (restores fall back to
  /// the shared tiers). NOT invoked for voluntary restarts — a relaunch on
  /// a healthy node reloads from the warm staging buffer.
  void on_node_failed(mpi::RankId rank);

  /// Restart read: `bytes` from the fastest tier holding the rank's
  /// committed image (node buffer > burst buffer > PFS). Asserts that a
  /// committed image exists — callers gate on ImageRegistry::latest.
  sim::Co<void> read_image(int node, mpi::RankId rank, std::int64_t bytes);

 private:
  /// One image's tier residency. `in_local` refers to the staging buffer
  /// of the node the image was written from.
  struct Image {
    std::uint64_t epoch = 0;
    std::int64_t bytes = 0;
    bool in_local = false;
    bool in_bb = false;
    bool in_pfs = false;
    sim::ProcPtr drain;  ///< in-flight write-behind, if any
  };
  struct RankImages {
    std::optional<Image> staged;
    std::optional<Image> committed;
    std::uint64_t commit_seq = 0;  ///< for oldest-first eviction
  };

  /// Grants `bytes` of burst-buffer capacity, evicting drained images or
  /// (kDrain only) stalling while the pool is exhausted; in kBurstBuffer
  /// mode an exhausted pool is asserted as a configuration error.
  sim::Co<void> reserve_bb(std::int64_t bytes);
  /// Evicts oldest drained committed images until `bytes` fit or nothing
  /// is evictable; returns true if the reservation now fits.
  bool evict_for(std::int64_t bytes);
  void release_bb(std::int64_t bytes);
  void drop_committed(RankImages& ri);
  sim::Co<void> drain_body(mpi::RankId rank, std::uint64_t epoch,
                           std::int64_t bytes);

  sim::Cluster* cluster_;
  StorageMode mode_;
  std::int64_t bb_capacity_bytes_;
  TierStats stats_;
  std::map<mpi::RankId, RankImages> ranks_;
  std::uint64_t next_commit_seq_ = 1;
  sim::Trigger space_freed_;
};

}  // namespace gcr::ckpt
