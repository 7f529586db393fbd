#include "ckpt/tiers.hpp"

#include <algorithm>
#include <utility>

#include "sim/awaitables.hpp"
#include "util/assert.hpp"

namespace gcr::ckpt {

const char* storage_mode_name(StorageMode mode) {
  switch (mode) {
    case StorageMode::kDirect: return "direct";
    case StorageMode::kBurstBuffer: return "bb";
    case StorageMode::kDrain: return "drain";
  }
  return "?";
}

TierStore::TierStore(sim::Cluster& cluster, StorageMode mode,
                     std::int64_t bb_capacity_bytes)
    : cluster_(&cluster),
      mode_(mode),
      bb_capacity_bytes_(bb_capacity_bytes),
      space_freed_(cluster.engine()) {
  GCR_CHECK_MSG(cluster.has_tiered_storage(),
                "TierStore requires cluster burst buffers (num_burst_buffers)");
  GCR_CHECK_MSG(mode_ != StorageMode::kDirect,
                "direct mode bypasses the tier store");
  GCR_CHECK(bb_capacity_bytes_ > 0);
}

// ------------------------------------------------------- capacity arbiter

void TierStore::release_bb(std::int64_t bytes) {
  stats_.bb_bytes_used -= bytes;
  GCR_CHECK(stats_.bb_bytes_used >= 0);
  space_freed_.fire();
}

bool TierStore::evict_for(std::int64_t bytes) {
  while (stats_.bb_bytes_used + bytes > bb_capacity_bytes_) {
    // Oldest-commit-first over images that already drained to the PFS —
    // the only residents whose eviction keeps `committed => resident`.
    RankImages* victim = nullptr;
    for (auto& [rank, ri] : ranks_) {
      if (ri.committed && ri.committed->in_bb && ri.committed->in_pfs &&
          (victim == nullptr || ri.commit_seq < victim->commit_seq)) {
        victim = &ri;
      }
    }
    if (victim == nullptr) return false;
    victim->committed->in_bb = false;
    ++stats_.evictions;
    release_bb(victim->committed->bytes);
  }
  return true;
}

sim::Co<void> TierStore::reserve_bb(std::int64_t bytes) {
  GCR_CHECK_MSG(bytes <= bb_capacity_bytes_,
                "one image exceeds the whole burst-buffer capacity");
  for (;;) {
    if (stats_.bb_bytes_used + bytes <= bb_capacity_bytes_) break;
    if (evict_for(bytes)) break;
    // Pool exhausted and nothing evictable. In kDrain mode progress is
    // guaranteed — every committed image eventually drains and becomes
    // evictable — so the writer parks until a drain/discard/supersede
    // frees space. In kBurstBuffer mode nothing ever drains, and a
    // group's commit cannot free space before ALL its members staged, so
    // waiting here can deadlock the job into a watchdog trip; fail fast
    // with the sizing rule instead.
    GCR_CHECK_MSG(
        mode_ == StorageMode::kDrain,
        "burst-buffer capacity exhausted in kBurstBuffer mode (nothing "
        "drains, so nothing is evictable): size bb_capacity_bytes to at "
        "least the committed images plus one full group's stage");
    ++stats_.writer_stalls;
    space_freed_.reset();
    co_await space_freed_.wait();
  }
  stats_.bb_bytes_used += bytes;
  stats_.bb_bytes_peak = std::max(stats_.bb_bytes_peak, stats_.bb_bytes_used);
}

// ------------------------------------------------------------- write path

sim::Co<void> TierStore::stage_image(int node, mpi::RankId rank,
                                     std::uint64_t epoch, std::int64_t bytes) {
  GCR_CHECK(bytes >= 0);
  // Memory-speed copy out of the application's address space into the
  // node's staging buffer (the process resumes only after the full image
  // left its memory — same blocking contract as a direct device write).
  co_await cluster_->node_buffer(node).write(bytes);
  co_await reserve_bb(bytes);
  // From here the reservation must survive a mid-transfer kill: the guard
  // returns it unless the bytes are handed off to the staged image below.
  struct ReserveGuard {
    TierStore* ts;
    std::int64_t bytes;
    bool handed_off = false;
    ~ReserveGuard() {
      if (!handed_off) ts->release_bb(bytes);
    }
  } guard{this, bytes};
  co_await cluster_->burst_buffer_for(node).write(bytes);

  RankImages& ri = ranks_[rank];
  if (ri.staged) release_bb(ri.staged->bytes);  // replaced prior stage
  Image img;
  img.epoch = epoch;
  img.bytes = bytes;
  img.in_local = true;
  img.in_bb = true;
  ri.staged = std::move(img);
  guard.handed_off = true;
  ++stats_.images_staged;
}

void TierStore::drop_committed(RankImages& ri) {
  if (!ri.committed) return;
  if (ri.committed->drain && ri.committed->drain->alive()) {
    // Write-behind of a superseded epoch: abandon it (the PFS stops
    // spending bandwidth on an image no restore will ever pick).
    cluster_->engine().kill(*ri.committed->drain);
    ++stats_.drains_abandoned;
  }
  if (ri.committed->in_bb) release_bb(ri.committed->bytes);
  ri.committed.reset();
}

void TierStore::commit_image(mpi::RankId rank) {
  RankImages& ri = ranks_[rank];
  GCR_CHECK_MSG(ri.staged.has_value(),
                "commit_image without a staged image (finalize barrier "
                "passed without a write?)");
  drop_committed(ri);
  ri.committed = std::move(ri.staged);
  ri.staged.reset();
  ri.commit_seq = next_commit_seq_++;
  if (mode_ == StorageMode::kDrain) {
    ++stats_.drains_started;
    ri.committed->drain = cluster_->engine().spawn(
        drain_body(rank, ri.committed->epoch, ri.committed->bytes));
  }
}

void TierStore::discard_staged(mpi::RankId rank) {
  auto it = ranks_.find(rank);
  if (it == ranks_.end() || !it->second.staged) return;
  release_bb(it->second.staged->bytes);
  it->second.staged.reset();
}

void TierStore::on_node_failed(mpi::RankId rank) {
  discard_staged(rank);
  auto it = ranks_.find(rank);
  if (it != ranks_.end() && it->second.committed) {
    // The node's staging buffer dies with the process; the committed image
    // survives on the shared tiers (burst buffer and/or PFS).
    it->second.committed->in_local = false;
  }
}

sim::Co<void> TierStore::drain_body(mpi::RankId rank, std::uint64_t epoch,
                                    std::int64_t bytes) {
  // The burst buffer's outbound pipe is separate from its ingest pipe;
  // the drain is charged as the PFS write alone (PFS writers fair-share).
  co_await cluster_->pfs().write(bytes);
  RankImages& ri = ranks_[rank];
  if (ri.committed && ri.committed->epoch == epoch) {
    ri.committed->in_pfs = true;
    ri.committed->drain.reset();
    ++stats_.drains_completed;
    // Nothing freed yet, but drained images are evictable: wake writers
    // stalled on capacity so they can run the eviction pass.
    space_freed_.fire();
  }
}

// -------------------------------------------------------------- read path

sim::Co<void> TierStore::read_image(int node, mpi::RankId rank,
                                    std::int64_t bytes) {
  auto it = ranks_.find(rank);
  GCR_CHECK_MSG(it != ranks_.end() && it->second.committed.has_value(),
                "tier read for a rank with no committed image");
  const Image& img = *it->second.committed;
  if (img.in_local) {
    // Warm restart: the committed image never left the node's staging
    // buffer, so the read runs at memory speed.
    ++stats_.reads_local;
    co_await cluster_->node_buffer(node).read(bytes);
  } else if (img.in_bb) {
    ++stats_.reads_bb;
    co_await cluster_->burst_buffer_for(node).read(bytes);
  } else {
    GCR_CHECK_MSG(img.in_pfs, "committed image resident in no tier");
    ++stats_.reads_pfs;
    co_await cluster_->pfs().read(bytes);
  }
}

}  // namespace gcr::ckpt
