// Checkpoint image metadata and the in-memory image registry.
//
// The *timing* of image IO is modeled through sim::StorageDevice (and, in
// tiered modes, ckpt::TierStore, whose stage/commit/discard transitions
// mirror this registry's visibility protocol byte-for-byte); the *content*
// that must survive a restart (runtime snapshot + protocol state) is held
// here, keyed by rank. This is the modeled equivalent of BLCR
// context files plus the protocol's flushed message logs.
#pragma once

#include <any>
#include <cstdint>
#include <optional>
#include <vector>

#include "mpi/rank.hpp"
#include "util/assert.hpp"

namespace gcr::ckpt {

struct ImageMeta {
  mpi::RankId rank = 0;
  std::uint64_t epoch = 0;       ///< per-group checkpoint counter
  std::int64_t bytes = 0;        ///< modeled image size (drives IO timing)
  /// Registry-global commit identity: every commit_group call stamps one
  /// fresh cut id on the images it promotes. Two images share a cut_seq iff
  /// they were committed by the same group commit — i.e. they belong to one
  /// consistent coordinated cut. Restore uses this to decide which peers a
  /// restored rank must exchange/replay with when elastic regrouping has
  /// mixed cuts inside one group (DESIGN.md §16).
  std::uint64_t cut_seq = 0;
};

/// One durable per-rank checkpoint: what a restart reads back.
struct StoredCheckpoint {
  ImageMeta meta;
  mpi::RankSnapshot runtime_state;
  std::any protocol_state;  ///< protocol-private snapshot (message logs, RR)
};

/// Latest-image registry. The paper keeps one checkpoint per group (each
/// successful checkpoint "comes with a correct set of message logs" and
/// supersedes the previous); we keep the latest per rank.
///
/// Storage is a flat per-rank slot array, grown lazily; `reserve_ranks`
/// pre-sizes it.
///
/// Image visibility is two-phase so a failure mid-checkpoint never exposes
/// a torn or mixed-epoch group cut: each member stages its image at the
/// consistent cut, and once every member's write has finished (the group's
/// finalize barrier acks are all in) the leader commits the whole group's
/// staged images at one simulated instant with `commit_group`. A failure
/// before the commit discards the stage (`discard_staged`, called when a
/// rank is killed), so restore either sees the complete new epoch for every
/// member or the previous epoch for every member — never a mixture.
class ImageRegistry {
 public:
  /// Pre-sizes the slot arrays for ranks [0, n).
  void reserve_ranks(int n) {
    const auto s = static_cast<std::size_t>(n);
    if (images_.size() < s) images_.resize(s);
    if (staged_.size() < s) staged_.resize(s);
  }

  /// Stages a rank's image pending group commit (replaces any prior stage).
  void stage(StoredCheckpoint image) {
    const mpi::RankId r = image.meta.rank;
    ensure(r);
    staged_[static_cast<std::size_t>(r)] = std::move(image);
  }

  /// Drops a rank's staged image, if any (failure before commit).
  void discard_staged(mpi::RankId rank) {
    if (static_cast<std::size_t>(rank) < staged_.size()) {
      staged_[static_cast<std::size_t>(rank)].reset();
    }
  }

  /// True while a staged image awaits its group's commit.
  bool has_staged(mpi::RankId rank) const {
    return static_cast<std::size_t>(rank) < staged_.size() &&
           staged_[static_cast<std::size_t>(rank)].has_value();
  }

  /// Atomically promotes every member's staged image of `epoch` to latest.
  /// All members must have staged that epoch (protocol invariant: the
  /// finalize barrier only passes once every member wrote its image).
  void commit_group(const std::vector<mpi::RankId>& members,
                    std::uint64_t epoch) {
    const std::uint64_t cut = ++cuts_;
    for (mpi::RankId r : members) {
      ensure(r);
      std::optional<StoredCheckpoint>& st = staged_[static_cast<std::size_t>(r)];
      GCR_CHECK_MSG(st.has_value() && st->meta.epoch == epoch,
                    "commit_group: a member has no staged image for this "
                    "epoch (finalize barrier passed without a write?)");
      st->meta.cut_seq = cut;
      images_[static_cast<std::size_t>(r)] = std::move(*st);
      st.reset();
    }
  }

  /// nullptr if the rank never checkpointed (restart from scratch).
  const StoredCheckpoint* latest(mpi::RankId rank) const {
    if (static_cast<std::size_t>(rank) >= images_.size()) return nullptr;
    const std::optional<StoredCheckpoint>& img =
        images_[static_cast<std::size_t>(rank)];
    return img.has_value() ? &*img : nullptr;
  }

 private:
  void ensure(mpi::RankId r) {
    GCR_CHECK_MSG(r >= 0, "ImageRegistry: negative rank id");
    if (static_cast<std::size_t>(r) >= images_.size()) {
      reserve_ranks(r + 1);
    }
  }

  std::vector<std::optional<StoredCheckpoint>> images_;
  std::vector<std::optional<StoredCheckpoint>> staged_;
  std::uint64_t cuts_ = 0;
};

}  // namespace gcr::ckpt
