// MPICH-VCL-style non-blocking coordinated checkpointing (paper §2.2, §5.3;
// DESIGN.md §8).
//
// Chandy–Lamport with remote checkpoint servers: on a checkpoint request
// each process immediately (no safe point, no group coordination)
//   1. stops SENDING (the "short period when the processes are not allowed
//     to send any messages" — in VCL it lasts until the image upload to the
//     remote server completes),
//   2. sends a marker on every channel,
//   3. uploads its image to a shared checkpoint server (records in-channel
//     messages from peers whose marker has not yet arrived into the image),
//   4. resumes sending once the upload is done and all markers arrived.
// Receiving and computing continue throughout — the protocol is
// "non-blocking" — but peers starved of messages stall, and at scale the
// stall cascades (Figure 2's gaps).
//
// Restart is a *global* rollback; because the snapshot cut relies on channel
// recording that we model only as size accounting, restart re-execution is
// not supported for this protocol (the paper never restarts VCL either);
// RecoveryManager refuses accordingly.
#pragma once

#include <cstdint>
#include <memory>
#include <map>
#include <set>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "core/group_protocol.hpp"  // ImageSizeFn
#include "core/metrics.hpp"
#include "mpi/hooks.hpp"
#include "mpi/runtime.hpp"

namespace gcr::core {

class VclProtocol : public mpi::Interposer {
 public:
  VclProtocol(mpi::Runtime& rt, ckpt::Checkpointer& checkpointer,
              ImageSizeFn image_bytes, Metrics& metrics);

  // ---- mpi::Interposer ----
  sim::Co<bool> before_send(mpi::Rank& rank, mpi::Message& msg) override;
  void on_deliver(mpi::Rank& rank, const mpi::Message& msg) override;
  sim::Co<void> at_safepoint(mpi::Rank& rank) override;
  void rank_started(mpi::Rank& rank) override;

  /// Driver: one Chandy-Lamport round across ALL ranks (VCL is global).
  void request_round();

 private:
  struct RankState {
    bool in_checkpoint = false;
    bool send_blocked = false;
    std::uint64_t epoch = 0;          ///< round currently/last executed
    std::uint64_t pending_round = 0;  ///< deferred round (arrived mid-ckpt)
    std::map<mpi::RankId, std::uint64_t> marker_round;  ///< peer -> latest
    std::int64_t recorded_bytes = 0;
    std::unique_ptr<sim::Trigger> gate;   ///< released when sends unblock
    std::unique_ptr<sim::Trigger> event;  ///< marker-arrival wakeups
    gcr::Rng jitter_rng{0};
  };

  RankState& state(const mpi::Rank& rank) {
    return *states_[static_cast<std::size_t>(rank.id())];
  }

  /// A request or marker, handled inside its delivery callback
  /// (on_deliver); the snapshot itself runs in its own coroutine.
  void handle_ctrl(mpi::Rank& rank, const mpi::Message& msg);
  sim::Co<void> run_checkpoint(mpi::Rank& rank);

  mpi::Runtime* rt_;
  ckpt::Checkpointer* checkpointer_;
  ImageSizeFn image_bytes_;
  Metrics* metrics_;
  std::vector<std::unique_ptr<RankState>> states_;
  std::uint64_t round_ = 0;
  // Global-commit bookkeeping: a Chandy-Lamport snapshot is only usable
  // once every rank's piece is stored, so rounds end at global commit.
  std::vector<std::uint64_t> latest_uploaded_;
  std::unique_ptr<sim::Trigger> commit_event_;
};

}  // namespace gcr::core
