// Per-rank runtime state.
//
// A Rank owns everything the MiniMPI layer knows about one MPI process:
// volume counters (the paper's R_X / S_X tables), the delivered-but-
// unconsumed message queue (snapshotted into checkpoint images, like the
// in-kernel socket buffers BLCR captures), the single outstanding blocking
// receive, the control-plane channel served by the protocol daemon, and
// incarnation/lifecycle flags used across failures and restarts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mpi/message.hpp"
#include "sim/awaitables.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

namespace gcr::mpi {

/// One direction of traffic bookkeeping towards one peer.
struct PeerVolume {
  std::int64_t bytes = 0;   ///< cumulative app-plane bytes
  std::uint64_t count = 0;  ///< app-plane message count (== last seq)
};

/// The runtime-visible state captured by a checkpoint (the modeled
/// equivalent of a BLCR process image, minus the app's own memory which is
/// represented by the app's iteration counter and memory-size model).
struct RankSnapshot {
  std::uint64_t iteration = 0;          ///< app progress at the safe point
  std::vector<PeerVolume> sent;         ///< S_X table
  std::vector<PeerVolume> recvd;        ///< R_X table
  std::vector<std::uint64_t> consumed;  ///< per-src consumed seq (verification)
  std::vector<Message> pending;         ///< delivered, unconsumed messages
};

class Rank {
 public:
  Rank(sim::Engine& engine, RankId id, int node, int nranks)
      : engine_(&engine), id_(id), node_(node), ctrl_in_(engine),
        resume_gate_(engine), sent_(static_cast<std::size_t>(nranks)),
        recvd_(static_cast<std::size_t>(nranks)),
        consumed_(static_cast<std::size_t>(nranks), 0) {}

  RankId id() const { return id_; }
  int node() const { return node_; }
  /// The engine this rank's coroutines and channels are bound to. Observers
  /// use it to stamp trace records.
  sim::Engine& engine() const { return *engine_; }
  int nranks() const { return static_cast<int>(sent_.size()); }

  std::uint32_t incarnation() const { return incarnation_; }
  bool alive() const { return alive_; }
  bool finished() const { return finished_; }

  /// App progress marker; updated at each safe point, restored on restart.
  std::uint64_t iteration() const { return iteration_; }
  void set_iteration(std::uint64_t it) { iteration_ = it; }

  /// Where the app must resume from (0 on a fresh start).
  std::uint64_t start_iteration() const { return start_iteration_; }

  const PeerVolume& sent_to(RankId peer) const {
    return sent_[static_cast<std::size_t>(peer)];
  }
  const PeerVolume& recvd_from(RankId peer) const {
    return recvd_[static_cast<std::size_t>(peer)];
  }

  /// Control-plane delivery queue, served by the protocol daemon.
  sim::Channel<Message>& ctrl_in() { return ctrl_in_; }

  /// Closed while a restart is being prepared; the app coroutine waits on it
  /// before (re)executing.
  sim::Trigger& resume_gate() { return resume_gate_; }

  std::size_t pending_count() const { return pending_.size(); }

 private:
  friend class Runtime;

  sim::Engine* engine_;
  RankId id_;
  int node_;
  std::uint32_t incarnation_ = 0;
  bool alive_ = true;
  bool finished_ = false;
  std::uint64_t iteration_ = 0;
  std::uint64_t start_iteration_ = 0;

  sim::Channel<Message> ctrl_in_;
  sim::Trigger resume_gate_;

  // Volume tables, dense by peer rank.
  std::vector<PeerVolume> sent_;
  std::vector<PeerVolume> recvd_;
  std::vector<std::uint64_t> consumed_;

  // Delivered app messages not yet consumed by the app, in arrival order.
  // A vector keeps its capacity as it cycles through empty, so the warm
  // message path never allocates here.
  std::vector<Message> pending_;

  // The single outstanding blocking receive (the app coroutine is
  // sequential, so there is at most one).
  struct WaitingRecv {
    RankId src;
    int tag;
    sim::WaiterHandle waiter;
    Message* slot;
  };
  std::optional<WaitingRecv> waiting_;

  // Live coroutine handles for kill().
  sim::ProcPtr app_proc_;
  sim::ProcPtr daemon_proc_;
};

}  // namespace gcr::mpi
