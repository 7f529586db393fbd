// Per-rank runtime state.
//
// A Rank owns everything the MiniMPI layer knows about one MPI process:
// volume counters (the paper's R_X / S_X tables), the delivered-but-
// unconsumed message queue (snapshotted into checkpoint images, like the
// in-kernel socket buffers BLCR captures), the single outstanding blocking
// receive, and incarnation/lifecycle flags used across failures and
// restarts. Control messages are not queued here: the runtime hands them
// to the protocol at arrival.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mpi/message.hpp"
#include "sim/awaitables.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"

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
      : engine_(&engine), id_(id), node_(node), resume_gate_(engine),
        sent_(static_cast<std::size_t>(nranks)),
        recvd_(static_cast<std::size_t>(nranks)),
        consumed_(static_cast<std::size_t>(nranks), 0) {}

  RankId id() const { return id_; }
  int node() const { return node_; }
  /// The engine this rank's coroutines are bound to. Observers use it to
  /// stamp trace records.
  sim::Engine& engine() const { return *engine_; }
  int nranks() const { return static_cast<int>(sent_.size()); }

  std::uint32_t incarnation() const { return incarnation_; }
  bool alive() const { return alive_; }
  bool finished() const { return finished_; }

  /// App progress marker; updated at each safe point, restored on restart.
  std::uint64_t iteration() const { return iteration_; }

  /// Where the app must resume from (0 on a fresh start).
  std::uint64_t start_iteration() const { return start_iteration_; }

  /// Volume tables by peer; the peer id is checked against the run.
  const PeerVolume& sent_to(RankId peer) const {
    return sent_[peer_index(peer)];
  }
  const PeerVolume& recvd_from(RankId peer) const {
    return recvd_[peer_index(peer)];
  }

  /// Bytes of the gap-free prefix of `peer`'s stream held here: what was
  /// consumed, then the buffered messages that follow it in sequence.
  /// recvd_from() also counts a message buffered past a gap — an orphan
  /// from a sender incarnation that has since rolled back to an earlier
  /// cut — which the sender's re-execution must still send.
  std::int64_t recvd_prefix_bytes(RankId peer) const {
    // Messages leave the buffer only in sequence, so the delivered volume
    // minus the buffered one is the consumed prefix.
    const PeerVolume& r = recvd_from(peer);
    std::int64_t bytes = r.bytes;
    std::uint64_t next = r.count + 1;
    for (const Message& m : pending_) {
      if (m.src != peer) continue;
      bytes -= m.bytes;
      --next;
    }
    for (bool advanced = true; advanced;) {
      advanced = false;
      for (const Message& m : pending_) {
        if (m.src == peer && m.seq == next) {
          bytes = m.cum_bytes;
          ++next;
          advanced = true;
        }
      }
    }
    return bytes;
  }

  /// Closed while a restart is being prepared; the app coroutine waits on it
  /// before (re)executing.
  sim::Trigger& resume_gate() { return resume_gate_; }

  std::size_t pending_count() const { return pending_.size(); }

 private:
  friend class Runtime;
  friend class Recv;

  std::size_t peer_index(RankId peer) const {
    GCR_CHECK_MSG(peer >= 0 && peer < nranks(), "peer rank id outside the run");
    return static_cast<std::size_t>(peer);
  }

  sim::Engine* engine_;
  RankId id_;
  int node_;
  std::uint32_t incarnation_ = 0;
  bool alive_ = true;
  bool finished_ = false;
  std::uint64_t iteration_ = 0;
  std::uint64_t start_iteration_ = 0;

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
  // sequential, so there is at most one). The matching delivery writes the
  // message through `slot` and clears this before the receive wakes.
  struct WaitingRecv {
    RankId src;
    int tag;
    sim::WaiterHandle waiter;
    Message* slot;
  };
  std::optional<WaitingRecv> waiting_;

  // The app coroutine's handle, for kill().
  sim::ProcPtr app_proc_;
};

}  // namespace gcr::mpi
