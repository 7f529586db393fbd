// MiniMPI runtime: rank management, matched point-to-point transport with
// FIFO ordering per pair, binomial-tree collectives, and the lifecycle
// operations (kill / snapshot / restore / respawn) the checkpoint protocols
// orchestrate.
//
// Apps are coroutines `Co<void> body(AppHandle)`; every MPI call is a
// co_await. One rank maps to one cluster node (paper setup); the last
// cluster node is reserved for the checkpoint driver ("mpirun").
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mpi/hooks.hpp"
#include "mpi/message.hpp"
#include "mpi/rank.hpp"
#include "sim/awaitables.hpp"
#include "sim/cluster.hpp"
#include "sim/co.hpp"
#include "util/assert.hpp"

namespace gcr::mpi {

class Runtime;

/// The matched receive: a plain awaitable, not a coroutine, that suspends
/// exactly once. If the next in-sequence message from `src` is already
/// buffered it takes it and wakes after the receive overhead; otherwise it
/// registers as the rank's single outstanding receive, and the delivery
/// that matches it hands the message over and arms that same wake
/// (DESIGN.md §3). Resuming verifies the consume, tells the observers and
/// returns the message. A kill before the wake unwinds with nothing
/// consumed; the armed wake then finds its waiter recycled and resumes
/// nothing (DESIGN.md §2.1).
class [[nodiscard]] Recv {
 public:
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  Message await_resume();

 private:
  friend class Runtime;
  Recv(Runtime& rt, Rank& rank, RankId src, int tag)
      : rt_(&rt), rank_(&rank), src_(src), tag_(tag) {}

  Runtime* rt_;
  Rank* rank_;
  RankId src_;
  int tag_;
  sim::WaiterHandle waiter_{};
  Message msg_{};  ///< the matched message, filled before the wake
};

/// What an application body receives: its rank plus the MPI-like call
/// surface. Thin value wrapper so app code reads naturally.
class AppHandle {
 public:
  AppHandle(Runtime& rt, Rank& rank) : rt_(&rt), rank_(&rank) {}

  Rank& rank() const { return *rank_; }
  RankId id() const;
  int nranks() const;
  std::uint64_t start_iteration() const;

  /// Blocking send of `bytes` to dst (returns when the buffer is reusable).
  sim::Co<void> send(RankId dst, int tag, std::int64_t bytes);
  /// Blocking matched receive.
  Recv recv(RankId src, int tag);
  /// Simultaneous exchange (isend + recv + wait) — deadlock-free pairwise.
  sim::Co<Message> sendrecv(RankId dst, int stag, std::int64_t sbytes,
                            RankId src, int rtag);
  /// Models `seconds` of local computation (a plain engine delay).
  sim::Delay compute(double seconds);
  /// Current simulated time. Open-loop workloads use this to sleep until
  /// the next scheduled arrival instead of a fixed per-iteration compute.
  double now_s() const;
  /// Safe point: top of an app iteration; checkpoints execute here.
  sim::Co<void> safepoint(std::uint64_t iteration);

  // Collectives (built on p2p, so protocol hooks see every hop).
  /// Broadcast over `members` from `members[root]`; `self` is this rank's
  /// index in `members` (see Runtime::bcast).
  sim::Co<void> bcast(std::span<const RankId> members, int self, int root,
                      std::int64_t bytes, int tag);
  sim::Co<void> allreduce(std::int64_t bytes);

 private:
  Runtime* rt_;
  Rank* rank_;
};

using AppBody = std::function<sim::Co<void>(AppHandle)>;

class Runtime {
 public:
  Runtime(sim::Cluster& cluster, int nranks);

  sim::Cluster& cluster() { return *cluster_; }
  sim::Engine& engine() { return cluster_->engine(); }
  int nranks() const { return static_cast<int>(ranks_.size()); }
  /// The rank with id `id` (GCR_CHECKed against the run's rank range).
  Rank& rank(RankId id) {
    GCR_CHECK_MSG(id >= 0 && id < nranks(), "rank id outside the run");
    return *ranks_[static_cast<std::size_t>(id)];
  }

  /// Node index reserved for the checkpoint driver (mpirun).
  int driver_node() const { return nranks(); }

  void set_protocol(Interposer* protocol) { protocol_ = protocol; }
  void add_observer(Observer* obs) { observers_.push_back(obs); }

  /// Installs the application and spawns all ranks (fresh start).
  void start_app(AppBody body);

  /// True once every rank's app body returned normally.
  bool job_finished() const { return finished_ranks_ == nranks(); }

  // ---- p2p / compute (called via AppHandle) ----
  sim::Co<void> send(Rank& rank, RankId dst, int tag, std::int64_t bytes);
  Recv recv(Rank& rank, RankId src, int tag);
  sim::Co<Message> sendrecv(Rank& rank, RankId dst, int stag,
                            std::int64_t sbytes, RankId src, int rtag);
  sim::Delay compute(Rank& rank, double seconds);
  /// Records the iteration and returns the protocol's at_safepoint
  /// coroutine itself (a ready one without a protocol).
  sim::Co<void> safepoint(Rank& rank, std::uint64_t iteration);

  // ---- collectives ----
  /// MPICH's binomial broadcast over an explicit member list (one process
  /// row or column, or every rank), rooted at `members[root]`. `self` is
  /// the caller's index in `members` (checked), so no call scans the list.
  /// Every member calls with the same list, root, bytes and tag; the list
  /// must outlive the call. n members exchange n - 1 messages.
  sim::Co<void> bcast(Rank& rank, std::span<const RankId> members, int self,
                      int root, std::int64_t bytes, int tag);
  /// Binomial reduce to rank 0, then a broadcast from rank 0 over every
  /// rank: 2(n - 1) messages with a constant payload.
  sim::Co<void> allreduce(Rank& rank, std::int64_t bytes);

  // ---- control plane (used by protocols and the checkpoint driver) ----
  /// Sends a control message from one rank to another, for the protocol.
  /// Pays normal network costs; never logged or counted. At arrival the
  /// protocol's on_deliver handles it inside the delivery callback.
  void send_ctrl(RankId src_rank, RankId dst, Message msg);
  /// Control message from the driver node (mpirun).
  void send_ctrl_from_driver(RankId dst, Message msg);

  /// Re-sends a logged app-plane message (sender-based replay). Bypasses the
  /// protocol's before_send (it IS the protocol acting) and does not bump
  /// the sender's S counters (they already account for the original send).
  /// Returns the message's egress; co_await it to pace replay by the
  /// sender's NIC, as send() does.
  sim::Network::Egress replay_send(Rank& sender, const Message& original);

  // ---- lifecycle (used by protocols / recovery orchestration) ----
  /// Captures the runtime-visible state of a rank (at a safe point).
  RankSnapshot snapshot_rank(const Rank& rank) const;

  /// Kills the app coroutine; the rank stops receiving.
  void kill_rank(Rank& rank);

  /// Prepares a new incarnation: bumps the incarnation, clears all volatile
  /// state, closes the resume gate. Call restore_rank (or leave zeroed for a
  /// from-scratch restart) and then respawn_rank.
  void begin_restart(Rank& rank);

  /// Installs snapshot state into the (reset) rank.
  void restore_rank(Rank& rank, const RankSnapshot& snap);

  /// Calls protocol->rank_started and spawns the app coroutine; the app
  /// waits on the resume gate, which the protocol fires when the restart
  /// preparation (exchange/replay setup) is complete.
  void respawn_rank(Rank& rank);

  /// Internal: invoked by the app wrapper coroutine.
  sim::Co<void> run_app_body(Rank& rank);
  void note_app_finished(Rank& rank);

  /// Total app-plane bytes/messages ever sent (for reports).
  std::int64_t app_bytes_sent() const { return app_bytes_sent_; }
  std::int64_t app_messages_sent() const { return app_messages_sent_; }

 private:
  friend class AppHandle;
  friend class Recv;

  void deliver(const Message& msg);
  bool is_duplicate(const Rank& rank, const Message& msg) const;
  /// Hands `msg` to the rank's outstanding receive when it is the next in
  /// sequence from the awaited source, arming the receive's wake; else
  /// buffers it.
  void match_or_buffer(Rank& rank, const Message& msg);
  void verify_consume(Rank& rank, const Message& msg);
  void spawn_app_coroutine(Rank& rank);
  /// Builds the app message rank -> dst (checking dst and bytes), assigns
  /// seq/cum_bytes/checksum and bumps the sender's S table.
  Message stamp_outgoing(Rank& rank, RankId dst, int tag, std::int64_t bytes);
  /// Tells the observers about a stamped send, then transmits it unless the
  /// protocol suppressed it. The egress of a suppressed send is ready.
  sim::Network::Egress emit(Rank& rank, const Message& msg, bool transmit_it);
  /// Common transmit path; returns the message's egress (see send()).
  sim::Network::Egress transmit(const Message& msg);

  sim::Cluster* cluster_;
  Interposer* protocol_ = nullptr;
  std::vector<Observer*> observers_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<RankId> world_;  ///< 0..n-1: allreduce's broadcast members
  AppBody app_body_;
  int finished_ranks_ = 0;
  std::int64_t app_bytes_sent_ = 0;
  std::int64_t app_messages_sent_ = 0;
};

}  // namespace gcr::mpi
