// MiniMPI runtime: rank management, matched point-to-point transport with
// FIFO ordering per pair, tree-based collectives, and the lifecycle
// operations (kill / snapshot / restore / respawn) the checkpoint protocols
// orchestrate.
//
// Apps are coroutines `Co<void> body(AppHandle)`; every MPI call is a
// co_await. One rank maps to one cluster node (paper setup); the last
// cluster node is reserved for the checkpoint driver ("mpirun").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
  sim::Co<Message> recv(RankId src, int tag);
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
  sim::Co<void> barrier();
  sim::Co<void> bcast(RankId root, std::int64_t bytes);
  sim::Co<void> reduce(RankId root, std::int64_t bytes);
  sim::Co<void> allreduce(std::int64_t bytes);
  sim::Co<void> gather(RankId root, std::int64_t bytes_per_rank);
  sim::Co<void> alltoall(std::int64_t bytes_per_pair);

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
  Interposer* protocol() const { return protocol_; }
  void add_observer(Observer* obs) { observers_.push_back(obs); }

  /// Installs the application and spawns all ranks (fresh start).
  void start_app(AppBody body);

  /// True once every rank's app body returned normally.
  bool job_finished() const { return finished_ranks_ == nranks(); }

  // ---- p2p / compute (called via AppHandle) ----
  sim::Co<void> send(Rank& rank, RankId dst, int tag, std::int64_t bytes);
  sim::Co<Message> recv(Rank& rank, RankId src, int tag);
  sim::Co<Message> sendrecv(Rank& rank, RankId dst, int stag,
                            std::int64_t sbytes, RankId src, int rtag);
  sim::Delay compute(Rank& rank, double seconds);
  sim::Co<void> safepoint(Rank& rank, std::uint64_t iteration);

  // ---- collectives ----
  sim::Co<void> barrier(Rank& rank);
  sim::Co<void> bcast(Rank& rank, RankId root, std::int64_t bytes);
  sim::Co<void> reduce(Rank& rank, RankId root, std::int64_t bytes);
  sim::Co<void> allreduce(Rank& rank, std::int64_t bytes);
  sim::Co<void> gather(Rank& rank, RankId root, std::int64_t bytes_per_rank);
  sim::Co<void> alltoall(Rank& rank, std::int64_t bytes_per_pair);

  // ---- control plane (used by protocols and the checkpoint driver) ----
  /// Sends a control message from one rank's daemon to another rank's
  /// daemon. Pays normal network costs; never logged or counted.
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

  /// Kills the app and daemon coroutines; the rank stops receiving.
  void kill_rank(Rank& rank);

  /// Prepares a new incarnation: bumps the incarnation, clears all volatile
  /// state, closes the resume gate. Call restore_rank (or leave zeroed for a
  /// from-scratch restart) and then respawn_rank.
  void begin_restart(Rank& rank);

  /// Installs snapshot state into the (reset) rank.
  void restore_rank(Rank& rank, const RankSnapshot& snap);

  /// Spawns the daemon (via protocol->rank_started) and the app coroutine;
  /// the app waits on the resume gate, which the protocol fires when the
  /// restart preparation (exchange/replay setup) is complete.
  void respawn_rank(Rank& rank);

  /// Registers the daemon coroutine handle so kill_rank can reach it.
  void set_daemon_proc(Rank& rank, sim::ProcPtr proc);

  /// Internal: invoked by the app wrapper coroutine.
  sim::Co<void> run_app_body(Rank& rank);
  void note_app_finished(Rank& rank);

  /// Diagnostic dump of every rank's communication state (blocked receives,
  /// queue depths, counters) — for debugging stuck simulations.
  void debug_dump(std::ostream& os) const;

  /// Total app-plane bytes/messages ever sent (for reports).
  std::int64_t app_bytes_sent() const { return app_bytes_sent_; }
  std::int64_t app_messages_sent() const { return app_messages_sent_; }

 private:
  friend class AppHandle;

  void deliver(Message msg);
  bool is_duplicate(const Rank& rank, const Message& msg) const;
  void match_or_buffer(Rank& rank, Message msg);
  /// Awaitable matched receive (runtime.cpp): takes the next in-sequence
  /// message from `src` if it is already buffered, else suspends as the
  /// rank's single outstanding receive until match_or_buffer fills it.
  struct RecvAwaiter;
  RecvAwaiter wait_match(Rank& rank, RankId src, int tag);
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
  AppBody app_body_;
  int finished_ranks_ = 0;
  std::int64_t app_bytes_sent_ = 0;
  std::int64_t app_messages_sent_ = 0;
};

}  // namespace gcr::mpi
