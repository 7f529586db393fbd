// Failure injection, restart orchestration, and elastic churn
// (DESIGN.md §9, §16).
//
// Failures take down whole groups (the paper's recovery unit): the group's
// processes are killed, in-flight traffic to/from them is lost, and after a
// detection+relaunch delay each member is restored from its latest image
// (or from scratch) and re-enters execution through the protocol's restart
// procedure (volume exchange + replay). Non-failed groups keep running.
//
// Failures are injected either directly (fail_group_at; whole-app restart
// via restart_all_at) or through a pluggable node-event fault model
// (sim/node_events.hpp) whose node faults map to the group hosting that
// node's rank.
//
// Concurrent failures are handled with a recovery QUEUE, not rejection:
// a failure always kills its group immediately (the physical event is never
// deferred — a fault mid-checkpoint aborts the round and discards the
// group's staged images; a fault mid-restart aborts that restart). The
// group then becomes ready to restore after detect+relaunch, and restores
// run one at a time (the paper's setting) in failure order. The
// protocol's deferred-exchange path (core/group_protocol.cpp) keeps a
// restoring group from blocking on a peer group that is itself down, so
// queued recoveries never deadlock.
//
// CHURN (arm_churn_model) adds planned membership change on top:
//   drain    — voluntary departure. The manager waits for the departing
//              rank's group to quiesce, splits the rank into a singleton
//              (GroupProtocol::begin_transition opens conservative logging
//              across the pending cut first), takes one more committed
//              group checkpoint, installs the new partition, and only then
//              kills the rank. Nothing counts as a failure; the node's
//              staging residency stays warm.
//   reclaim  — a drain against a deadline (spot preemption with a warning
//              window). The same clean path runs; if no checkpoint commits
//              before the warning expires, the node is simply lost: the
//              whole group fails through the normal failure path and the
//              event is tallied under reclaims_forced().
//   join     — a departed node comes back. Its singleton group is restored
//              through the ordinary restore queue (so joins wait their turn
//              behind restores and follow the deferred-exchange rules), then
//              optionally merged into the group the RegroupPlanner picks
//              from observed traffic. Transitional double-logging
//              (add_transitional_logging) covers the merged pair until
//              their first joint commit.
// Regroup operations are serialized through one FIFO so at most one
// partition transition is open at a time; fault injection stays fully
// concurrent with them. An install renumbers the groups, so recovery books
// are kept per rank and every decision that outlives an instant names a
// rank; an install only ever regroups alive, quiescent groups, so it
// carries no state over.
//
// Bookkeeping invariant (asserted through ExperimentResult by
// tests/fault_torture_test.cpp): once a run completes, failures_injected ==
// recoveries_completed + recoveries_aborted. Joins ride the restore queue
// but keep their own books (joins_completed/joins_aborted), so churn never
// perturbs the failure identity.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "ckpt/image.hpp"
#include "core/elastic.hpp"
#include "core/group_protocol.hpp"
#include "mpi/runtime.hpp"
#include "sim/node_events.hpp"
#include "util/assert.hpp"

namespace gcr::core {

struct RecoveryOptions {
  double detect_s = 1.0;    ///< failure detection latency
  double relaunch_s = 1.0;  ///< process recreation (fork/exec, rejoin)
};

class RecoveryManager {
 public:
  /// `checkpointer` is notified of node faults so tier residency tracks
  /// physical loss: a fault wipes the failed nodes' staging buffers (their
  /// restores fall back to burst buffer / PFS — DESIGN.md §13), while the
  /// voluntary whole-application restart (restart_all_at) relaunches on
  /// healthy nodes and keeps staging-buffer residency warm.
  RecoveryManager(mpi::Runtime& rt, GroupProtocol& protocol,
                  ckpt::ImageRegistry& registry,
                  ckpt::Checkpointer& checkpointer,
                  RecoveryOptions options = {});

  /// Schedules a failure of one group at simulated time `t`.
  void fail_group_at(int group, sim::Time t);

  /// Schedules a whole-application restart (kill everything, restore from
  /// the stored images) at time `t`.
  void restart_all_at(sim::Time t);

  /// Arms a fault model (sim::make_fault_model): events are pulled one at
  /// a time (so infinite renewal models are fine) and injected via the
  /// node→group mapping until the job finishes or the model is exhausted.
  /// The model is bound to this runtime's rank-bearing nodes and to
  /// substreams of the cluster seed.
  void arm_fault_model(std::unique_ptr<sim::NodeEventModel> model);

  /// Arms a churn model (sim::make_churn_model) the same way: drains, spot
  /// reclaims and joins are pulled and dispatched until the job finishes.
  /// `planner` (may be null) picks merge targets for rejoining ranks; it
  /// must outlive the run. Merges never grow a group past the largest group
  /// size at arming time, so churn cannot coarsen the configured
  /// partition's grain.
  void arm_churn_model(std::unique_ptr<sim::NodeEventModel> model,
                       const RegroupPlanner* planner);

  /// Failures that killed a live (or restoring) group.
  int failures_injected() const { return failures_; }
  /// Fault arrivals absorbed because the target group was already down,
  /// departed, or finished.
  int failures_absorbed() const { return absorbed_; }
  /// Restores that ran to completion (group back in normal execution).
  int recoveries_completed() const { return completed_; }
  /// Restores aborted by a re-failure of the restoring group.
  int recoveries_aborted() const { return aborted_; }

  // Churn books (all zero without arm_churn_model).
  int drains_completed() const { return drains_completed_; }
  /// Reclaims whose warning window sufficed for a committed checkpoint.
  int reclaims_clean() const { return reclaims_clean_; }
  /// Reclaims that expired without a commit; the group failed instead.
  int reclaims_forced() const { return reclaims_forced_; }
  int joins_completed() const { return joins_completed_; }
  /// Join restores cut down by a fault mid-restore (the fault is counted
  /// under failures_injected and recovers through the normal queue).
  int joins_aborted() const { return joins_aborted_; }
  int splits_installed() const { return splits_installed_; }
  int merges_installed() const { return merges_installed_; }

  /// Fraction of rank-time the service had its ranks up, over [0, end].
  /// Down-time accrues from the kill bookkeeping instant to restore
  /// completion (faults) and from departure to rejoin completion (churn);
  /// ranks still down at `end` accrue until `end`.
  double availability(sim::Time end) const;

 private:
  enum class GroupState : std::uint8_t { kAlive, kDown, kRestoring,
                                         kDeparted };

  /// Recovery books of one rank. Groups fail, restore and depart whole, so
  /// every group-state change is written to every member and any member's
  /// record answers for its group.
  struct RankBooks {
    GroupState state = GroupState::kAlive;
    /// The current restore is a rejoin, not a failure recovery (only ever
    /// set on a departed singleton).
    bool rejoining = false;
    /// Queued-or-running drain/reclaim ops for this rank's node (the model
    /// may drain a node again before its earlier cycle resolved).
    int pending_departures = 0;
    /// Joins that arrived while a departure op was pending; each resolved
    /// op admits (or absorbs) one.
    int joins_deferred = 0;
    /// Availability accounting: when the rank went down; -1 = up.
    sim::Time down_since = -1;
  };

  struct PendingRestore {
    sim::Time ready_at;  ///< kill time + detect + relaunch
    mpi::RankId rep;     ///< any member (a down group is never regrouped)
  };

  /// Churn operations are serialized so at most one partition transition
  /// is open at a time. Joins are NOT ops: a join opens no transition (it
  /// only enqueues a restore), and queueing it would deadlock — an
  /// unrelated drain at the FIFO head can be waiting for quiescence that
  /// only this node's rejoin can provide. A join whose own node's
  /// departure op is still pending is deferred until that op resolves
  /// (the model emits "join" at departure-event time + outage, which the
  /// drain op may not have reached yet).
  struct ChurnOp {
    enum class Kind : std::uint8_t { kDrain, kReclaim, kMerge };
    Kind kind;
    mpi::RankId rank;
    std::uint64_t token;  ///< reclaim deadline token (kReclaim only)
  };

  // Queue entries, timer callbacks and churn ops name a group by a member
  // rank; an index is looked up and used within one synchronous step.
  void fail_group_of(mpi::RankId rank);
  void kill_members(const std::vector<mpi::RankId>& members);
  /// The books of `rank` (GCR_CHECKed).
  RankBooks& books(mpi::RankId rank) {
    GCR_CHECK_MSG(rank >= 0 && static_cast<std::size_t>(rank) < books_.size(),
                  "rank id outside the run");
    return books_[static_cast<std::size_t>(rank)];
  }
  /// Members of `rank`'s group in the current partition.
  const std::vector<mpi::RankId>& members_of(mpi::RankId rank) const {
    const group::GroupSet& gs = protocol_->groups();
    return gs.members(gs.group_of(rank));
  }
  void set_state(const std::vector<mpi::RankId>& members, GroupState state);
  void enqueue_restore(mpi::RankId rep);
  /// Starts the queue's head when no restore is running and it is ready;
  /// re-arms itself for a not-yet-ready head. Idempotent.
  void maybe_start_restores();
  void start_restore(mpi::RankId rep);
  void restore_ranks(const std::vector<mpi::RankId>& ranks);
  /// Protocol callback: the group of `rank` finished restart preparation.
  void on_restore_done(mpi::RankId rank);
  /// Binds `model` (stored in `slot`) to the rank-bearing nodes and to
  /// substreams `stream_base` of the cluster seed, then starts pumping it.
  void arm_model(std::unique_ptr<sim::NodeEventModel>& slot,
                 std::unique_ptr<sim::NodeEventModel> model,
                 std::uint64_t stream_base);
  /// Pulls `model`'s next event and schedules its dispatch, which pulls
  /// the one after: one event in flight per model.
  void pump(sim::NodeEventModel& model);
  void on_node_event(const sim::NodeEvent& ev);

  // --- churn driver ---
  void enqueue_churn_op(ChurnOp op);
  void pump_churn_ops();
  void finish_churn_op();
  /// Drain/reclaim state machine: quiesce → split → committed checkpoint →
  /// install → depart.
  sim::Co<void> run_drain_op(mpi::RankId rank, bool voluntary,
                             std::uint64_t token);
  sim::Co<void> run_merge_op(mpi::RankId rank);
  void start_join(mpi::RankId rank);
  void reclaim_deadline(mpi::RankId rank, std::uint64_t token);

  void mark_down(const std::vector<mpi::RankId>& ranks, sim::Time at);
  void mark_up(const std::vector<mpi::RankId>& ranks, sim::Time at);

  mpi::Runtime* rt_;
  GroupProtocol* protocol_;
  ckpt::ImageRegistry* registry_;
  ckpt::Checkpointer* checkpointer_;
  RecoveryOptions options_;

  int failures_ = 0;
  int absorbed_ = 0;
  int completed_ = 0;
  int aborted_ = 0;

  int drains_completed_ = 0;
  int reclaims_clean_ = 0;
  int reclaims_forced_ = 0;
  int joins_completed_ = 0;
  int joins_aborted_ = 0;
  int splits_installed_ = 0;
  int merges_installed_ = 0;

  /// Indexed by rank; read and written only through books().
  std::vector<RankBooks> books_;
  /// FIFO of groups awaiting a restore slot. detect+relaunch is constant,
  /// so failure order == ready order and a deque suffices.
  std::deque<PendingRestore> queue_;
  bool restore_in_flight_ = false;
  /// Fresh token per restore_ranks call; members of one restore operation
  /// share it (the protocol keys the restart barrier on it, which must not
  /// depend on per-rank kill history once churn mixes histories in one
  /// group).
  std::uint64_t restore_tokens_ = 0;

  std::unique_ptr<sim::NodeEventModel> fault_model_;

  std::unique_ptr<sim::NodeEventModel> churn_model_;
  const RegroupPlanner* planner_ = nullptr;
  int churn_cap_ = 0;  ///< merge size cap: largest group at arming time
  std::deque<ChurnOp> churn_ops_;
  bool churn_op_active_ = false;
  /// Reclaim tokens whose deadline has not fired and whose clean drain has
  /// not completed. Erased by whichever side wins, so a reclaim op whose
  /// token is gone has lost to its deadline.
  std::set<std::uint64_t> reclaim_pending_;
  std::uint64_t next_reclaim_token_ = 0;

  sim::Time downtime_ = 0;  ///< closed down intervals (availability)
};

}  // namespace gcr::core
