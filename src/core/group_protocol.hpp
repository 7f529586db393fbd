// Group-based checkpoint/restart protocol — the paper's Algorithm 1
// (DESIGN.md §4).
//
// Checkpoints are coordinated *within* each group; across groups there is no
// coordination, only sender-based logging of inter-group messages with
// volume accounting:
//   * on send to an out-of-group peer: log asynchronously; on the first send
//     after a checkpoint, piggyback RR_P (received volume recorded at the
//     last checkpoint) so the peer can garbage-collect its log towards us;
//   * on receive: update R_P; apply piggybacked RR to GC our log;
//   * on a group checkpoint request: sync logs, record RR, coordinate a
//     consistent group snapshot (bookmark + drain + barrier), dump images,
//     barrier, resume — independent of all other groups;
//   * on restart: exchange R/S with every out-of-group peer, replay logged
//     messages the restarting rank lacks, and skip re-sends the peer
//     already received.
//
// NORM (global coordinated ckpt, LAM/MPI) is this protocol with one group:
// no logging, no exchanges. GP1 (uncoordinated + logging) is n groups of 1.
//
// Checkpoint trigger mechanics: system-level checkpointers interrupt a
// process anywhere; our app model snapshots at iteration-boundary safe
// points. To keep group coordination deadlock-free the leader runs a
// prepare/commit round that picks a target iteration I beyond every
// member's current position; members checkpoint exactly at iteration I
// (DESIGN.md §5). Cross-group stalls remain possible and transient — they
// are the waiting the paper measures — but never cyclic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "ckpt/image.hpp"
#include "core/metrics.hpp"
#include "core/msglog.hpp"
#include "group/group.hpp"
#include "mpi/hooks.hpp"
#include "mpi/runtime.hpp"
#include "util/rng.hpp"

namespace gcr::core {

/// Models per-process image size (the app's memory footprint).
using ImageSizeFn = std::function<std::int64_t(mpi::RankId)>;

struct GroupProtocolOptions {
  int commit_margin = 2;          ///< safe points ahead for the commit target
};

class GroupProtocol : public mpi::Interposer {
 public:
  GroupProtocol(mpi::Runtime& rt, const group::GroupSet& groups,
                ckpt::Checkpointer& checkpointer, ckpt::ImageRegistry& registry,
                ImageSizeFn image_bytes, Metrics& metrics,
                GroupProtocolOptions options = {});

  const group::GroupSet& groups() const { return groups_; }
  Metrics& metrics() { return *metrics_; }

  // ---- mpi::Interposer ----
  sim::Co<bool> before_send(mpi::Rank& rank, mpi::Message& msg) override;
  void on_deliver(mpi::Rank& rank, const mpi::Message& msg) override;
  sim::Co<void> at_safepoint(mpi::Rank& rank) override;
  void rank_started(mpi::Rank& rank) override;
  void rank_finished(mpi::Rank& rank) override;
  void rank_killed(mpi::Rank& rank) override;

  // ---- driver API (the mpirun side) ----
  /// Injects a checkpoint request for the group `leader` leads: a control
  /// message from the driver node to that rank, which then runs
  /// prepare/commit. Sends nothing when `leader` leads no group (a request
  /// deferred across an elastic regroup that made it a follower).
  void request_checkpoint(mpi::RankId leader);

  // ---- recovery API ----
  /// Before respawn_rank: marks the rank as restoring and installs the
  /// protocol-private state from the image (nullptr = restart from scratch).
  /// `restore_token` identifies the restore operation: every member staged
  /// by one group restore must get the same token (it keys the restart
  /// barrier — an elastic merge can put ranks with different incarnation
  /// counts into one group, so the incarnation cannot key it).
  void stage_restore(mpi::Rank& rank, const ckpt::StoredCheckpoint* image,
                     std::uint64_t restore_token);

  /// Invoked (synchronously, from the last member's restore coroutine, with
  /// that member's rank) when a whole group finishes restart preparation.
  /// The recovery manager uses it to free the group's restore slot; an
  /// aborted restore never fires it (the coroutines die with the re-killed
  /// ranks).
  void set_restore_done_callback(std::function<void(mpi::RankId)> fn) {
    restore_done_ = std::move(fn);
  }

  /// Protocol-private per-rank state stored inside checkpoint images.
  struct StateSnapshot {
    std::vector<std::int64_t> rr;
    std::vector<std::uint8_t> first_send;
    MessageLog log;
  };

  // ---- elastic regrouping API (DESIGN.md §16; home engine only) ----
  /// Starts a split transition: until install_groups or end_transition,
  /// before_send logs any message that crosses a group boundary in the
  /// CURRENT *or* the `pending` grouping. This is what makes a later
  /// install sound at any committed cut inside the window: traffic between
  /// a departing rank and its old groupmates is in the sender logs from
  /// the moment the drain began.
  void begin_transition(const group::GroupSet& pending);
  /// Abandons the pending transition (drain aborted or forcibly reclaimed).
  void end_transition();

  /// True when every listed rank can tolerate a grouping change right now:
  /// alive, not inside a checkpoint round (leader round open, commit
  /// accepted, or mid-coordination) and not restoring. install_groups may
  /// only be called when this holds for every rank whose membership
  /// changes.
  bool quiescent_for_regroup(const std::vector<mpi::RankId>& ranks);

  /// Replaces the current grouping (and closes any open transition). Group
  /// indices renumber; coroutines suspended across the install hold their
  /// member lists by value.
  void install_groups(group::GroupSet next);

  /// Marks every (a,b) pair with a in `a` and b in `b` for continued
  /// sender-side logging after a merge install, until the merged group's
  /// first joint commit clears it. Keeps restores sound while the group's
  /// members still hold images from different pre-merge cuts.
  void add_transitional_logging(const std::vector<mpi::RankId>& a,
                                const std::vector<mpi::RankId>& b);

  /// No-op: metrics are written straight into the shared Metrics object.
  /// Kept because perfbench/traced.cpp calls it; the next benchmark change
  /// removes the call and this method.
  void finalize_metrics();

 private:
  /// RankState::bookmarks entry for a peer whose bookmark has not arrived.
  static constexpr std::int64_t kNoBookmark = -1;

  struct RankState {
    // --- Algorithm 1 data ---
    std::vector<std::int64_t> rr;          ///< RR_X at last checkpoint
    std::vector<std::uint8_t> first_send;  ///< piggyback-pending flags
    MessageLog log;
    std::vector<std::int64_t> skip_bytes;  ///< suppression during re-execution
    /// Peers whose traffic stays logged although they are (now) in-group:
    /// set at a merge install, cleared at the group's first joint commit.
    /// Deliberately NOT reset by stage_restore — the need persists until a
    /// joint cut exists (DESIGN.md §16).
    std::set<mpi::RankId> extra_log;

    // --- checkpoint coordination ---
    bool commit_pending = false;
    std::uint64_t commit_epoch = 0;
    std::uint64_t commit_iteration = 0;
    sim::Time signal_at = 0;        ///< prepare (or request) arrival
    bool in_checkpoint = false;
    std::set<std::uint64_t> aborted;  ///< epochs abandoned mid-round
    /// Per peer: the member's S towards me from its bookmark, or
    /// kNoBookmark (a bookmark is a byte count, never negative).
    std::vector<std::int64_t> bookmarks;
    /// Incremental drain-predicate state: while a bookmark wait is active,
    /// `bookmark_unmet` counts members whose bookmark is missing or not yet
    /// covered by received bytes, and `bookmark_met[m]` records whether m
    /// was counted as satisfied. Maintained by the kBookmark and delivery
    /// hooks so each wake evaluates the predicate in O(1) instead of
    /// rescanning the group (O(n) members x O(n) wakes made NORM untenable
    /// at 4k ranks); both tables are per-peer arrays, so each update is two
    /// array reads.
    bool bookmark_wait_active = false;
    int bookmark_unmet = 0;
    std::vector<std::uint8_t> bookmark_met;
    std::map<std::uint64_t, int> barrier_acks;        ///< leader: (key)->count
    std::set<std::uint64_t> barrier_go;               ///< member: keys passed
    std::unique_ptr<sim::Trigger> event;  ///< generic state-change wakeup

    // --- leader round state ---
    bool round_open = false;  ///< leader: a request is being serviced
    std::uint64_t next_epoch = 1;
    std::map<std::uint64_t, std::vector<std::int64_t>> prepare_replies;

    // --- restart ---
    bool restoring = false;
    bool from_image = false;
    std::uint64_t restore_cut = 0;    ///< cut_seq of the restored image (0 = scratch)
    std::uint64_t restore_token = 0;  ///< keys this restore's barrier epoch
    std::vector<std::int64_t> exchange_r;  ///< restored R prefix per peer
    std::int64_t restore_image_bytes = 0;
    /// Out-of-group peers with an exchange request in flight (alive when
    /// asked). A peer that dies mid-exchange moves to `exchange_deferred`.
    std::set<mpi::RankId> exchange_pending;
    /// Out-of-group peers that were dead when we restarted (overlapping
    /// recoveries): the request is re-sent when the peer respawns and the
    /// exchange completes in handle_ctrl; restart preparation does not wait
    /// for them (deadlock freedom across queued recoveries).
    std::set<mpi::RankId> exchange_deferred;
    /// Auxiliary coroutines acting for this incarnation; killed with the
    /// rank so they never outlive it into a rolled-back state.
    sim::ProcPtr restore_proc;
    std::vector<sim::ProcPtr> serve_procs;

    gcr::Rng jitter_rng{0};
  };

  RankState& state(const mpi::Rank& rank) {
    return *states_[static_cast<std::size_t>(rank.id())];
  }
  /// The state of rank `id` (GCR_CHECKed: ids come from callers).
  RankState& state(mpi::RankId id) const {
    GCR_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < states_.size(),
                  "rank id outside the run");
    return *states_[static_cast<std::size_t>(id)];
  }
  mpi::RankId leader_of(int group) const {
    return groups_.members(group).front();
  }
  bool is_leader(const mpi::Rank& rank) const {
    return leader_of(groups_.group_of(rank.id())) == rank.id();
  }
  /// True while the group is restarting (exchange phase).
  bool group_restarting(int group) const;

  /// A control message, handled inside its delivery callback (on_deliver):
  /// it never suspends, and spawns a coroutine for work that takes time.
  void handle_ctrl(mpi::Rank& rank, const mpi::Message& msg);
  sim::Co<void> run_group_checkpoint(mpi::Rank& rank);
  sim::Co<void> run_restore(mpi::Rank& rank);
  sim::Co<void> serve_exchange(mpi::Rank& rank, mpi::Message msg);
  sim::Co<void> replay_to(mpi::Rank& rank, mpi::RankId peer,
                          std::int64_t after);
  /// In-group barrier via the leader, `members.front()` (ack/go). Returns
  /// false if the epoch aborted.
  sim::Co<bool> group_barrier(mpi::Rank& rank,
                              const std::vector<mpi::RankId>& members,
                              std::uint64_t epoch, int phase);
  /// Waits until pred() or the epoch aborts; returns !aborted.
  sim::Co<bool> wait_event(mpi::Rank& rank, std::uint64_t epoch,
                           const std::function<bool()>& pred);
  void wake(mpi::Rank& rank);
  /// Sends one control message of `kind` carrying `data` from `from` to
  /// every other member, in member order.
  void send_to_members(mpi::RankId from,
                       const std::vector<mpi::RankId>& members,
                       mpi::CtrlKind kind, mpi::CtrlData data);
  /// Reconciles member `m`'s entry in the incremental drain counter with the
  /// current bookmark/received state. No-op unless a wait is active.
  void note_bookmark_progress(RankState& st, const mpi::Rank& rank,
                              mpi::RankId m);
  std::uint64_t draw_target_skew(RankState& st, bool coordinated);

  static std::uint64_t barrier_key(std::uint64_t epoch, int phase) {
    return epoch * 8 + static_cast<std::uint64_t>(phase);
  }

  mpi::Runtime* rt_;
  group::GroupSet groups_;
  /// Pending split grouping while a drain transition is open (see
  /// begin_transition); nullopt almost always.
  std::optional<group::GroupSet> transition_;
  ckpt::Checkpointer* checkpointer_;
  ckpt::ImageRegistry* registry_;
  ImageSizeFn image_bytes_;
  Metrics* metrics_;
  GroupProtocolOptions options_;
  std::function<void(mpi::RankId)> restore_done_;
  std::vector<std::unique_ptr<RankState>> states_;
};

}  // namespace gcr::core
