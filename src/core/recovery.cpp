#include "core/recovery.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "group/strategies.hpp"
#include "sim/awaitables.hpp"
#include "util/log.hpp"

namespace gcr::core {
namespace {

/// Stream-id namespace for fault-model substreams, disjoint from the other
/// cluster seed consumers (0x6A00+r protocol jitter) because it passes
/// through mix_seed a second time.
constexpr std::uint64_t kFaultModelStreamBase = 0xFA17A11ULL;
/// Same construction for churn-model substreams; the base differs so a run
/// arming both models draws from disjoint streams.
constexpr std::uint64_t kChurnModelStreamBase = 0xC4021EULL;

/// Churn ops' quiescence / commit-poll cadence.
constexpr sim::Time kChurnPoll = sim::from_seconds(0.25);
/// Churn ops' backoff after a fault collides with a regroup.
constexpr sim::Time kChurnRetry = sim::from_seconds(1.0);

}  // namespace

RecoveryManager::RecoveryManager(mpi::Runtime& rt, GroupProtocol& protocol,
                                 ckpt::ImageRegistry& registry,
                                 ckpt::Checkpointer& checkpointer,
                                 RecoveryOptions options)
    : rt_(&rt), protocol_(&protocol), registry_(&registry),
      checkpointer_(&checkpointer), options_(options) {
  books_.resize(static_cast<std::size_t>(rt.nranks()));
  protocol_->set_restore_done_callback(
      [this](mpi::RankId rank) { on_restore_done(rank); });
}

void RecoveryManager::fail_group_at(int group, sim::Time t) {
  // Pin the group to its first rank NOW: churn may renumber the partition
  // before t arrives.
  const mpi::RankId rep = protocol_->groups().members(group).front();
  rt_->engine().call_at(t, [this, rep] { fail_group_of(rep); });
}

void RecoveryManager::set_state(const std::vector<mpi::RankId>& members,
                                GroupState state) {
  for (mpi::RankId m : members) books(m).state = state;
}

void RecoveryManager::kill_members(const std::vector<mpi::RankId>& members) {
  GCR_INFO("injecting failure of the group of rank %d (%zu ranks) at t=%.3fs",
           members.front(), members.size(),
           sim::to_seconds(rt_->engine().now()));
  for (mpi::RankId r : members) {
    rt_->kill_rank(rt_->rank(r));
    // A FAULT takes the node's staging buffer with it; the member's next
    // restore falls back to the shared tiers. (restart_all_at kills ranks
    // too, but voluntarily — healthy nodes keep their buffers warm.)
    checkpointer_->on_node_failed(r);
  }
}

void RecoveryManager::fail_group_of(mpi::RankId rank) {
  if (rt_->job_finished()) return;
  const std::vector<mpi::RankId>& members = members_of(rank);
  RankBooks& b = books(rank);
  switch (b.state) {
    case GroupState::kDown:
      // The group is already dead and queued; a node cannot die twice.
      // (Covers a node mid-rejoin-relaunch too: it is not up yet.)
      ++absorbed_;
      return;
    case GroupState::kDeparted:
      // The node left the cluster; there is nothing there to fail.
      ++absorbed_;
      return;
    case GroupState::kRestoring: {
      // Re-failure mid-restart: abort the restore in flight (the restore
      // and exchange-server coroutines die via Interposer::rank_killed, so
      // its completion callback never fires) and queue a fresh recovery.
      // If the restore was a REJOIN, the join is the casualty — the fresh
      // recovery is an ordinary one, so the failure books stay balanced.
      ++failures_;
      if (std::exchange(b.rejoining, false)) {
        ++joins_aborted_;
      } else {
        ++aborted_;
      }
      restore_in_flight_ = false;
      kill_members(members);
      set_state(members, GroupState::kDown);
      enqueue_restore(rank);
      maybe_start_restores();  // the aborted restore freed the slot
      return;
    }
    case GroupState::kAlive: {
      // A fault on nodes whose processes have ALL already exited does not
      // affect the job (a run is complete once every rank ran to the end);
      // there is nothing to kill or recover. A partially finished group is
      // still killed whole — its finished members roll back and re-execute
      // with the rest of the group. The kill is immediate even if the group
      // is mid-checkpoint — the round dies with the processes and the
      // group's staged images are discarded (rank_killed), so restore sees
      // the previous epoch.
      bool all_finished = true;
      for (mpi::RankId r : members) {
        if (!rt_->rank(r).finished()) {
          all_finished = false;
          break;
        }
      }
      if (all_finished) return;
      kill_members(members);
      ++failures_;
      set_state(members, GroupState::kDown);
      mark_down(members, rt_->engine().now());
      enqueue_restore(rank);
      maybe_start_restores();
      return;
    }
  }
}

void RecoveryManager::enqueue_restore(mpi::RankId rep) {
  const sim::Time ready =
      rt_->engine().now() +
      sim::from_seconds(options_.detect_s + options_.relaunch_s);
  queue_.push_back({ready, rep});
}

void RecoveryManager::maybe_start_restores() {
  while (!restore_in_flight_ && !queue_.empty()) {
    const PendingRestore next = queue_.front();
    if (next.ready_at > rt_->engine().now()) {
      // Head not ready: try again when it is. Spurious wakeups (several
      // timers armed over time) are harmless — the conditions re-check.
      rt_->engine().call_at(next.ready_at, [this] { maybe_start_restores(); });
      return;
    }
    queue_.pop_front();
    start_restore(next.rep);
  }
}

void RecoveryManager::start_restore(mpi::RankId rep) {
  const std::vector<mpi::RankId>& members = members_of(rep);
  set_state(members, GroupState::kRestoring);
  restore_in_flight_ = true;
  restore_ranks(members);
}

void RecoveryManager::on_restore_done(mpi::RankId rank) {
  RankBooks& b = books(rank);
  // Whole-application restarts (restart_all_at) also run the restore path
  // but never enter the queue; ignore their completions.
  if (b.state != GroupState::kRestoring) {
    return;
  }
  const std::vector<mpi::RankId>& members = members_of(rank);
  set_state(members, GroupState::kAlive);
  mark_up(members, rt_->engine().now());
  restore_in_flight_ = false;
  if (std::exchange(b.rejoining, false)) {
    ++joins_completed_;
    GCR_INFO("churn: rank %d rejoined at t=%.3fs", rank,
             sim::to_seconds(rt_->engine().now()));
    if (planner_ != nullptr) {
      enqueue_churn_op({ChurnOp::Kind::kMerge, rank, 0});
    }
  } else {
    ++completed_;
  }
  maybe_start_restores();
}

void RecoveryManager::arm_fault_model(
    std::unique_ptr<sim::NodeEventModel> model) {
  GCR_CHECK_MSG(fault_model_ == nullptr, "a fault model is already armed");
  arm_model(fault_model_, std::move(model), kFaultModelStreamBase);
}

void RecoveryManager::arm_model(std::unique_ptr<sim::NodeEventModel>& slot,
                                std::unique_ptr<sim::NodeEventModel> model,
                                std::uint64_t stream_base) {
  GCR_CHECK(model != nullptr);
  slot = std::move(model);
  const sim::Cluster* cluster = &rt_->cluster();
  slot->bind(rt_->nranks(), [cluster, stream_base](std::uint64_t stream) {
    return cluster->make_rng(mix_seed(stream_base, stream));
  });
  pump(*slot);
}

void RecoveryManager::pump(sim::NodeEventModel& model) {
  const std::optional<sim::NodeEvent> ev = model.next();
  if (!ev.has_value()) return;
  GCR_CHECK(ev->at_s >= 0);
  // Model times never decrease, so an event past the tick range (~292
  // years; from_seconds would overflow) ends the stream: none can fire.
  if (ev->at_s * 1e9 >= static_cast<double>(sim::kTimeMax)) return;
  // Clamp to now: a schedule may start before the arming time.
  const sim::Time at =
      std::max(sim::from_seconds(ev->at_s), rt_->engine().now());
  rt_->engine().call_at(at, [this, &model, e = *ev] {
    if (rt_->job_finished()) return;
    on_node_event(e);
    pump(model);
  });
}

void RecoveryManager::on_node_event(const sim::NodeEvent& ev) {
  // One rank per node (mpi::Runtime's placement); nodes beyond the rank
  // range (the driver node) host nothing.
  const mpi::RankId rank = ev.node;
  if (rank < 0 || rank >= rt_->nranks()) return;
  switch (ev.kind) {
    case sim::NodeEventKind::kFault:
      fail_group_of(rank);
      return;
    case sim::NodeEventKind::kDrain:
      ++books(rank).pending_departures;
      enqueue_churn_op({ChurnOp::Kind::kDrain, rank, 0});
      return;
    case sim::NodeEventKind::kReclaim: {
      // The warning clock starts at the EVENT, not when the op reaches the
      // head of the regroup queue — a busy queue genuinely eats notice.
      const std::uint64_t token = ++next_reclaim_token_;
      reclaim_pending_.insert(token);
      rt_->engine().call_after(
          sim::from_seconds(ev.warning_s),
          [this, rank, token] { reclaim_deadline(rank, token); });
      ++books(rank).pending_departures;
      enqueue_churn_op({ChurnOp::Kind::kReclaim, rank, token});
      return;
    }
    case sim::NodeEventKind::kJoin:
      start_join(rank);
      return;
  }
}

void RecoveryManager::restart_all_at(sim::Time t) {
  rt_->engine().call_at(t, [this] {
    std::vector<mpi::RankId> all;
    for (int r = 0; r < rt_->nranks(); ++r) {
      all.push_back(r);
      if (rt_->rank(r).alive()) rt_->kill_rank(rt_->rank(r));
    }
    rt_->engine().call_after(sim::from_seconds(options_.relaunch_s),
                             [this, all] { restore_ranks(all); });
  });
}

void RecoveryManager::restore_ranks(const std::vector<mpi::RankId>& ranks) {
  // One token per restore operation: every member of this restore keys its
  // restart barrier on it. (Keying on per-rank incarnations would deadlock
  // once elastic merges put ranks with different kill histories in one
  // group.)
  const std::uint64_t token = ++restore_tokens_;
  // Two passes: install every rank's state first, then respawn, so daemons
  // never see a peer in a half-reset state.
  for (mpi::RankId r : ranks) {
    mpi::Rank& rank = rt_->rank(r);
    rt_->begin_restart(rank);
    const ckpt::StoredCheckpoint* image = registry_->latest(r);
    if (image != nullptr) {
      rt_->restore_rank(rank, image->runtime_state);
    }
    protocol_->stage_restore(rank, image, token);
  }
  for (mpi::RankId r : ranks) {
    rt_->respawn_rank(rt_->rank(r));
  }
}

// --- availability -----------------------------------------------------------

void RecoveryManager::mark_down(const std::vector<mpi::RankId>& ranks,
                                sim::Time at) {
  for (mpi::RankId r : ranks) {
    sim::Time& since = books(r).down_since;
    if (since < 0) since = at;
  }
}

void RecoveryManager::mark_up(const std::vector<mpi::RankId>& ranks,
                              sim::Time at) {
  for (mpi::RankId r : ranks) {
    sim::Time& since = books(r).down_since;
    if (since >= 0) {
      downtime_ += at - since;
      since = -1;
    }
  }
}

double RecoveryManager::availability(sim::Time end) const {
  if (end <= 0) return 1.0;
  sim::Time down = downtime_;
  for (const RankBooks& b : books_) {
    if (b.down_since >= 0 && b.down_since < end) down += end - b.down_since;
  }
  const double total =
      sim::to_seconds(end) * static_cast<double>(rt_->nranks());
  return std::max(0.0, 1.0 - sim::to_seconds(down) / total);
}

// --- churn ------------------------------------------------------------------

void RecoveryManager::arm_churn_model(
    std::unique_ptr<sim::NodeEventModel> model,
    const RegroupPlanner* planner) {
  GCR_CHECK_MSG(churn_model_ == nullptr, "a churn model is already armed");
  planner_ = planner;
  // Churn may refill groups to the configured partition's grain but never
  // grow one past it (GP1 stays fully uncoordinated: cap 1 means no merge
  // target ever qualifies).
  churn_cap_ = static_cast<int>(protocol_->groups().largest_group_size());
  arm_model(churn_model_, std::move(model), kChurnModelStreamBase);
}

void RecoveryManager::enqueue_churn_op(ChurnOp op) {
  churn_ops_.push_back(op);
  pump_churn_ops();
}

void RecoveryManager::pump_churn_ops() {
  if (churn_op_active_ || churn_ops_.empty()) return;
  const ChurnOp op = churn_ops_.front();
  churn_ops_.pop_front();
  churn_op_active_ = true;
  sim::Engine& eng = rt_->engine();
  switch (op.kind) {
    case ChurnOp::Kind::kDrain:
      eng.spawn("drain" + std::to_string(op.rank),
                run_drain_op(op.rank, true, 0));
      return;
    case ChurnOp::Kind::kReclaim:
      eng.spawn("reclaim" + std::to_string(op.rank),
                run_drain_op(op.rank, false, op.token));
      return;
    case ChurnOp::Kind::kMerge:
      eng.spawn("merge" + std::to_string(op.rank), run_merge_op(op.rank));
      return;
  }
}

void RecoveryManager::finish_churn_op() {
  churn_op_active_ = false;
  // Start the next op from a fresh event, after the current coroutine has
  // fully unwound.
  rt_->engine().post([this] { pump_churn_ops(); });
}

sim::Co<void> RecoveryManager::run_drain_op(mpi::RankId rank, bool voluntary,
                                            std::uint64_t token) {
  sim::Engine& eng = rt_->engine();
  // A reclaim whose token is gone has lost to its deadline.
  const auto lost = [this, token] {
    return token != 0 && reclaim_pending_.count(token) == 0;
  };
  bool done = false;
  while (!done) {
    if (rt_->job_finished() || lost()) break;
    // A group with a finished member cannot checkpoint again (rounds abort
    // on finished ranks); the node lingers until the job ends.
    bool finished = false;
    for (mpi::RankId m : members_of(rank)) {
      if (rt_->rank(m).finished()) {
        finished = true;
        break;
      }
    }
    if (finished) break;
    if (books(rank).state != GroupState::kAlive) {
      // Already gone (duplicate drain).
      if (books(rank).state == GroupState::kDeparted) break;
      // Down or restoring: a clean exit may still be possible later (for a
      // reclaim, the deadline decides independently).
      co_await sim::delay(eng, kChurnRetry);
      continue;
    }
    if (!protocol_->quiescent_for_regroup(members_of(rank))) {
      co_await sim::delay(eng, kChurnPoll);
      continue;
    }
    // Quiescent and alive. Open the transition toward the post-departure
    // partition (conservative logging across BOTH cuts from here on), then
    // demand a checkpoint commit strictly newer than the rank's current
    // image — that committed cut is what the departed rank will rejoin
    // from, and what its group survives on without it. Churn ops are
    // serialized, so the partition holds still until this op installs.
    group::GroupSet pending = group::split_rank(protocol_->groups(), rank);
    const bool structural =
        pending.num_groups() != protocol_->groups().num_groups();
    if (structural) protocol_->begin_transition(pending);
    const ckpt::StoredCheckpoint* img = registry_->latest(rank);
    const std::uint64_t baseline = img != nullptr ? img->meta.cut_seq : 0;
    const mpi::RankId leader = members_of(rank).front();
    protocol_->request_checkpoint(leader);
    bool committed = false;
    bool collided = false;
    while (!committed && !collided) {
      co_await sim::delay(eng, kChurnPoll);
      if (rt_->job_finished() || lost()) {
        collided = true;
        done = true;  // the deadline (or the end of the run) took over
        break;
      }
      if (books(rank).state != GroupState::kAlive) {
        collided = true;  // a fault got the group mid-drain
        break;
      }
      const ckpt::StoredCheckpoint* latest = registry_->latest(rank);
      const std::uint64_t cut = latest != nullptr ? latest->meta.cut_seq : 0;
      const bool quiet = protocol_->quiescent_for_regroup(members_of(rank));
      if (cut > baseline && quiet) {
        committed = true;
      } else if (cut <= baseline && quiet) {
        // The request was dropped (leader busy) or the round aborted; ask
        // again from a quiescent state.
        protocol_->request_checkpoint(leader);
      }
    }
    if (!committed) {
      if (structural) protocol_->end_transition();
      if (!done) co_await sim::delay(eng, kChurnRetry);
      continue;
    }
    // Committed cut in hand and the group is quiescent again: install the
    // split and depart. Everything from here runs in one synchronous
    // instant, so nothing can slip between install and kill.
    if (structural) {
      protocol_->install_groups(std::move(pending));
      ++splits_installed_;
    }
    GCR_CHECK(members_of(rank).size() == 1);
    books(rank).state = GroupState::kDeparted;
    GCR_INFO("churn: %s departs rank %d at t=%.3fs",
             voluntary ? "drain" : "reclaim", rank,
             sim::to_seconds(eng.now()));
    rt_->kill_rank(rt_->rank(rank));
    if (voluntary) {
      ++drains_completed_;
    } else {
      // The provider takes the node: its staging buffer goes with it.
      checkpointer_->on_node_failed(rank);
      ++reclaims_clean_;
      reclaim_pending_.erase(token);
    }
    mark_down({rank}, eng.now());
    done = true;
  }
  // This departure op has resolved (departed, absorbed, cancelled, or the
  // job ended); one join that arrived meanwhile can now be admitted — or
  // absorbed, if the op did not actually depart the node.
  RankBooks& b = books(rank);
  GCR_CHECK_MSG(b.pending_departures > 0, "departure op was never counted");
  --b.pending_departures;
  if (b.joins_deferred > 0) {
    --b.joins_deferred;
    start_join(rank);
  }
  finish_churn_op();
}

void RecoveryManager::reclaim_deadline(mpi::RankId rank, std::uint64_t token) {
  if (reclaim_pending_.erase(token) == 0) return;  // the clean drain won
  if (rt_->job_finished()) return;
  ++reclaims_forced_;
  GCR_INFO("churn: reclaim warning for rank %d expired at t=%.3fs; forcing "
           "failure",
           rank, sim::to_seconds(rt_->engine().now()));
  fail_group_of(rank);
}

void RecoveryManager::start_join(mpi::RankId rank) {
  if (rt_->job_finished()) return;
  RankBooks& b = books(rank);
  if (b.state != GroupState::kDeparted) {
    if (b.pending_departures > 0) {
      // The model schedules joins on the wall clock (departure-event time
      // + outage), but the departure op may still be waiting for
      // quiescence or a committed cut. Park the join; the next op to
      // resolve re-issues it.
      ++b.joins_deferred;
      return;
    }
    // The node never departed (its drain was absorbed, or a forced reclaim
    // turned the departure into a failure — which recovers through the
    // ordinary queue); there is nothing to rejoin.
    return;
  }
  // A departed group is always the singleton the departure installed.
  GCR_CHECK(members_of(rank).size() == 1);
  b.state = GroupState::kDown;
  b.rejoining = true;
  GCR_INFO("churn: rank %d joining at t=%.3fs", rank,
           sim::to_seconds(rt_->engine().now()));
  // Joins ride the ordinary restore queue: detect_s stands in for the
  // scheduler noticing the node, relaunch_s for process creation, and it
  // waits its turn behind restores.
  enqueue_restore(rank);
  maybe_start_restores();
}

sim::Co<void> RecoveryManager::run_merge_op(mpi::RankId rank) {
  sim::Engine& eng = rt_->engine();
  for (;;) {
    if (rt_->job_finished() || planner_ == nullptr) break;
    // A fault mid-wait, a finished rank, or a lost singleton ends the
    // attempt; the rank stays where it is.
    if (books(rank).state != GroupState::kAlive ||
        members_of(rank).size() != 1 || rt_->rank(rank).finished()) {
      break;
    }
    const group::GroupSet& gs = protocol_->groups();
    const std::optional<int> target =
        planner_->choose_merge_target(rank, gs, churn_cap_);
    if (!target.has_value()) break;  // no affinity: stay a singleton
    const std::vector<mpi::RankId>& into = gs.members(*target);
    if (books(into.front()).state != GroupState::kAlive) {
      co_await sim::delay(eng, kChurnRetry);
      continue;
    }
    bool finished = false;
    for (mpi::RankId m : into) {
      if (rt_->rank(m).finished()) {
        finished = true;
        break;
      }
    }
    if (finished) break;
    if (!protocol_->quiescent_for_regroup({rank}) ||
        !protocol_->quiescent_for_regroup(into)) {
      co_await sim::delay(eng, kChurnPoll);
      continue;
    }
    // Both sides alive and quiescent. In ONE synchronous instant: open
    // transitional double-logging across the old cut (it persists until
    // the merged group's first joint commit clears it), then install the
    // merged partition.
    protocol_->add_transitional_logging({rank}, into);
    group::GroupSet next = group::merge_rank(gs, rank, *target);
    GCR_INFO("churn: merging rank %d into the group of rank %d at t=%.3fs",
             rank, into.front(), sim::to_seconds(eng.now()));
    protocol_->install_groups(std::move(next));
    ++merges_installed_;
    break;
  }
  finish_churn_op();
}

}  // namespace gcr::core
