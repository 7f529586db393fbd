#include "core/recovery.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "group/strategies.hpp"
#include "sim/awaitables.hpp"
#include "util/log.hpp"

namespace gcr::core {
namespace {

/// Stream-id namespace for FaultModel substreams, disjoint from the other
/// cluster seed consumers (0x6A00+r protocol jitter, 0xFA11+g legacy
/// failure streams) because it passes through mix_seed a second time.
constexpr std::uint64_t kFaultModelStreamBase = 0xFA17A11ULL;
/// Same construction for ChurnModel substreams; the base differs so a run
/// arming both models draws from disjoint streams.
constexpr std::uint64_t kChurnModelStreamBase = 0xC4021EULL;

}  // namespace

RecoveryManager::RecoveryManager(mpi::Runtime& rt, GroupProtocol& protocol,
                                 ckpt::ImageRegistry& registry,
                                 ckpt::Checkpointer& checkpointer,
                                 RecoveryOptions options)
    : rt_(&rt), protocol_(&protocol), registry_(&registry),
      checkpointer_(&checkpointer), options_(options) {
  GCR_CHECK(options_.max_concurrent_restores >= 1);
  const std::size_t ngroups =
      static_cast<std::size_t>(protocol.groups().num_groups());
  gstate_.assign(ngroups, GroupState::kAlive);
  down_since_.assign(static_cast<std::size_t>(rt.nranks()), sim::Time{-1});
  protocol_->set_restore_done_callback([this](int group) {
    on_restore_done(protocol_->groups().members(group).front());
  });
}

void RecoveryManager::fail_group_at(int group, sim::Time t) {
  // Pin the group to its representative rank NOW: churn may renumber the
  // partition before t arrives; in static runs the resolution is identity.
  const mpi::RankId rep = protocol_->groups().members(group).front();
  rt_->engine().call_at(t, [this, rep] {
    fail_group_now(protocol_->groups().group_of(rep));
  });
}

void RecoveryManager::fail_rank_at(mpi::RankId rank, sim::Time t) {
  rt_->engine().call_at(t, [this, rank] {
    fail_group_now(protocol_->groups().group_of(rank));
  });
}

void RecoveryManager::fail_node_at(int node, sim::Time t) {
  rt_->engine().call_at(t, [this, node] { fail_node_now(node); });
}

void RecoveryManager::fail_node_now(int node) {
  // One rank per node (mpi::Runtime's placement); nodes beyond the rank
  // range (the driver node) have nothing to kill.
  if (node < 0 || node >= rt_->nranks()) return;
  fail_group_now(protocol_->groups().group_of(node));
}

void RecoveryManager::kill_members(int group) {
  const auto& members = protocol_->groups().members(group);
  GCR_INFO("injecting failure of group %d (%zu ranks) at t=%.3fs", group,
           members.size(), sim::to_seconds(rt_->engine().now()));
  for (mpi::RankId r : members) {
    rt_->kill_rank(rt_->rank(r));
    // A FAULT takes the node's staging buffer with it; the member's next
    // restore falls back to the shared tiers. (restart_all_at kills ranks
    // too, but voluntarily — healthy nodes keep their buffers warm.)
    checkpointer_->on_node_failed(r);
  }
}

void RecoveryManager::fail_group_now(int group) {
  if (rt_->job_finished()) return;
  auto& st = gstate(group);
  switch (st) {
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
      const mpi::RankId rep = protocol_->groups().members(group).front();
      ++failures_;
      if (rejoining_.erase(rep) > 0) {
        ++joins_aborted_;
      } else {
        ++aborted_;
      }
      --restores_in_flight_;
      kill_members(group);
      st = GroupState::kDown;
      enqueue_restore(rep);
      maybe_start_restores();  // the aborted restore freed a slot
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
      const auto& members = protocol_->groups().members(group);
      bool all_finished = true;
      for (mpi::RankId r : members) {
        if (!rt_->rank(r).finished()) {
          all_finished = false;
          break;
        }
      }
      if (all_finished) return;
      const mpi::RankId rep = members.front();
      kill_members(group);
      ++failures_;
      st = GroupState::kDown;
      mark_down(members, rt_->engine().now());
      enqueue_restore(rep);
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
  while (restores_in_flight_ < options_.max_concurrent_restores &&
         !queue_.empty()) {
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
  const int group = protocol_->groups().group_of(rep);
  gstate(group) = GroupState::kRestoring;
  ++restores_in_flight_;
  restore_ranks(protocol_->groups().members(group));
}

void RecoveryManager::on_restore_done(mpi::RankId rep) {
  const int group = protocol_->groups().group_of(rep);
  // Whole-application restarts (restart_all_at) also run the restore path
  // but never enter the queue; ignore their completions.
  if (gstate(group) != GroupState::kRestoring) {
    return;
  }
  gstate(group) = GroupState::kAlive;
  mark_up(protocol_->groups().members(group), rt_->engine().now());
  --restores_in_flight_;
  if (rejoining_.erase(rep) > 0) {
    ++joins_completed_;
    GCR_INFO("churn: rank %d rejoined at t=%.3fs", rep,
             sim::to_seconds(rt_->engine().now()));
    if (churn_options_.merge_on_join && planner_ != nullptr) {
      enqueue_churn_op({ChurnOp::Kind::kMerge, rep, 0});
    }
  } else {
    ++completed_;
  }
  maybe_start_restores();
}

void RecoveryManager::arm_random_failures(const std::vector<double>& mtbf_s) {
  GCR_CHECK(static_cast<int>(mtbf_s.size()) ==
            protocol_->groups().num_groups());
  failure_rngs_.clear();
  for (std::size_t g = 0; g < mtbf_s.size(); ++g) {
    failure_rngs_.push_back(rt_->cluster().make_rng(
        0xFA11 + static_cast<std::uint64_t>(g)));
  }
  for (std::size_t g = 0; g < mtbf_s.size(); ++g) {
    if (mtbf_s[g] > 0) {
      // The arrival STREAM stays keyed to the arming-time group index (so
      // the legacy timeline is bit-identical); the TARGET is pinned to the
      // representative rank, which stays meaningful across churn installs.
      schedule_next_random_failure(
          static_cast<int>(g),
          protocol_->groups().members(static_cast<int>(g)).front(),
          mtbf_s[g]);
    }
  }
}

void RecoveryManager::schedule_next_random_failure(int stream, mpi::RankId rep,
                                                   double mtbf_s) {
  const double wait =
      failure_rngs_[static_cast<std::size_t>(stream)].next_exponential(mtbf_s);
  rt_->engine().call_after(sim::from_seconds(wait),
                           [this, stream, rep, mtbf_s] {
    if (rt_->job_finished()) return;
    fail_group_now(protocol_->groups().group_of(rep));
    schedule_next_random_failure(stream, rep, mtbf_s);
  });
}

void RecoveryManager::arm_fault_model(std::unique_ptr<sim::FaultModel> model) {
  GCR_CHECK(model != nullptr);
  GCR_CHECK_MSG(fault_model_ == nullptr, "a fault model is already armed");
  fault_model_ = std::move(model);
  const sim::Cluster* cluster = &rt_->cluster();
  fault_model_->bind(rt_->nranks(), [cluster](std::uint64_t stream) {
    return cluster->make_rng(mix_seed(kFaultModelStreamBase, stream));
  });
  schedule_next_model_event();
}

void RecoveryManager::schedule_next_model_event() {
  const std::optional<sim::FaultEvent> ev = fault_model_->next();
  if (!ev.has_value()) return;
  GCR_CHECK(ev->at_s >= 0);
  // Clamp to now: a schedule may start before the arming time.
  const sim::Time at =
      std::max(sim::from_seconds(ev->at_s), rt_->engine().now());
  rt_->engine().call_at(at, [this, node = ev->node] {
    if (rt_->job_finished()) return;
    fail_node_now(node);
    schedule_next_model_event();
  });
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
    sim::Time& since = down_since_[static_cast<std::size_t>(r)];
    if (since < 0) since = at;
  }
}

void RecoveryManager::mark_up(const std::vector<mpi::RankId>& ranks,
                              sim::Time at) {
  for (mpi::RankId r : ranks) {
    sim::Time& since = down_since_[static_cast<std::size_t>(r)];
    if (since >= 0) {
      downtime_ += at - since;
      since = -1;
    }
  }
}

double RecoveryManager::availability(sim::Time end) const {
  if (end <= 0) return 1.0;
  sim::Time down = downtime_;
  for (sim::Time since : down_since_) {
    if (since >= 0 && since < end) down += end - since;
  }
  const double total =
      sim::to_seconds(end) * static_cast<double>(rt_->nranks());
  return std::max(0.0, 1.0 - sim::to_seconds(down) / total);
}

// --- churn ------------------------------------------------------------------

void RecoveryManager::arm_churn_model(std::unique_ptr<sim::ChurnModel> model,
                                      const RegroupPlanner* planner,
                                      ChurnOptions options) {
  GCR_CHECK(model != nullptr);
  GCR_CHECK_MSG(churn_model_ == nullptr, "a churn model is already armed");
  GCR_CHECK(options.poll_s > 0 && options.retry_s > 0);
  churn_model_ = std::move(model);
  planner_ = planner;
  churn_options_ = options;
  churn_cap_ = options.max_group_size;
  if (churn_cap_ <= 0) {
    // Default: churn may refill groups to the configured partition's grain
    // but never grow one past it (GP1 stays fully uncoordinated: cap 1
    // means no merge target ever qualifies).
    for (int g = 0; g < protocol_->groups().num_groups(); ++g) {
      churn_cap_ = std::max(
          churn_cap_, static_cast<int>(protocol_->groups().members(g).size()));
    }
  }
  const sim::Cluster* cluster = &rt_->cluster();
  churn_model_->bind(rt_->nranks(), [cluster](std::uint64_t stream) {
    return cluster->make_rng(mix_seed(kChurnModelStreamBase, stream));
  });
  schedule_next_churn_event();
}

void RecoveryManager::schedule_next_churn_event() {
  const std::optional<sim::ChurnEvent> ev = churn_model_->next();
  if (!ev.has_value()) return;
  GCR_CHECK(ev->at_s >= 0);
  const sim::Time at =
      std::max(sim::from_seconds(ev->at_s), rt_->engine().now());
  rt_->engine().call_at(at, [this, e = *ev] {
    if (rt_->job_finished()) return;
    on_churn_event(e);
    schedule_next_churn_event();
  });
}

void RecoveryManager::on_churn_event(const sim::ChurnEvent& ev) {
  const mpi::RankId rank = ev.node;  // one rank per node
  if (rank < 0 || rank >= rt_->nranks()) return;
  switch (ev.kind) {
    case sim::ChurnEventKind::kDrain:
      pending_departures_.insert(rank);
      enqueue_churn_op({ChurnOp::Kind::kDrain, rank, 0});
      return;
    case sim::ChurnEventKind::kReclaim: {
      // The warning clock starts at the EVENT, not when the op reaches the
      // head of the regroup queue — a busy queue genuinely eats notice.
      const std::uint64_t token = ++next_reclaim_token_;
      reclaim_pending_.insert(token);
      rt_->engine().call_after(
          sim::from_seconds(ev.warning_s),
          [this, rank, token] { reclaim_deadline(rank, token); });
      pending_departures_.insert(rank);
      enqueue_churn_op({ChurnOp::Kind::kReclaim, rank, token});
      return;
    }
    case sim::ChurnEventKind::kJoin:
      start_join(rank);
      return;
  }
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
  std::erase_if(churn_procs_, [](const sim::ProcPtr& p) {
    return p == nullptr || !p->alive();
  });
  sim::Engine& eng = rt_->engine();
  switch (op.kind) {
    case ChurnOp::Kind::kDrain:
      churn_procs_.push_back(eng.spawn("drain" + std::to_string(op.rank),
                                       run_drain_op(op.rank, true, 0)));
      return;
    case ChurnOp::Kind::kReclaim:
      churn_procs_.push_back(eng.spawn("reclaim" + std::to_string(op.rank),
                                       run_drain_op(op.rank, false, op.token)));
      return;
    case ChurnOp::Kind::kMerge:
      churn_procs_.push_back(eng.spawn("merge" + std::to_string(op.rank),
                                       run_merge_op(op.rank)));
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
  const sim::Time poll = sim::from_seconds(churn_options_.poll_s);
  const sim::Time retry = sim::from_seconds(churn_options_.retry_s);
  bool done = false;
  while (!done) {
    if (rt_->job_finished() ||
        (token != 0 && churn_cancelled_.count(token) != 0)) {
      break;
    }
    const group::GroupSet& gs = protocol_->groups();
    const int g = gs.group_of(rank);
    // A group with a finished member cannot checkpoint again (rounds abort
    // on finished ranks); the node lingers until the job ends.
    bool finished = false;
    for (mpi::RankId m : gs.members(g)) {
      if (rt_->rank(m).finished()) {
        finished = true;
        break;
      }
    }
    if (finished) {
      ++churn_absorbed_;
      break;
    }
    if (gstate(g) != GroupState::kAlive) {
      if (gstate(g) == GroupState::kDeparted) {
        ++churn_absorbed_;  // already gone (duplicate drain)
        break;
      }
      // Down or restoring: a clean exit may still be possible later (for a
      // reclaim, the deadline decides independently).
      co_await sim::delay(eng, retry);
      continue;
    }
    if (!protocol_->quiescent_for_regroup(gs.members(g))) {
      co_await sim::delay(eng, poll);
      continue;
    }
    // Quiescent and alive. Open the transition toward the post-departure
    // partition (conservative logging across BOTH cuts from here on), then
    // demand a checkpoint commit strictly newer than the rank's current
    // image — that committed cut is what the departed rank will rejoin
    // from, and what its group survives on without it.
    group::GroupSet pending = group::split_rank(gs, rank);
    const bool structural = pending.num_groups() != gs.num_groups();
    if (structural) protocol_->begin_transition(pending);
    const ckpt::StoredCheckpoint* img = registry_->latest(rank);
    const std::uint64_t baseline = img != nullptr ? img->meta.cut_seq : 0;
    protocol_->request_group_checkpoint(g);
    bool committed = false;
    bool collided = false;
    while (!committed && !collided) {
      co_await sim::delay(eng, poll);
      if (rt_->job_finished() ||
          (token != 0 && churn_cancelled_.count(token) != 0)) {
        collided = true;
        done = true;  // the deadline (or the end of the run) took over
        break;
      }
      if (gstate(g) != GroupState::kAlive) {
        collided = true;  // a fault got the group mid-drain
        break;
      }
      const ckpt::StoredCheckpoint* latest = registry_->latest(rank);
      const std::uint64_t cut = latest != nullptr ? latest->meta.cut_seq : 0;
      const bool quiet = protocol_->quiescent_for_regroup(gs.members(g));
      if (cut > baseline && quiet) {
        committed = true;
      } else if (cut <= baseline && quiet) {
        // The request was dropped (leader busy) or the round aborted; ask
        // again from a quiescent state.
        protocol_->request_group_checkpoint(g);
      }
    }
    if (!committed) {
      if (structural) protocol_->end_transition();
      if (!done) co_await sim::delay(eng, retry);
      continue;
    }
    // Committed cut in hand and the group is quiescent again: install the
    // split and depart. Everything from here runs in one synchronous
    // instant, so nothing can slip between install and kill.
    if (structural) {
      install_grouping(std::move(pending));
      ++splits_installed_;
    }
    const int gd = protocol_->groups().group_of(rank);
    GCR_CHECK(protocol_->groups().members(gd).size() == 1);
    gstate(gd) = GroupState::kDeparted;
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
    mark_down(protocol_->groups().members(gd), eng.now());
    done = true;
  }
  // This departure op has resolved (departed, absorbed, cancelled, or the
  // job ended); a join that arrived meanwhile can now be admitted — or
  // absorbed, if the op did not actually depart the node.
  const auto dep = pending_departures_.find(rank);
  if (dep != pending_departures_.end()) pending_departures_.erase(dep);
  if (deferred_joins_.erase(rank) != 0) start_join(rank);
  finish_churn_op();
}

void RecoveryManager::reclaim_deadline(mpi::RankId rank, std::uint64_t token) {
  if (reclaim_pending_.erase(token) == 0) return;  // the clean drain won
  churn_cancelled_.insert(token);
  if (rt_->job_finished()) return;
  ++reclaims_forced_;
  GCR_INFO("churn: reclaim warning for rank %d expired at t=%.3fs; forcing "
           "failure",
           rank, sim::to_seconds(rt_->engine().now()));
  fail_group_now(protocol_->groups().group_of(rank));
}

void RecoveryManager::start_join(mpi::RankId rank) {
  if (rt_->job_finished()) return;
  const int g = protocol_->groups().group_of(rank);
  if (gstate(g) != GroupState::kDeparted) {
    if (pending_departures_.count(rank) != 0) {
      // The model schedules joins on the wall clock (departure-event time
      // + outage), but the departure op may still be waiting for
      // quiescence or a committed cut. Park the join; the op re-issues it
      // when it resolves.
      deferred_joins_.insert(rank);
      return;
    }
    // The node never departed (its drain was absorbed, or a forced reclaim
    // turned the departure into a failure — which recovers through the
    // ordinary queue); there is nothing to rejoin.
    ++churn_absorbed_;
    return;
  }
  // A departed group is always the singleton the departure installed.
  GCR_CHECK(protocol_->groups().members(g).size() == 1);
  gstate(g) = GroupState::kDown;
  rejoining_.insert(rank);
  GCR_INFO("churn: rank %d joining at t=%.3fs", rank,
           sim::to_seconds(rt_->engine().now()));
  // Joins ride the ordinary restore queue: detect_s stands in for the
  // scheduler noticing the node, relaunch_s for process creation, and the
  // restore-slot limit applies.
  enqueue_restore(rank);
  maybe_start_restores();
}

sim::Co<void> RecoveryManager::run_merge_op(mpi::RankId rank) {
  sim::Engine& eng = rt_->engine();
  const sim::Time poll = sim::from_seconds(churn_options_.poll_s);
  const sim::Time retry = sim::from_seconds(churn_options_.retry_s);
  for (;;) {
    if (rt_->job_finished() || planner_ == nullptr) break;
    const group::GroupSet& gs = protocol_->groups();
    const int from = gs.group_of(rank);
    // A fault mid-wait, a finished rank, or a lost singleton ends the
    // attempt; the rank stays where it is.
    if (gstate(from) != GroupState::kAlive ||
        gs.members(from).size() != 1 || rt_->rank(rank).finished()) {
      break;
    }
    const std::optional<int> target =
        planner_->choose_merge_target(rank, gs, churn_cap_);
    if (!target.has_value()) break;  // no affinity: stay a singleton
    const int tg = *target;
    if (gstate(tg) != GroupState::kAlive) {
      co_await sim::delay(eng, retry);
      continue;
    }
    bool finished = false;
    for (mpi::RankId m : gs.members(tg)) {
      if (rt_->rank(m).finished()) {
        finished = true;
        break;
      }
    }
    if (finished) break;
    if (!protocol_->quiescent_for_regroup(gs.members(from)) ||
        !protocol_->quiescent_for_regroup(gs.members(tg))) {
      co_await sim::delay(eng, poll);
      continue;
    }
    // Both sides alive and quiescent. In ONE synchronous instant: open
    // transitional double-logging across the old cut (it persists until
    // the merged group's first joint commit clears it), then install the
    // merged partition.
    protocol_->add_transitional_logging({rank}, gs.members(tg));
    group::GroupSet next = group::merge_rank(gs, rank, tg);
    GCR_INFO("churn: merging rank %d into group %d at t=%.3fs", rank, tg,
             sim::to_seconds(eng.now()));
    install_grouping(std::move(next));
    ++merges_installed_;
    break;
  }
  finish_churn_op();
}

void RecoveryManager::install_grouping(group::GroupSet next) {
  const group::GroupSet& cur = protocol_->groups();
  std::map<std::vector<mpi::RankId>, GroupState> carry;
  for (int g = 0; g < cur.num_groups(); ++g) {
    carry.emplace(cur.members(g), gstate(g));
  }
  protocol_->install_groups(std::move(next));
  const group::GroupSet& now = protocol_->groups();
  // Unchanged member sets keep their state; changed groups start kAlive
  // (the transition machinery only installs over alive, quiescent ranks).
  gstate_.assign(static_cast<std::size_t>(now.num_groups()),
                 GroupState::kAlive);
  for (int g = 0; g < now.num_groups(); ++g) {
    const auto it = carry.find(now.members(g));
    if (it != carry.end()) gstate(g) = it->second;
  }
}

}  // namespace gcr::core
