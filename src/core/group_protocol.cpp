#include "core/group_protocol.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace gcr::core {
namespace {

/// commit_iteration value meaning "checkpoint at the very next safe point"
/// (single-member groups need no cross-member agreement).
constexpr std::uint64_t kAnyIteration = ~std::uint64_t{0};

/// Epoch namespace for restart barriers (disjoint from checkpoint epochs).
constexpr std::uint64_t kRestartEpochBase = std::uint64_t{1} << 40;

/// Sender-side async log memcpy rate.
constexpr double kLogCopyBps = 800e6;
/// Per-message logging bookkeeping.
constexpr double kLogPerMsgS = 3e-6;
/// Entering the checkpoint path.
constexpr double kSignalHandlingS = 2e-3;
/// Daemon cost per replayed message.
constexpr double kReplayPerMsgS = 40e-6;
/// Daemon cost per exchange.
constexpr double kExchangeHandlingS = 150e-6;

/// Single-process (uncoordinated) checkpoints are taken wherever the
/// signal catches the process, modeled as a per-group random skew of up
/// to this many safe points; coordinated groups' agreement rounds keep
/// their cuts within one safe point. The resulting cut misalignment is
/// what leaves inter-group traffic to be replayed on restart (Figs 7/8),
/// and why GP1's resend volumes exceed GP's.
constexpr int kTargetSkewSteps = 4;

}  // namespace

GroupProtocol::GroupProtocol(mpi::Runtime& rt, const group::GroupSet& groups,
                             ckpt::Checkpointer& checkpointer,
                             ckpt::ImageRegistry& registry,
                             ImageSizeFn image_bytes, Metrics& metrics,
                             GroupProtocolOptions options)
    : rt_(&rt), groups_(groups), checkpointer_(&checkpointer),
      registry_(&registry), image_bytes_(std::move(image_bytes)),
      metrics_(&metrics), options_(options) {
  GCR_CHECK(groups_.nranks() == rt.nranks());
  const int n = rt.nranks();
  states_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto st = std::make_unique<RankState>();
    st->rr.assign(static_cast<std::size_t>(n), 0);
    st->first_send.assign(static_cast<std::size_t>(n), 0);
    st->skip_bytes.assign(static_cast<std::size_t>(n), 0);
    st->bookmarks.assign(static_cast<std::size_t>(n), kNoBookmark);
    st->bookmark_met.assign(static_cast<std::size_t>(n), 0);
    st->event = std::make_unique<sim::Trigger>(rt.engine());
    st->jitter_rng = rt.cluster().make_rng(0x6A00 + static_cast<std::uint64_t>(r));
    states_.push_back(std::move(st));
  }
}

void GroupProtocol::wake(mpi::Rank& rank) { state(rank).event->fire(); }

std::uint64_t GroupProtocol::draw_target_skew(RankState& st,
                                              bool coordinated) {
  // A coordinated group's cut comes out of the prepare/commit agreement and
  // lands within a safe point or two of the request; an uncoordinated
  // (single-process) checkpoint is taken wherever the signal catches the
  // process, so its cut spreads over the full skew window.
  const int window = coordinated ? 1 : kTargetSkewSteps;
  return st.jitter_rng.next_below(static_cast<std::uint64_t>(window) + 1);
}

void GroupProtocol::finalize_metrics() {}

// ------------------------------------------------------------- send/deliver

sim::Co<bool> GroupProtocol::before_send(mpi::Rank& rank, mpi::Message& msg) {
  RankState& st = state(rank);
  const bool crossing = !groups_.same_group(msg.src, msg.dst);
  // Elastic transitions log conservatively: during a split transition any
  // message crossing the pending grouping is logged too (the pair will be
  // cross after the install), and after a merge install the formerly-cross
  // pairs keep logging until the first joint commit (extra_log). Both sets
  // are empty in static runs, where `logged == crossing` exactly.
  const bool logged =
      crossing ||
      (transition_ && !transition_->same_group(msg.src, msg.dst)) ||
      st.extra_log.count(msg.dst) > 0;
  if (logged) {
    // Logged even when transmission is suppressed: the receiver has the
    // message, but a *future* failure of the receiver still needs it.
    st.log.append(msg);
    ++metrics_->logged_messages;
    metrics_->logged_bytes += msg.bytes;
  }
  std::int64_t& skip = st.skip_bytes[static_cast<std::size_t>(msg.dst)];
  if (skip > 0) {
    GCR_CHECK_MSG(msg.bytes <= skip,
                  "re-execution send misaligned with skip volume");
    skip -= msg.bytes;
    co_return false;  // peer already received this message
  }
  if (logged) {
    // Asynchronous sender-side logging still costs a buffer copy.
    co_await sim::delay(
        rt_->engine(),
        sim::from_seconds(kLogPerMsgS +
                          static_cast<double>(msg.bytes) / kLogCopyBps));
    // RR piggybacking (log GC) stays keyed on the CURRENT grouping.
    if (crossing && st.first_send[static_cast<std::size_t>(msg.dst)]) {
      msg.piggyback_rr = st.rr[static_cast<std::size_t>(msg.dst)];
      st.first_send[static_cast<std::size_t>(msg.dst)] = 0;
    }
  }
  co_return true;
}

void GroupProtocol::on_deliver(mpi::Rank& rank, const mpi::Message& msg) {
  RankState& st = state(rank);
  if (msg.piggyback_rr >= 0) {
    st.log.gc(msg.src, msg.piggyback_rr);
  }
  if (st.bookmark_wait_active) note_bookmark_progress(st, rank, msg.src);
  if (st.in_checkpoint) wake(rank);  // drain predicate may now hold
}

void GroupProtocol::note_bookmark_progress(RankState& st,
                                           const mpi::Rank& rank,
                                           mpi::RankId m) {
  if (!st.bookmark_wait_active || m == rank.id()) return;
  const auto i = static_cast<std::size_t>(m);
  const std::int64_t mark = st.bookmarks[i];
  const bool met = mark != kNoBookmark && rank.recvd_from(m).bytes >= mark;
  std::uint8_t& counted = st.bookmark_met[i];
  if (met && !counted) {
    counted = 1;
    --st.bookmark_unmet;
  } else if (!met && counted) {
    // A late bookmark re-keyed the requirement upward; re-arm the count.
    counted = 0;
    ++st.bookmark_unmet;
  }
}

// ------------------------------------------------------------ daemon / ctrl

void GroupProtocol::rank_started(mpi::Rank& rank) {
  sim::Engine& eng = rt_->engine();
  auto proc = eng.spawn("crdaemon" + std::to_string(rank.id()),
                        daemon_loop(rank));
  rt_->set_daemon_proc(rank, std::move(proc));
  RankState& st = state(rank);
  if (st.restoring) {
    st.restore_proc = eng.spawn("restore" + std::to_string(rank.id()),
                                run_restore(rank));
  }
  // Deferred exchanges: any peer that restarted while this rank was down
  // re-issues its volume-exchange request now that we are back, so the
  // pair's replay/skip state converges even though the peer's restart
  // preparation already completed without us.
  const mpi::RankId back = rank.id();
  for (int p = 0; p < rt_->nranks(); ++p) {
    if (p == back) continue;
    mpi::Rank& peer = rt_->rank(p);
    RankState& ps = state(p);
    if (!peer.alive() || ps.exchange_deferred.count(back) == 0) continue;
    ps.exchange_deferred.erase(back);
    ps.exchange_pending.insert(back);
    mpi::Message req;
    req.ctrl = mpi::CtrlKind::kExchangeRequest;
    req.ctrl_data = {ps.exchange_r[static_cast<std::size_t>(back)],
                     peer.sent_to(back).bytes};
    rt_->send_ctrl(p, back, req);
  }
}

void GroupProtocol::rank_killed(mpi::Rank& rank) {
  RankState& st = state(rank);
  sim::Engine& eng = rt_->engine();
  // Stop auxiliary coroutines still acting for the dead incarnation.
  if (st.restore_proc && st.restore_proc->alive()) {
    eng.kill(*st.restore_proc);
  }
  st.restore_proc.reset();
  for (sim::ProcPtr& p : st.serve_procs) {
    if (p && p->alive()) eng.kill(*p);
  }
  st.serve_procs.clear();
  // Roll back checkpoint state that died with the process: an image whose
  // group commit never happened must not be restored from. (Whether the
  // node's staging-buffer copy of the COMMITTED image survives is the
  // recovery manager's call — faults lose it, voluntary restarts keep it.)
  registry_->discard_staged(rank.id());
  checkpointer_->discard_staged(rank.id());
  if (is_leader(rank) && st.round_open) {
    ++metrics_->aborted_rounds;
    st.round_open = false;
  }
  st.commit_pending = false;
  st.in_checkpoint = false;
  st.bookmark_wait_active = false;  // wait coroutine died with the rank
  st.bookmark_unmet = 0;
  std::fill(st.bookmark_met.begin(), st.bookmark_met.end(), 0);
  st.restoring = false;
  st.exchange_pending.clear();
  st.exchange_deferred.clear();
  // Peers mid-restart waiting on our exchange reply must not wait forever:
  // re-route their exchange to the deferred path (re-issued when we
  // respawn) and wake them so their restart preparation can complete.
  const mpi::RankId dead = rank.id();
  for (int p = 0; p < rt_->nranks(); ++p) {
    if (p == dead) continue;
    RankState& ps = state(p);
    if (ps.exchange_pending.erase(dead) > 0) {
      ps.exchange_deferred.insert(dead);
      wake(rt_->rank(p));
    }
  }
}

void GroupProtocol::rank_finished(mpi::Rank& rank) {
  RankState& st = state(rank);
  if (is_leader(rank) && st.round_open) {
    ++metrics_->aborted_rounds;
    st.round_open = false;
  }
  if (st.commit_pending) {
    // We accepted a commit but the application ended before reaching the
    // target iteration: abort the epoch so the group does not wait forever.
    const std::uint64_t epoch = st.commit_epoch;
    st.commit_pending = false;
    st.aborted.insert(epoch);
    wake(rank);
    mpi::Message abort;
    abort.ctrl = mpi::CtrlKind::kAbort;
    abort.ctrl_data = {static_cast<std::int64_t>(epoch)};
    const int g = groups_.group_of(rank.id());
    for (mpi::RankId m : groups_.members(g)) {
      if (m != rank.id()) rt_->send_ctrl(rank.id(), m, abort);
    }
  }
}

sim::Co<void> GroupProtocol::daemon_loop(mpi::Rank& rank) {
  // A ctrl backlog drains synchronously: pop() completes without suspending
  // while messages are queued, and symmetric transfer resumes this loop from
  // inside handle_ctrl's final suspend, so every synchronously handled
  // message nests two more native frames. A 4k-rank bookmark storm queues
  // thousands at once — enough to overflow the stack — so bounce through the
  // event queue (delay 0 is a real suspension) every kMaxSyncDrain messages.
  // The bound sits far above any backlog a paper-scale (<= 32 rank) run
  // produces, so their event sequences — and the flat-equivalence goldens —
  // are untouched.
  constexpr int kMaxSyncDrain = 64;
  int burst = 0;
  for (;;) {
    if (rank.ctrl_in().empty()) {
      burst = 0;  // pop() will suspend; resumption starts from a fresh stack
    } else if (++burst >= kMaxSyncDrain) {
      burst = 0;
      co_await sim::delay(rt_->engine(), sim::Time{0});
    }
    mpi::Message msg = co_await rank.ctrl_in().pop();
    co_await handle_ctrl(rank, std::move(msg));
  }
}

sim::Co<void> GroupProtocol::handle_ctrl(mpi::Rank& rank, mpi::Message msg) {
  RankState& st = state(rank);
  const int g = groups_.group_of(rank.id());
  const auto& members = groups_.members(g);

  switch (msg.ctrl) {
    case mpi::CtrlKind::kCkptRequest: {
      if (!is_leader(rank) || st.round_open) co_return;
      if (rank.finished()) {
        ++metrics_->aborted_rounds;
        co_return;
      }
      st.round_open = true;
      st.signal_at = rt_->engine().now();
      const std::uint64_t epoch = st.next_epoch++;
      if (members.size() == 1) {
        st.commit_pending = true;
        st.commit_epoch = epoch;
        st.commit_iteration =
            rank.iteration() + 1 + draw_target_skew(st, /*coordinated=*/false);
        co_return;
      }
      mpi::Message prep;
      prep.ctrl = mpi::CtrlKind::kPrepare;
      prep.ctrl_data = {static_cast<std::int64_t>(epoch)};
      for (mpi::RankId m : members) {
        if (m != rank.id()) rt_->send_ctrl(rank.id(), m, prep);
      }
      st.prepare_replies[epoch] = {};
      co_return;
    }

    case mpi::CtrlKind::kPrepare: {
      const auto epoch = static_cast<std::uint64_t>(msg.ctrl_data.at(0));
      st.signal_at = rt_->engine().now();
      mpi::Message reply;
      reply.ctrl = mpi::CtrlKind::kPrepareReply;
      reply.ctrl_data = {
          static_cast<std::int64_t>(epoch),
          rank.finished() ? -1
                          : static_cast<std::int64_t>(rank.iteration())};
      rt_->send_ctrl(rank.id(), msg.src, reply);
      co_return;
    }

    case mpi::CtrlKind::kPrepareReply: {
      const auto epoch = static_cast<std::uint64_t>(msg.ctrl_data.at(0));
      auto it = st.prepare_replies.find(epoch);
      if (it == st.prepare_replies.end()) co_return;  // stale
      it->second.push_back(msg.ctrl_data.at(1));
      if (it->second.size() + 1 < members.size()) co_return;
      // All replies in: decide.
      bool anyone_finished = rank.finished();
      std::int64_t max_iter = static_cast<std::int64_t>(rank.iteration());
      for (std::int64_t v : it->second) {
        if (v < 0) anyone_finished = true;
        max_iter = std::max(max_iter, v);
      }
      st.prepare_replies.erase(it);
      if (anyone_finished) {
        ++metrics_->aborted_rounds;
        st.aborted.insert(epoch);
        st.round_open = false;
        mpi::Message abort;
        abort.ctrl = mpi::CtrlKind::kAbort;
        abort.ctrl_data = {static_cast<std::int64_t>(epoch)};
        for (mpi::RankId m : members) {
          if (m != rank.id()) rt_->send_ctrl(rank.id(), m, abort);
        }
        co_return;
      }
      const std::uint64_t target =
          static_cast<std::uint64_t>(max_iter) +
          static_cast<std::uint64_t>(options_.commit_margin) +
          draw_target_skew(st, /*coordinated=*/true);
      mpi::Message commit;
      commit.ctrl = mpi::CtrlKind::kCommit;
      commit.ctrl_data = {static_cast<std::int64_t>(epoch),
                          static_cast<std::int64_t>(target)};
      for (mpi::RankId m : members) {
        if (m != rank.id()) rt_->send_ctrl(rank.id(), m, commit);
      }
      st.commit_pending = true;
      st.commit_epoch = epoch;
      st.commit_iteration = target;
      co_return;
    }

    case mpi::CtrlKind::kCommit: {
      const auto epoch = static_cast<std::uint64_t>(msg.ctrl_data.at(0));
      const auto target = static_cast<std::uint64_t>(msg.ctrl_data.at(1));
      if (st.aborted.count(epoch)) co_return;
      if (rank.finished() || rank.iteration() >= target) {
        // Can no longer checkpoint at the target — finished, or already
        // past it (a member that raced ahead of the prepare round's
        // estimate) — so abort the epoch group-wide.
        st.aborted.insert(epoch);
        mpi::Message abort;
        abort.ctrl = mpi::CtrlKind::kAbort;
        abort.ctrl_data = {static_cast<std::int64_t>(epoch)};
        for (mpi::RankId m : members) {
          if (m != rank.id()) rt_->send_ctrl(rank.id(), m, abort);
        }
        co_return;
      }
      st.commit_pending = true;
      st.commit_epoch = epoch;
      st.commit_iteration = target;
      co_return;
    }

    case mpi::CtrlKind::kAbort: {
      const auto epoch = static_cast<std::uint64_t>(msg.ctrl_data.at(0));
      st.aborted.insert(epoch);
      if (st.commit_pending && st.commit_epoch == epoch) {
        st.commit_pending = false;
      }
      if (is_leader(rank) && st.round_open) {
        ++metrics_->aborted_rounds;
        st.round_open = false;
      }
      wake(rank);
      co_return;
    }

    case mpi::CtrlKind::kBookmark: {
      const auto epoch = static_cast<std::uint64_t>(msg.ctrl_data.at(0));
      (void)epoch;  // one round per group at a time; keyed by source
      const std::int64_t mark = msg.ctrl_data.at(1);
      GCR_CHECK(msg.src >= 0 && msg.src < rt_->nranks() && mark >= 0);
      st.bookmarks[static_cast<std::size_t>(msg.src)] = mark;
      if (st.bookmark_wait_active) note_bookmark_progress(st, rank, msg.src);
      wake(rank);
      co_return;
    }

    case mpi::CtrlKind::kBarrierAck: {
      const std::uint64_t key =
          barrier_key(static_cast<std::uint64_t>(msg.ctrl_data.at(0)),
                      static_cast<int>(msg.ctrl_data.at(1)));
      ++st.barrier_acks[key];
      wake(rank);
      co_return;
    }

    case mpi::CtrlKind::kBarrierGo: {
      const std::uint64_t key =
          barrier_key(static_cast<std::uint64_t>(msg.ctrl_data.at(0)),
                      static_cast<int>(msg.ctrl_data.at(1)));
      st.barrier_go.insert(key);
      wake(rank);
      co_return;
    }

    case mpi::CtrlKind::kExchangeRequest: {
      // A restarting peer announces its restored volumes. It rolled its
      // receive counters back to ctrl_data[0]; re-base our re-execution
      // skip toward it synchronously — a stale skip from an earlier
      // exchange would suppress sends the rolled-back peer needs again,
      // and the replay below only covers what is already in our log.
      const std::int64_t peer_r = msg.ctrl_data.at(0);
      st.skip_bytes[static_cast<std::size_t>(msg.src)] =
          std::max<std::int64_t>(0, peer_r - rank.sent_to(msg.src).bytes);
      // Served in its own coroutine so the daemon keeps answering other
      // peers; the reply is sent AFTER the replay so the peer's
      // restart-preparation time includes the message resend (paper: GP1
      // restarts are slow and variable because of "resending variable
      // amounts of messages to all other processes"). Recoveries may
      // overlap, so the server handle is tracked and killed with the rank
      // (rank_killed) — a server outliving its incarnation would replay
      // from a rolled-back log.
      std::erase_if(st.serve_procs,
                    [](const sim::ProcPtr& p) { return !p || !p->alive(); });
      st.serve_procs.push_back(
          rt_->engine().spawn("exchsrv" + std::to_string(rank.id()),
                                     serve_exchange(rank, std::move(msg))));
      co_return;
    }

    case mpi::CtrlKind::kExchangeReply: {
      const std::int64_t peer_r = msg.ctrl_data.at(0);
      const std::int64_t my_s = rank.sent_to(msg.src).bytes;
      st.skip_bytes[static_cast<std::size_t>(msg.src)] =
          std::max<std::int64_t>(0, peer_r - my_s);
      st.exchange_pending.erase(msg.src);
      // A reply that raced the peer's death still completes the exchange:
      // the replay data preceded it on the wire, and the peer's own restart
      // will re-run the pair's exchange from its side.
      st.exchange_deferred.erase(msg.src);
      wake(rank);
      co_return;
    }

    default:
      co_return;  // other protocols' traffic
  }
}

// ----------------------------------------------------------- waiting helpers

sim::Co<bool> GroupProtocol::wait_event(mpi::Rank& rank, std::uint64_t epoch,
                                        const std::function<bool()>& pred) {
  RankState& st = state(rank);
  for (;;) {
    if (st.aborted.count(epoch)) co_return false;
    if (pred()) co_return true;
    st.event->reset();
    co_await st.event->wait();
  }
}

sim::Co<bool> GroupProtocol::group_barrier(
    mpi::Rank& rank, const std::vector<mpi::RankId>& members,
    std::uint64_t epoch, int phase) {
  if (members.size() == 1) co_return true;
  RankState& st = state(rank);
  const std::uint64_t key = barrier_key(epoch, phase);
  if (members.front() == rank.id()) {
    const int needed = static_cast<int>(members.size()) - 1;
    const bool ok = co_await wait_event(rank, epoch, [&st, key, needed] {
      auto it = st.barrier_acks.find(key);
      return it != st.barrier_acks.end() && it->second >= needed;
    });
    st.barrier_acks.erase(key);
    if (!ok) co_return false;
    mpi::Message go;
    go.ctrl = mpi::CtrlKind::kBarrierGo;
    go.ctrl_data = {static_cast<std::int64_t>(epoch), phase};
    for (mpi::RankId m : members) {
      if (m != rank.id()) rt_->send_ctrl(rank.id(), m, go);
    }
    co_return true;
  }
  mpi::Message ack;
  ack.ctrl = mpi::CtrlKind::kBarrierAck;
  ack.ctrl_data = {static_cast<std::int64_t>(epoch), phase};
  rt_->send_ctrl(rank.id(), members.front(), ack);
  const bool ok = co_await wait_event(
      rank, epoch, [&st, key] { return st.barrier_go.count(key) > 0; });
  st.barrier_go.erase(key);
  co_return ok;
}

// ---------------------------------------------------------------- checkpoint

sim::Co<void> GroupProtocol::at_safepoint(mpi::Rank& rank) {
  RankState& st = state(rank);
  if (!st.commit_pending) co_return;
  if (st.commit_iteration != kAnyIteration &&
      rank.iteration() != st.commit_iteration) {
    GCR_CHECK_MSG(rank.iteration() < st.commit_iteration,
                  "safe point overshot the commit target");
    co_return;
  }
  st.commit_pending = false;
  if (st.aborted.count(st.commit_epoch)) co_return;
  co_await run_group_checkpoint(rank);
}

sim::Co<void> GroupProtocol::run_group_checkpoint(mpi::Rank& rank) {
  RankState& st = state(rank);
  const std::uint64_t epoch = st.commit_epoch;
  // By value: the round suspends, and a regroup elsewhere may replace the
  // GroupSet meanwhile (this group itself is never regrouped mid-round).
  const std::vector<mpi::RankId> members =
      groups_.members(groups_.group_of(rank.id()));
  sim::Engine& eng = rt_->engine();

  const sim::Time t_signal = st.signal_at;
  const sim::Time t_safepoint = eng.now();
  st.in_checkpoint = true;

  // ---- lock MPI: quiesce the library (signal handling + OS jitter) ----
  co_await sim::delay(eng, sim::from_seconds(kSignalHandlingS) +
                               rt_->cluster().draw_jitter(st.jitter_rng));
  const sim::Time t_locked = eng.now();

  // ---- coordination: sync logs, bookmarks, drain, barrier ----

  // The log sync is accounting only: the asynchronous logger flushes in the
  // background (disk bandwidth far exceeds the logging rate on the modeled
  // cluster), so the checkpoint charges no time for it.
  const std::int64_t flush = st.log.unflushed_bytes();
  st.log.mark_flushed();
  metrics_->flushed_bytes += flush;

  mpi::Message bookmark;
  bookmark.ctrl = mpi::CtrlKind::kBookmark;
  for (mpi::RankId m : members) {
    if (m == rank.id()) continue;
    bookmark.ctrl_data = {static_cast<std::int64_t>(epoch),
                          rank.sent_to(m).bytes};
    rt_->send_ctrl(rank.id(), m, bookmark);
  }
  // Seed the incremental drain counter with one scan; from here the
  // kBookmark and delivery hooks keep it exact, so each wake evaluates the
  // predicate in O(1) (the full rescan is quadratic across a round and made
  // NORM — one group of n — untenable at thousands of ranks).
  std::fill(st.bookmark_met.begin(), st.bookmark_met.end(), 0);
  st.bookmark_unmet = 0;
  st.bookmark_wait_active = true;
  for (mpi::RankId m : members) {
    if (m == rank.id()) continue;
    ++st.bookmark_unmet;
    note_bookmark_progress(st, rank, m);
  }
  bool ok = co_await wait_event(rank, epoch, [&] {
#ifndef NDEBUG
    bool full = true;
    for (mpi::RankId m : members) {
      if (m == rank.id()) continue;
      const std::int64_t mark = st.bookmarks[static_cast<std::size_t>(m)];
      if (mark == kNoBookmark ||
          rank.recvd_from(m).bytes < mark) {  // missing or in transit
        full = false;
        break;
      }
    }
    GCR_ASSERT(full == (st.bookmark_unmet == 0));
#endif
    return st.bookmark_unmet == 0;
  });
  st.bookmark_wait_active = false;
  std::fill(st.bookmark_met.begin(), st.bookmark_met.end(), 0);
  if (ok) ok = co_await group_barrier(rank, members, epoch, 0);
  const sim::Time t_coordinated = eng.now();

  if (ok) {
    // ---- checkpoint: record RR, snapshot, dump image ----
    const int n = rt_->nranks();
    for (int q = 0; q < n; ++q) {
      st.rr[static_cast<std::size_t>(q)] = rank.recvd_from(q).bytes;
      st.first_send[static_cast<std::size_t>(q)] = 1;
    }
    ckpt::StoredCheckpoint image;
    image.meta.rank = rank.id();
    image.meta.epoch = epoch;
    image.meta.bytes = image_bytes_(rank.id());
    image.meta.written_at = eng.now();
    image.runtime_state = rt_->snapshot_rank(rank);
    image.protocol_state = StateSnapshot{st.rr, st.first_send, st.log};
    // Staged, not yet visible: a failure during the write (or any member's
    // write) discards the stage, so restore never sees a torn image or a
    // group whose members restore from different epochs.
    registry_->stage(std::move(image));
    co_await checkpointer_->stage_image(rank.node(), rank.id(), epoch,
                                        image_bytes_(rank.id()));
    const sim::Time t_image = eng.now();

    // ---- finalize: wait for the whole group, commit, resume ----
    const bool committed = co_await group_barrier(rank, members, epoch, 1);
    if (committed && is_leader(rank)) {
      // The leader's barrier path has no suspension between the last ack
      // and this point: every member has written and staged, and the whole
      // group's images become visible at one simulated instant — a kill
      // either lands before (nothing committed) or after (all committed).
      registry_->commit_group(members, epoch);
      // Tier residency commits in lockstep; in kDrain mode this also
      // launches each member's background write-behind to the PFS.
      checkpointer_->commit_images(members);
      // A joint committed cut now covers every member pair, so transitional
      // post-merge logging inside this group can stop: any future restore
      // rolls the whole group back to this cut (or a later one) together.
      for (mpi::RankId m : members) {
        RankState& ms = state(m);
        if (ms.extra_log.empty()) continue;
        for (mpi::RankId q : members) ms.extra_log.erase(q);
      }
    } else if (!committed) {
      registry_->discard_staged(rank.id());
      checkpointer_->discard_staged(rank.id());
    }
    const sim::Time t_end = eng.now();

    CkptRecord rec;
    rec.rank = rank.id();
    rec.epoch = epoch;
    rec.signal_at = t_signal;
    rec.begin = t_safepoint;
    rec.end = t_end;
    // The signal->safe-point latency is NOT a pause (the application keeps
    // executing until the cut); per-process checkpoint time covers the pause
    // only, matching the paper's per-phase semantics (Lock MPI is the small
    // quiesce step).
    rec.phases.lock_mpi = sim::to_seconds(t_locked - t_safepoint);
    rec.phases.coordination = sim::to_seconds(t_coordinated - t_locked);
    rec.phases.checkpoint = sim::to_seconds(t_image - t_coordinated);
    rec.phases.finalize = sim::to_seconds(t_end - t_image);
    metrics_->ckpts.push_back(rec);
  }
  // Aborted rounds are counted where the leader's round closes without a
  // checkpoint (kAbort delivery / finish paths), not here.

  std::fill(st.bookmarks.begin(), st.bookmarks.end(), kNoBookmark);
  st.in_checkpoint = false;
  if (is_leader(rank)) st.round_open = false;
}

// ------------------------------------------------------------------ restart

void GroupProtocol::stage_restore(mpi::Rank& rank,
                                  const ckpt::StoredCheckpoint* image,
                                  std::uint64_t restore_token) {
  RankState& st = state(rank);
  st.restore_token = restore_token;
  const int n = rt_->nranks();
  st.log.clear();
  st.rr.assign(static_cast<std::size_t>(n), 0);
  st.first_send.assign(static_cast<std::size_t>(n), 0);
  st.skip_bytes.assign(static_cast<std::size_t>(n), 0);
  st.commit_pending = false;
  st.in_checkpoint = false;
  st.round_open = false;
  std::fill(st.bookmarks.begin(), st.bookmarks.end(), kNoBookmark);
  st.bookmark_wait_active = false;
  st.bookmark_unmet = 0;
  std::fill(st.bookmark_met.begin(), st.bookmark_met.end(), 0);
  st.barrier_acks.clear();
  st.barrier_go.clear();
  st.prepare_replies.clear();
  st.exchange_pending.clear();
  st.exchange_deferred.clear();
  st.serve_procs.clear();   // killed with the previous incarnation
  st.restore_proc.reset();  // ditto
  st.restoring = true;
  // Capture the restored R table NOW: it is a contiguous prefix of every
  // peer stream. Live traffic can slip in between restore and the exchange
  // request (a survivor may stamp the new incarnation before the exchange),
  // and the replay bound must not move past the restored prefix — the
  // runtime's duplicate suppression discards the overlap.
  st.exchange_r.assign(static_cast<std::size_t>(n), 0);
  st.restore_cut = image != nullptr ? image->meta.cut_seq : 0;
  if (image != nullptr) {
    st.from_image = true;
    st.restore_image_bytes = image->meta.bytes;
    const auto& snap =
        std::any_cast<const StateSnapshot&>(image->protocol_state);
    st.rr = snap.rr;
    st.first_send = snap.first_send;
    st.log = snap.log;
    for (std::size_t q = 0; q < snap.rr.size(); ++q) {
      st.exchange_r[q] = image->runtime_state.recvd[q].bytes;
    }
  } else {
    st.from_image = false;
    st.restore_image_bytes = 0;
  }
}

sim::Co<void> GroupProtocol::run_restore(mpi::Rank& rank) {
  RankState& st = state(rank);
  sim::Engine& eng = rt_->engine();
  const sim::Time t_begin = eng.now();
  if (st.from_image) {
    co_await checkpointer_->read_image(rank.node(), rank.id(),
                                       st.restore_image_bytes);
  }
  // Restarting nodes are otherwise idle, so only the small fixed relaunch
  // handling cost applies (no OS-contention jitter spikes here).
  co_await sim::delay(eng, sim::from_seconds(kSignalHandlingS));
  const sim::Time t_loaded = eng.now();

  // Volume exchange with every out-of-group process (Algorithm 1 restart).
  // Peers whose own group is down (recoveries can overlap) cannot answer;
  // waiting for them would deadlock queued recoveries against each other.
  // Their exchange is deferred: restart preparation completes against live
  // peers only, and the request is re-issued when the dead peer respawns
  // (rank_started), completing on the daemon path. Nothing is lost in the
  // meantime — the dead peer cannot send to us anyway, and our re-executed
  // sends toward it are logged for its eventual replay.
  mpi::Message req;
  req.ctrl = mpi::CtrlKind::kExchangeRequest;
  for (int q = 0; q < rt_->nranks(); ++q) {
    if (q == rank.id()) continue;
    if (groups_.same_group(rank.id(), q)) {
      // In-group peers are co-restoring (groups are killed whole). A peer
      // restoring from the SAME committed cut — or both from scratch — is
      // already consistent with us: no exchange, as always. After an
      // elastic merge the group may hold images from different pre-merge
      // cuts; such pairs exchange and replay exactly like out-of-group
      // peers, and the transitional logging window (extra_log) guarantees
      // their logs cover the gap (DESIGN.md §16).
      const RankState& qs = state(q);
      const bool same_cut =
          st.from_image == qs.from_image &&
          (!st.from_image || st.restore_cut == qs.restore_cut);
      if (same_cut) continue;
    }
    if (rt_->rank(q).alive()) {
      req.ctrl_data = {st.exchange_r[static_cast<std::size_t>(q)],
                       rank.sent_to(q).bytes};
      rt_->send_ctrl(rank.id(), q, req);
      st.exchange_pending.insert(q);
    } else {
      st.exchange_deferred.insert(q);
    }
  }
  const std::uint64_t repoch = kRestartEpochBase + st.restore_token;
  co_await wait_event(rank, repoch,
                      [&st] { return st.exchange_pending.empty(); });

  // Wait until all group members finish preparing the restart.
  const std::vector<mpi::RankId> members =
      groups_.members(groups_.group_of(rank.id()));
  co_await group_barrier(rank, members, repoch, 2);

  rank.resume_gate().fire();
  st.restoring = false;

  RestartRecord rec;
  rec.rank = rank.id();
  rec.begin = t_begin;
  rec.end = eng.now();
  rec.image_read_s = sim::to_seconds(t_loaded - t_begin);
  rec.exchange_s = sim::to_seconds(eng.now() - t_loaded);
  metrics_->restarts.push_back(rec);

  if (restore_done_ && !group_restarting(groups_.group_of(rank.id()))) {
    restore_done_(rank.id());
  }
}

sim::Co<void> GroupProtocol::serve_exchange(mpi::Rank& rank,
                                            mpi::Message msg) {
  const std::int64_t peer_r_from_me = msg.ctrl_data.at(0);
  co_await sim::delay(rt_->engine(), sim::from_seconds(kExchangeHandlingS));
  co_await replay_to(rank, msg.src, peer_r_from_me);
  mpi::Message reply;
  reply.ctrl = mpi::CtrlKind::kExchangeReply;
  reply.ctrl_data = {rank.recvd_from(msg.src).bytes};
  rt_->send_ctrl(rank.id(), msg.src, reply);
}

sim::Co<void> GroupProtocol::replay_to(mpi::Rank& rank, mpi::RankId peer,
                                       std::int64_t after) {
  RankState& st = state(rank);
  const auto entries = st.log.entries_after(peer, after);
  if (entries.empty()) co_return;
  ++metrics_->resend_ops;
  for (const mpi::Message& m : entries) {
    co_await sim::delay(rt_->engine(), sim::from_seconds(kReplayPerMsgS));
    ++metrics_->resend_messages;
    metrics_->resend_bytes += m.bytes;
    co_await rt_->replay_send(rank, m);
  }
}

// ------------------------------------------------------- elastic regrouping

void GroupProtocol::begin_transition(const group::GroupSet& pending) {
  GCR_CHECK(pending.nranks() == groups_.nranks());
  GCR_CHECK_MSG(!transition_, "a regroup transition is already open");
  transition_ = pending;
}

void GroupProtocol::end_transition() { transition_.reset(); }

bool GroupProtocol::quiescent_for_regroup(
    const std::vector<mpi::RankId>& ranks) {
  for (mpi::RankId r : ranks) {
    if (!rt_->rank(r).alive()) return false;
    const RankState& st = state(r);
    // round_open covers the leader's whole prepare/commit window — including
    // the stretch where members have replied but not yet accepted a commit
    // and so carry no flag of their own; commit_pending covers the
    // accept-to-safepoint window; in_checkpoint the coordination and image
    // write; restoring the restart preparation.
    if (st.round_open || st.commit_pending || st.in_checkpoint ||
        st.restoring) {
      return false;
    }
  }
  return true;
}

void GroupProtocol::install_groups(group::GroupSet next) {
  GCR_CHECK(next.nranks() == groups_.nranks());
  groups_ = std::move(next);
  transition_.reset();
}

void GroupProtocol::add_transitional_logging(
    const std::vector<mpi::RankId>& a, const std::vector<mpi::RankId>& b) {
  for (mpi::RankId x : a) {
    for (mpi::RankId y : b) {
      if (x == y) continue;
      state(x).extra_log.insert(y);
      state(y).extra_log.insert(x);
    }
  }
}

// ------------------------------------------------------------------- driver

void GroupProtocol::request_checkpoint(mpi::RankId leader) {
  if (leader_of(groups_.group_of(leader)) != leader) return;
  mpi::Message req;
  req.ctrl = mpi::CtrlKind::kCkptRequest;
  rt_->send_ctrl_from_driver(leader, req);
}

bool GroupProtocol::group_restarting(int group) const {
  for (mpi::RankId m : groups_.members(group)) {
    if (state(m).restoring) return true;
  }
  return false;
}

}  // namespace gcr::core
