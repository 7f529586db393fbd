#include "core/vcl_protocol.hpp"

#include "util/assert.hpp"

namespace gcr::core {
namespace {

/// Signal handling before markers.
constexpr double kRequestHandlingS = 2e-3;
/// In-channel message recording rate.
constexpr double kChannelRecordBps = 200e6;

}  // namespace

VclProtocol::VclProtocol(mpi::Runtime& rt, ckpt::Checkpointer& checkpointer,
                         ImageSizeFn image_bytes, Metrics& metrics)
    : rt_(&rt), checkpointer_(&checkpointer),
      image_bytes_(std::move(image_bytes)), metrics_(&metrics) {
  const int n = rt.nranks();
  states_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto st = std::make_unique<RankState>();
    st->gate = std::make_unique<sim::Trigger>(rt.engine());
    st->event = std::make_unique<sim::Trigger>(rt.engine());
    st->jitter_rng = rt.cluster().make_rng(0x7C00 + static_cast<std::uint64_t>(r));
    states_.push_back(std::move(st));
  }
  latest_uploaded_.assign(static_cast<std::size_t>(n), 0);
  commit_event_ = std::make_unique<sim::Trigger>(rt.engine());
}

sim::Co<bool> VclProtocol::before_send(mpi::Rank& rank, mpi::Message& msg) {
  (void)msg;
  RankState& st = state(rank);
  while (st.send_blocked) {
    st.gate->reset();
    co_await st.gate->wait();
  }
  co_return true;
}

void VclProtocol::on_deliver(mpi::Rank& rank, const mpi::Message& msg) {
  if (msg.is_ctrl()) {
    handle_ctrl(rank, msg);
    return;
  }
  RankState& st = state(rank);
  // Channel recording: messages arriving during the snapshot from peers
  // whose marker for this round has not yet been seen belong to the
  // channel state.
  if (st.in_checkpoint) {
    auto it = st.marker_round.find(msg.src);
    if (it == st.marker_round.end() || it->second < st.epoch) {
      st.recorded_bytes += msg.bytes;
    }
  }
}

sim::Co<void> VclProtocol::at_safepoint(mpi::Rank& rank) {
  (void)rank;
  co_return;  // VCL interrupts anywhere; no safe-point work
}

void VclProtocol::rank_started(mpi::Rank& rank) {
  // VCL restart is unsupported; ranks always start fresh.
  GCR_CHECK(!rank.resume_gate().fired() || rank.incarnation() == 0);
}

void VclProtocol::handle_ctrl(mpi::Rank& rank, const mpi::Message& msg) {
  if (msg.ctrl != mpi::CtrlKind::kVclRequest &&
      msg.ctrl != mpi::CtrlKind::kVclMarker) {
    return;  // other protocols' traffic
  }
  RankState& st = state(rank);
  const auto round = static_cast<std::uint64_t>(msg.ctrl_data.at(0));
  if (msg.ctrl == mpi::CtrlKind::kVclMarker) {
    auto& latest = st.marker_round[msg.src];
    if (round > latest) latest = round;
    st.event->fire();
  }
  // Chandy-Lamport initiation rule: a request OR the first marker of a
  // newer round triggers the local snapshot. A round arriving while a
  // snapshot is still in progress (interval shorter than the upload wave)
  // is deferred and executed right after — never concurrently.
  if (round <= st.epoch) return;
  if (st.in_checkpoint) {
    if (round > st.pending_round) st.pending_round = round;
  } else {
    st.epoch = round;
    rt_->engine().spawn(run_checkpoint(rank));
  }
}

sim::Co<void> VclProtocol::run_checkpoint(mpi::Rank& rank) {
  RankState& st = state(rank);
  sim::Engine& eng = rt_->engine();
  const sim::Time t_signal = eng.now();
  st.in_checkpoint = true;
  st.send_blocked = true;

  co_await sim::delay(eng, sim::from_seconds(kRequestHandlingS) +
                               rt_->cluster().draw_jitter(st.jitter_rng));
  const sim::Time t_begin = eng.now();

  // Flush markers on every channel.
  mpi::Message marker;
  marker.ctrl = mpi::CtrlKind::kVclMarker;
  marker.ctrl_data = {static_cast<std::int64_t>(st.epoch)};
  for (int q = 0; q < rt_->nranks(); ++q) {
    if (q == rank.id()) continue;
    rt_->send_ctrl(rank.id(), q, marker);
  }

  // Upload the image (plus recorded channel state) to the remote server.
  // Receives and computation continue (the protocol is "non-blocking"),
  // but sends stay forbidden until the round completes — the paper's §2.2
  // observation is precisely that this window spans nearly the whole
  // checkpoint at scale, turning non-blocking into blocking (Figure 2b).
  const sim::Time t_upload_begin = eng.now();
  co_await checkpointer_->stage_image(
      rank.node(), rank.id(), st.epoch,
      image_bytes_(rank.id()) + st.recorded_bytes);
  // VCL's commit point needs no group agreement (global rounds): the
  // upload is the restore source the moment it is durable.
  checkpointer_->commit_image(rank.id());
  const double upload_s = sim::to_seconds(eng.now() - t_upload_begin);

  // Wait for a marker of this round (or any later one — the peer's later
  // snapshot implies it passed this cut) from every peer.
  const int needed = rt_->nranks() - 1;
  auto markers_seen = [this, &st, &rank] {
    int count = 0;
    for (int q = 0; q < rt_->nranks(); ++q) {
      if (q == rank.id()) continue;
      auto it = st.marker_round.find(q);
      if (it != st.marker_round.end() && it->second >= st.epoch) ++count;
    }
    return count;
  };
  while (markers_seen() < needed) {
    st.event->reset();
    co_await st.event->wait();
  }

  // Record channel-recording cost.
  co_await sim::delay(
      eng, sim::from_seconds(static_cast<double>(st.recorded_bytes) /
                             kChannelRecordBps));

  // Global commit: the snapshot is only usable once EVERY rank's piece is
  // on the servers; sends stay blocked until then (paper Figure 2's windows
  // span the whole round).
  latest_uploaded_[static_cast<std::size_t>(rank.id())] = st.epoch;
  commit_event_->fire();
  auto all_uploaded = [this, &st] {
    for (std::uint64_t r : latest_uploaded_) {
      if (r < st.epoch) return false;
    }
    return true;
  };
  while (!all_uploaded()) {
    commit_event_->reset();
    co_await commit_event_->wait();
  }
  st.send_blocked = false;
  st.gate->fire();
  const sim::Time t_end = eng.now();

  CkptRecord rec;
  rec.rank = rank.id();
  rec.epoch = st.epoch;
  rec.signal_at = t_signal;
  rec.begin = t_begin;
  rec.end = t_end;
  rec.phases.lock_mpi = sim::to_seconds(t_begin - t_signal);
  rec.phases.checkpoint = upload_s;
  rec.phases.coordination =
      sim::to_seconds(t_end - t_begin) - upload_s;
  rec.phases.finalize = 0;
  metrics_->ckpts.push_back(rec);

  st.recorded_bytes = 0;
  st.in_checkpoint = false;

  // A round that arrived mid-snapshot runs now.
  if (st.pending_round > st.epoch && !rt_->job_finished()) {
    st.epoch = st.pending_round;
    rt_->engine().spawn(run_checkpoint(rank));
  }
}

void VclProtocol::request_round() {
  ++round_;
  mpi::Message req;
  req.ctrl = mpi::CtrlKind::kVclRequest;
  req.ctrl_data = {static_cast<std::int64_t>(round_)};
  for (int q = 0; q < rt_->nranks(); ++q) {
    rt_->send_ctrl_from_driver(q, req);
  }
}

}  // namespace gcr::core
