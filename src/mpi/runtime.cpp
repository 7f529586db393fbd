#include "mpi/runtime.hpp"

#include <ostream>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace gcr::mpi {

namespace {

// Collective tags live far above the application tag space.
constexpr int kTagBarrier = 1 << 20;
constexpr int kTagBcast = (1 << 20) + 1;
constexpr int kTagReduce = (1 << 20) + 2;
constexpr int kTagGather = (1 << 20) + 3;
constexpr int kTagAlltoall = (1 << 20) + 4;

// Small on-wire payloads for synchronization-only messages.
constexpr std::int64_t kSyncBytes = 8;

// Per-message framing bytes added on the wire (headers, TCP/IP overhead).
constexpr std::int64_t kWireHeaderBytes = 64;

// Per-send stack/syscall CPU cost.
constexpr double kCpuSendOverheadS = 20e-6;
// Per-recv matching/copy CPU cost.
constexpr double kCpuRecvOverheadS = 15e-6;

// Receives match the NEXT message in the per-pair sequence, not the first
// tag match in arrival order: replayed (old-seq) messages may arrive after
// newer live traffic, and per-pair FIFO consumption is the protocol's
// correctness anchor. The tag is cross-checked once the in-sequence message
// is selected (a mismatch means the application violated the non-overtaking
// contract).
bool is_next_in_sequence(const Message& msg, RankId src,
                         std::uint64_t consumed) {
  return msg.src == src && msg.seq == consumed + 1;
}

void check_tag(const Message& msg, int tag) {
  GCR_CHECK_MSG(tag == kAnyTag || msg.tag == tag,
                "recv tag does not match the next in-sequence message; the "
                "application consumes out of per-pair send order");
}

}  // namespace

// ---------------------------------------------------------------- AppHandle

RankId AppHandle::id() const { return rank_->id(); }
int AppHandle::nranks() const { return rank_->nranks(); }
std::uint64_t AppHandle::start_iteration() const {
  return rank_->start_iteration();
}
sim::Co<void> AppHandle::send(RankId dst, int tag, std::int64_t bytes) {
  return rt_->send(*rank_, dst, tag, bytes);
}
sim::Co<Message> AppHandle::recv(RankId src, int tag) {
  return rt_->recv(*rank_, src, tag);
}
sim::Co<Message> AppHandle::sendrecv(RankId dst, int stag, std::int64_t sbytes,
                                     RankId src, int rtag) {
  return rt_->sendrecv(*rank_, dst, stag, sbytes, src, rtag);
}
sim::Delay AppHandle::compute(double seconds) {
  return rt_->compute(*rank_, seconds);
}
double AppHandle::now_s() const {
  return sim::to_seconds(rt_->engine().now());
}
sim::Co<void> AppHandle::safepoint(std::uint64_t iteration) {
  return rt_->safepoint(*rank_, iteration);
}
sim::Co<void> AppHandle::barrier() { return rt_->barrier(*rank_); }
sim::Co<void> AppHandle::bcast(RankId root, std::int64_t bytes) {
  return rt_->bcast(*rank_, root, bytes);
}
sim::Co<void> AppHandle::reduce(RankId root, std::int64_t bytes) {
  return rt_->reduce(*rank_, root, bytes);
}
sim::Co<void> AppHandle::allreduce(std::int64_t bytes) {
  return rt_->allreduce(*rank_, bytes);
}
sim::Co<void> AppHandle::gather(RankId root, std::int64_t bytes_per_rank) {
  return rt_->gather(*rank_, root, bytes_per_rank);
}
sim::Co<void> AppHandle::alltoall(std::int64_t bytes_per_pair) {
  return rt_->alltoall(*rank_, bytes_per_pair);
}

// ------------------------------------------------------------------ Runtime

Runtime::Runtime(sim::Cluster& cluster, int nranks) : cluster_(&cluster) {
  GCR_CHECK(nranks > 0);
  // One rank per node; the driver (mpirun) needs one extra node.
  GCR_CHECK_MSG(cluster.num_nodes() >= nranks + 1,
                "cluster must have nranks + 1 nodes (last is the driver)");
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    ranks_.push_back(
        std::make_unique<Rank>(cluster.engine(), r, /*node=*/r, nranks));
  }
}

void Runtime::start_app(AppBody body) {
  app_body_ = std::move(body);
  for (auto& rank : ranks_) {
    rank->resume_gate_.fire();  // fresh start: no restart preparation
    if (protocol_) protocol_->rank_started(*rank);
    spawn_app_coroutine(*rank);
  }
}

namespace {

sim::Co<void> app_wrapper(Runtime* rt, Rank* r) {
  co_await r->resume_gate().wait();
  co_await rt->run_app_body(*r);
  rt->note_app_finished(*r);
}

}  // namespace

sim::Co<void> Runtime::run_app_body(Rank& rank) {
  return app_body_(AppHandle(*this, rank));
}

void Runtime::note_app_finished(Rank& rank) {
  rank.finished_ = true;
  ++finished_ranks_;
  if (protocol_) protocol_->rank_finished(rank);
}

void Runtime::spawn_app_coroutine(Rank& rank) {
  rank.app_proc_ = engine().spawn("rank" + std::to_string(rank.id()),
                                         app_wrapper(this, &rank));
}

// ------------------------------------------------------------------- p2p

Message Runtime::stamp_outgoing(Rank& rank, RankId dst, int tag,
                                std::int64_t bytes) {
  GCR_CHECK(dst >= 0 && dst < nranks());
  GCR_CHECK(bytes >= 0);
  Message msg;
  msg.src = rank.id();
  msg.dst = dst;
  msg.tag = tag;
  msg.bytes = bytes;
  msg.src_inc = rank.incarnation_;
  msg.dst_inc = ranks_[static_cast<std::size_t>(dst)]->incarnation_;
  auto& sv = rank.sent_[static_cast<std::size_t>(dst)];
  sv.bytes += bytes;
  sv.count += 1;
  msg.seq = sv.count;
  msg.cum_bytes = sv.bytes;
  msg.checksum = message_checksum(msg.src, msg.dst, msg.seq);
  ++app_messages_sent_;
  app_bytes_sent_ += bytes;
  return msg;
}

sim::Network::Egress Runtime::emit(Rank& rank, const Message& msg,
                                   bool transmit_it) {
  for (Observer* obs : observers_) obs->on_send(rank, msg, transmit_it);
  return transmit_it ? transmit(msg) : sim::Network::Egress{};
}

sim::Network::Egress Runtime::transmit(const Message& msg) {
  const int src_node = msg.src == kExternalSource
                           ? driver_node()
                           : ranks_[static_cast<std::size_t>(msg.src)]->node();
  const int dst_node = ranks_[static_cast<std::size_t>(msg.dst)]->node();
  Message copy = msg;
  return cluster_->network().send(
      src_node, dst_node, msg.bytes + kWireHeaderBytes,
      [this, m = std::move(copy)]() mutable { deliver(std::move(m)); });
}

sim::Co<void> Runtime::send(Rank& rank, RankId dst, int tag,
                            std::int64_t bytes) {
  co_await compute(rank, kCpuSendOverheadS);
  Message msg = stamp_outgoing(rank, dst, tag, bytes);
  bool transmit_it = true;
  if (protocol_) transmit_it = co_await protocol_->before_send(rank, msg);
  co_await emit(rank, msg, transmit_it);
}

sim::Co<Message> Runtime::sendrecv(Rank& rank, RankId dst, int stag,
                                   std::int64_t sbytes, RankId src, int rtag) {
  co_await compute(rank, kCpuSendOverheadS);
  Message msg = stamp_outgoing(rank, dst, stag, sbytes);
  bool transmit_it = true;
  if (protocol_) transmit_it = co_await protocol_->before_send(rank, msg);
  sim::Network::Egress egress = emit(rank, msg, transmit_it);
  Message in = co_await recv(rank, src, rtag);
  co_await egress;
  co_return in;
}

struct Runtime::RecvAwaiter {
  sim::Engine* eng;
  Rank* rank;
  RankId src;
  int tag;
  Message msg{};
  sim::WaiterHandle waiter{};

  bool await_ready() {
    const std::uint64_t consumed =
        rank->consumed_[static_cast<std::size_t>(src)];
    auto& pending = rank->pending_;
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      if (is_next_in_sequence(*it, src, consumed)) {
        check_tag(*it, tag);
        msg = std::move(*it);
        pending.erase(it);
        return true;
      }
    }
    GCR_CHECK_MSG(!rank->waiting_.has_value(),
                  "only one outstanding blocking recv per rank");
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) {
    waiter = eng->suspend_current(h);
    rank->waiting_ = Rank::WaitingRecv{src, tag, waiter, &msg};
  }
  Message await_resume() {
    if (waiter) {
      // On a kill-unwind the matcher never ran; clear our registration.
      if (rank->waiting_ && rank->waiting_->waiter == waiter) {
        rank->waiting_.reset();
      }
      eng->finish_wait(waiter);
    }
    return std::move(msg);
  }
};

Runtime::RecvAwaiter Runtime::wait_match(Rank& rank, RankId src, int tag) {
  return RecvAwaiter{&engine(), &rank, src, tag};
}

sim::Co<Message> Runtime::recv(Rank& rank, RankId src, int tag) {
  GCR_CHECK(src >= 0 && src < nranks());
  Message msg = co_await wait_match(rank, src, tag);
  co_await compute(rank, kCpuRecvOverheadS);
  verify_consume(rank, msg);
  for (Observer* obs : observers_) obs->on_consume(rank, msg);
  co_return msg;
}

void Runtime::verify_consume(Rank& rank, const Message& msg) {
  auto& consumed = rank.consumed_[static_cast<std::size_t>(msg.src)];
  ++consumed;
  GCR_CHECK_MSG(msg.seq == consumed,
                "per-pair delivery order violated (lost/dup/reordered)");
  GCR_CHECK_MSG(msg.checksum == message_checksum(msg.src, msg.dst, msg.seq),
                "message checksum mismatch after replay");
}

void Runtime::deliver(Message msg) {
  Rank& dst = *ranks_[static_cast<std::size_t>(msg.dst)];
  // Stale incarnation or dead destination: the wire data is lost (connection
  // reset); sender-based logs cover re-delivery after restart.
  if (!dst.alive_ || msg.dst_inc != dst.incarnation_) return;
  if (msg.src != kExternalSource &&
      msg.src_inc != ranks_[static_cast<std::size_t>(msg.src)]->incarnation_) {
    return;
  }
  if (msg.is_ctrl()) {
    dst.ctrl_in_.push(std::move(msg));
    return;
  }
  // Exactly-once delivery across restarts: a live message that raced a
  // restart's volume exchange is also covered by the sender-log replay;
  // keep whichever copy arrives first, drop the other (no R update).
  if (is_duplicate(dst, msg)) return;
  auto& rv = dst.recvd_[static_cast<std::size_t>(msg.src)];
  rv.bytes += msg.bytes;
  rv.count += 1;
  for (Observer* obs : observers_) obs->on_deliver(dst, msg);
  if (protocol_) protocol_->on_deliver(dst, msg);
  match_or_buffer(dst, std::move(msg));
}

bool Runtime::is_duplicate(const Rank& rank, const Message& msg) const {
  if (msg.seq <= rank.consumed_[static_cast<std::size_t>(msg.src)]) {
    return true;
  }
  for (const Message& p : rank.pending_) {
    if (p.src == msg.src && p.seq == msg.seq) return true;
  }
  return false;
}

void Runtime::match_or_buffer(Rank& rank, Message msg) {
  sim::Engine& eng = engine();
  if (rank.waiting_ && eng.waiter_live(rank.waiting_->waiter) &&
      is_next_in_sequence(
          msg, rank.waiting_->src,
          rank.consumed_[static_cast<std::size_t>(rank.waiting_->src)])) {
    check_tag(msg, rank.waiting_->tag);
    auto waiting = *rank.waiting_;
    rank.waiting_.reset();
    *waiting.slot = std::move(msg);
    const bool claimed = eng.fire(waiting.waiter);
    GCR_CHECK(claimed);
    return;
  }
  rank.pending_.push_back(std::move(msg));
}

sim::Delay Runtime::compute(Rank& rank, double seconds) {
  return sim::delay(rank.engine(), sim::from_seconds(seconds));
}

sim::Co<void> Runtime::safepoint(Rank& rank, std::uint64_t iteration) {
  rank.iteration_ = iteration;
  if (protocol_) co_await protocol_->at_safepoint(rank);
}

// -------------------------------------------------------------- collectives

sim::Co<void> Runtime::barrier(Rank& rank) {
  // Dissemination barrier: log2(p) rounds of simultaneous exchanges.
  const int p = nranks();
  for (int mask = 1; mask < p; mask <<= 1) {
    const RankId to = (rank.id() + mask) % p;
    const RankId from = (rank.id() - mask % p + p) % p;
    (void)co_await sendrecv(rank, to, kTagBarrier, kSyncBytes, from,
                            kTagBarrier);
  }
}

sim::Co<void> Runtime::bcast(Rank& rank, RankId root, std::int64_t bytes) {
  // MPICH-style binomial broadcast.
  const int p = nranks();
  const int relative = (rank.id() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      RankId src = rank.id() - mask;
      if (src < 0) src += p;
      (void)co_await recv(rank, src, kTagBcast);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      RankId dst = rank.id() + mask;
      if (dst >= p) dst -= p;
      co_await send(rank, dst, kTagBcast, bytes);
    }
    mask >>= 1;
  }
}

sim::Co<void> Runtime::reduce(Rank& rank, RankId root, std::int64_t bytes) {
  // Binomial reduction tree (commutative combine; payload size constant).
  const int p = nranks();
  const int relative = (rank.id() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if ((relative & mask) == 0) {
      const int src_rel = relative | mask;
      if (src_rel < p) {
        (void)co_await recv(rank, (src_rel + root) % p, kTagReduce);
      }
    } else {
      co_await send(rank, ((relative & ~mask) + root) % p, kTagReduce, bytes);
      break;
    }
    mask <<= 1;
  }
}

sim::Co<void> Runtime::allreduce(Rank& rank, std::int64_t bytes) {
  co_await reduce(rank, 0, bytes);
  co_await bcast(rank, 0, bytes);
}

sim::Co<void> Runtime::gather(Rank& rank, RankId root,
                              std::int64_t bytes_per_rank) {
  // Binomial gather: forwarded payload grows with the subtree.
  const int p = nranks();
  const int relative = (rank.id() - root + p) % p;
  std::int64_t accumulated = bytes_per_rank;
  int mask = 1;
  while (mask < p) {
    if ((relative & mask) == 0) {
      const int src_rel = relative | mask;
      if (src_rel < p) {
        Message m = co_await recv(rank, (src_rel + root) % p, kTagGather);
        accumulated += m.bytes;
      }
    } else {
      co_await send(rank, ((relative & ~mask) + root) % p, kTagGather,
                    accumulated);
      break;
    }
    mask <<= 1;
  }
}

sim::Co<void> Runtime::alltoall(Rank& rank, std::int64_t bytes_per_pair) {
  // Ring-pairwise exchange; works for any process count.
  const int p = nranks();
  for (int step = 1; step < p; ++step) {
    const RankId to = (rank.id() + step) % p;
    const RankId from = (rank.id() - step + p) % p;
    (void)co_await sendrecv(rank, to, kTagAlltoall, bytes_per_pair, from,
                            kTagAlltoall);
  }
}

// ------------------------------------------------------------ control plane

void Runtime::send_ctrl(RankId src_rank, RankId dst, Message msg) {
  GCR_CHECK(msg.is_ctrl());
  msg.src = src_rank;
  msg.dst = dst;
  msg.src_inc = src_rank == kExternalSource ? 0 : rank(src_rank).incarnation_;
  msg.dst_inc = rank(dst).incarnation_;
  if (msg.bytes == 0) {
    msg.bytes =
        kSyncBytes + static_cast<std::int64_t>(msg.ctrl_data.size()) * 8;
  }
  transmit(msg);
}

void Runtime::send_ctrl_from_driver(RankId dst, Message msg) {
  send_ctrl(kExternalSource, dst, std::move(msg));
}

sim::Network::Egress Runtime::replay_send(Rank& sender,
                                          const Message& original) {
  Message msg = original;
  msg.is_replay = true;
  msg.piggyback_rr = -1;
  msg.src_inc = sender.incarnation_;
  msg.dst_inc = ranks_[static_cast<std::size_t>(msg.dst)]->incarnation_;
  return transmit(msg);
}

// --------------------------------------------------------------- lifecycle

RankSnapshot Runtime::snapshot_rank(const Rank& rank) const {
  RankSnapshot snap;
  snap.iteration = rank.iteration_;
  snap.sent = rank.sent_;
  snap.recvd = rank.recvd_;
  snap.consumed = rank.consumed_;
  snap.pending = rank.pending_;
  return snap;
}

void Runtime::kill_rank(Rank& rank) {
  GCR_CHECK(rank.alive_);
  rank.alive_ = false;
  // Drop the node's queued/in-flight fabric transfers before unwinding its
  // coroutines, so survivors reclaim the dead sender's link shares at the
  // kill instant. Flat no-op.
  cluster_->network().abort_transfers_from(rank.node());
  if (rank.app_proc_ && rank.app_proc_->alive()) {
    engine().kill(*rank.app_proc_);
  }
  if (rank.daemon_proc_ && rank.daemon_proc_->alive()) {
    engine().kill(*rank.daemon_proc_);
  }
  if (protocol_) protocol_->rank_killed(rank);
}

void Runtime::begin_restart(Rank& rank) {
  GCR_CHECK_MSG(!rank.alive_, "kill_rank must precede begin_restart");
  ++rank.incarnation_;
  rank.pending_.clear();
  rank.waiting_.reset();
  rank.ctrl_in_.clear();
  rank.resume_gate_.reset();
  for (auto& v : rank.sent_) v = PeerVolume{};
  for (auto& v : rank.recvd_) v = PeerVolume{};
  for (auto& c : rank.consumed_) c = 0;
  rank.iteration_ = 0;
  rank.start_iteration_ = 0;
  if (rank.finished_) {
    rank.finished_ = false;
    --finished_ranks_;
  }
}

void Runtime::restore_rank(Rank& rank, const RankSnapshot& snap) {
  GCR_CHECK(!rank.alive_);
  rank.iteration_ = snap.iteration;
  rank.start_iteration_ = snap.iteration;
  rank.sent_ = snap.sent;
  rank.recvd_ = snap.recvd;
  rank.consumed_ = snap.consumed;
  rank.pending_ = snap.pending;
}

void Runtime::respawn_rank(Rank& rank) {
  GCR_CHECK(!rank.alive_);
  rank.alive_ = true;
  if (protocol_) protocol_->rank_started(rank);
  spawn_app_coroutine(rank);
}

void Runtime::set_daemon_proc(Rank& rank, sim::ProcPtr proc) {
  rank.daemon_proc_ = std::move(proc);
}

void Runtime::debug_dump(std::ostream& os) const {
  for (const auto& rank : ranks_) {
    os << "rank " << rank->id() << ": alive=" << rank->alive_
       << " finished=" << rank->finished_ << " inc=" << rank->incarnation_
       << " iter=" << rank->iteration_ << " pending=" << rank->pending_.size();
    if (rank->waiting_) {
      os << " BLOCKED-RECV(src=" << rank->waiting_->src
         << " tag=" << rank->waiting_->tag << " consumed="
         << rank->consumed_[static_cast<std::size_t>(rank->waiting_->src)]
         << ")";
    }
    os << " gate_open=" << rank->resume_gate_.fired() << '\n';
    if (!rank->pending_.empty()) {
      os << "  pending:";
      for (const Message& m : rank->pending_) {
        os << " (src=" << m.src << " seq=" << m.seq << " tag=" << m.tag
           << (m.is_replay ? " R" : "") << ")";
      }
      os << '\n';
    }
  }
}

}  // namespace gcr::mpi
