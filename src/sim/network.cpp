#include "sim/network.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace gcr::sim {

Network::Network(Engine& engine, int num_nodes, const NetParams& params)
    : engine_(&engine), params_(params), num_nodes_(num_nodes),
      topo_(make_topology(params.topology, num_nodes)),
      egress_free_(static_cast<std::size_t>(num_nodes), 0) {
  if (routed()) {
    const auto nlinks = static_cast<std::size_t>(topo_->num_links());
    link_head_.assign(nlinks, kNil);
    link_active_.assign(nlinks, 0);
    nodes_.resize(static_cast<std::size_t>(num_nodes));
    recip_ = {0.0, 1.0};  // recip_[a] = 1/a; grown as link occupancy grows
  }
}

bool Network::Egress::await_ready() const noexcept {
  if (net_ == nullptr) return true;
  if (ticket_ == 0) return instant_ <= net_->engine_->now();
  return net_->ticket_transfer(ticket_) == nullptr;
}

void Network::Egress::await_suspend(std::coroutine_handle<> h) {
  Engine& engine = *net_->engine_;
  waiter_ = engine.suspend_current(h);
  if (ticket_ == 0) {
    engine.fire_at(instant_, waiter_);
    return;
  }
  // complete() fires the handle; a killed waiter's handle is stale by then
  // (the engine bumped its generation), so firing it is a no-op.
  Transfer* t = net_->ticket_transfer(ticket_);
  GCR_CHECK_MSG(!t->egress, "one waiter per routed egress");
  t->egress = waiter_;
}

Network::Egress Network::send(int src_node, int dst_node, std::int64_t bytes,
                              SmallFn&& deliver) {
  GCR_CHECK(src_node >= 0 && src_node < num_nodes());
  GCR_CHECK(dst_node >= 0 && dst_node < num_nodes());
  GCR_CHECK(bytes >= 0);
  ++total_messages_;
  total_bytes_ += bytes;

  const Time now = engine_->now();
  if (src_node == dst_node) {
    // Same-node copy bypasses NIC and fabric alike.
    const Time arrival =
        now + from_seconds(kLoopbackLatencyS +
                           static_cast<double>(bytes) / kLoopbackBps);
    engine_->call_at(arrival, std::move(deliver));
    return Egress(this, arrival, 0);
  }
  if (!routed()) {
    return send_flat(src_node, bytes, std::move(deliver), now);
  }
  return send_routed(src_node, dst_node, bytes, std::move(deliver), now);
}

Network::Egress Network::send_flat(int src_node, std::int64_t bytes,
                                   SmallFn&& deliver, Time now) {
  const Time occupy = from_seconds(
      kPerMessageS + static_cast<double>(bytes) / params_.bandwidth_Bps);
  Time& nic_free = egress_free_[static_cast<std::size_t>(src_node)];
  const Time depart = std::max(now, nic_free);
  const Time egress_done = depart + occupy;
  nic_free = egress_done;
  engine_->call_at(egress_done + from_seconds(params_.latency_s),
                   std::move(deliver));
  return Egress(this, egress_done, 0);
}

Network::Egress Network::send_routed(int src_node, int dst_node,
                                     std::int64_t bytes, SmallFn&& deliver,
                                     Time now) {
  fabric_offered_ += bytes;
  const std::uint32_t idx = alloc_transfer();
  Transfer& t = pool_[idx];
  t.src = src_node;
  t.dst = dst_node;
  t.bytes = bytes;
  t.remaining = static_cast<double>(bytes);
  t.deliver = std::move(deliver);
  t.next_queued = kNil;

  NodeState& ns = nodes_[static_cast<std::size_t>(src_node)];
  if (ns.admitted < kNicConcurrency) {
    admit(idx, now);
    arm_timer();
  } else {
    t.state = XferState::kQueued;
    ++queued_count_;
    if (ns.q_tail == kNil) {
      ns.q_head = ns.q_tail = idx;
    } else {
      pool_[ns.q_tail].next_queued = idx;
      ns.q_tail = idx;
    }
  }

  return Egress(this, 0, make_ticket(idx));
}

Network::Transfer* Network::ticket_transfer(std::uint64_t ticket) {
  const std::uint32_t slot = static_cast<std::uint32_t>(ticket >> 32);
  const std::uint32_t epoch = static_cast<std::uint32_t>(ticket);
  if (slot == 0 || slot - 1 >= pool_.size()) return nullptr;
  Transfer& t = pool_[slot - 1];
  if (t.epoch != epoch || t.state == XferState::kFree) return nullptr;
  return &t;
}

std::uint32_t Network::alloc_transfer() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Network::free_transfer(std::uint32_t idx) {
  Transfer& t = pool_[idx];
  t.state = XferState::kFree;
  t.deliver = SmallFn();
  t.egress = WaiterHandle{};
  ++t.epoch;  // stale tickets stop resolving
  t.next_queued = kNil;
  free_.push_back(idx);
}

double Network::compute_rate(const Transfer& t) const {
  // share() everywhere (one multiply by a tabulated reciprocal, never a
  // divide): rates are compared with exact == against link shares, so every
  // producer must use the identical expression.
  double rate = share(static_cast<std::size_t>(t.route.links[0]));
  for (int h = 1; h < t.route.nhops; ++h) {
    const auto l =
        static_cast<std::size_t>(t.route.links[static_cast<std::size_t>(h)]);
    rate = std::min(rate, share(l));
  }
  return rate;
}

void Network::settle(Transfer& t, Time now) {
  if (now > t.last_settle && t.remaining > 0) {
    t.remaining -= to_seconds(now - t.last_settle) * t.rate;
    if (t.remaining < 0) t.remaining = 0;
  }
  t.last_settle = now;
}

void Network::push_estimate(std::uint32_t idx, Time now) {
  Transfer& t = pool_[idx];
  const Time dt = t.remaining <= kDoneEpsBytes
                      ? Time{1}
                      : std::max<Time>(1, from_seconds(t.remaining / t.rate));
  ++t.est_gen;
  t.est_time = now + dt;
  heap_.push_back(HeapEntry{now + dt, heap_seq_++, idx, t.est_gen});
  std::push_heap(heap_.begin(), heap_.end(), HeapCmp{});
  if (heap_.size() > 1024 &&
      heap_.size() > 8 * static_cast<std::size_t>(active_count_)) {
    compact_heap();
  }
}

void Network::compact_heap() {
  // At most one entry per transfer is live (latest generation); everything
  // else is invalidation garbage. Rebuild to bound the heap by the active
  // set, not by the resettle rate.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Transfer& t = pool_[heap_[i].xfer];
    if (t.state == XferState::kActive && heap_[i].gen == t.est_gen) {
      heap_[keep++] = heap_[i];
    }
  }
  heap_.resize(keep);
  std::make_heap(heap_.begin(), heap_.end(), HeapCmp{});
}

void Network::link_insert(std::int32_t link, std::uint32_t idx, int hop) {
  constexpr int kMax = Route::kMaxHops;
  Transfer& t = pool_[idx];
  const std::uint32_t handle = idx * kMax + static_cast<std::uint32_t>(hop);
  std::uint32_t& head = link_head_[static_cast<std::size_t>(link)];
  t.lnext[static_cast<std::size_t>(hop)] = head;
  t.lprev[static_cast<std::size_t>(hop)] = kNil;
  if (head != kNil) {
    pool_[head / kMax].lprev[head % kMax] = handle;
  }
  head = handle;
  const std::int32_t active = ++link_active_[static_cast<std::size_t>(link)];
  if (static_cast<std::size_t>(active) >= recip_.size()) {
    recip_.push_back(1.0 / static_cast<double>(recip_.size()));
  }
}

void Network::link_remove(std::int32_t link, std::uint32_t idx, int hop) {
  constexpr int kMax = Route::kMaxHops;
  Transfer& t = pool_[idx];
  const auto h = static_cast<std::size_t>(hop);
  const std::uint32_t next = t.lnext[h];
  const std::uint32_t prev = t.lprev[h];
  if (prev != kNil) {
    pool_[prev / kMax].lnext[prev % kMax] = next;
  } else {
    link_head_[static_cast<std::size_t>(link)] = next;
  }
  if (next != kNil) pool_[next / kMax].lprev[next % kMax] = prev;
  --link_active_[static_cast<std::size_t>(link)];
  GCR_ASSERT(link_active_[static_cast<std::size_t>(link)] >= 0);
}

void Network::maybe_push(std::uint32_t idx, Time now) {
  Transfer& t = pool_[idx];
  // Entry already due (or overdue): nothing can beat it, and it will
  // re-estimate at fire time anyway. Skips the division on the hot path.
  if (t.est_time <= now + 1) return;
  const Time dt = t.remaining <= kDoneEpsBytes
                      ? Time{1}
                      : std::max<Time>(1, from_seconds(t.remaining / t.rate));
  if (now + dt < t.est_time) push_estimate(idx, now);
}

void Network::resettle_members(std::int32_t link, Time now, std::uint32_t skip,
                               bool inserted) {
  constexpr int kMax = Route::kMaxHops;
  const auto l = static_cast<std::size_t>(link);
  const double new_share = share(l);
  // A member's rate always equaled this link's old share when this link was
  // (one of) its bottleneck(s) — both sides are the same
  // bandwidth * recip[active] product, so the comparison is exact, not a
  // tolerance test.
  double old_share = 0;
  if (!inserted) {
    const auto old_active = static_cast<std::size_t>(link_active_[l] + 1);
    // complete() may re-admit a queued transfer onto this link before its
    // final removal pass runs, restoring the occupancy — old_active then
    // names an occupancy the link never ran at, recip_ has no entry for it,
    // and no member's rate can equal a share that never existed: the pass
    // would match nothing, so skip it.
    if (old_active >= recip_.size()) return;
    old_share = params_.bandwidth_Bps * recip_[old_active];
  }
  for (std::uint32_t m = link_head_[l]; m != kNil;) {
    const std::uint32_t idx = m / kMax;
    Transfer& u = pool_[idx];
    m = u.lnext[m % kMax];
    if (idx == skip) continue;
    if (inserted) {
      // The share only dropped: the new rate is min(u.rate, new_share), so
      // members bottlenecked elsewhere at or below it are untouched and the
      // rest clamp straight down — no bottleneck search. The slower rate
      // makes the live estimate fire early, which on_timer absorbs.
      if (u.rate <= new_share) continue;
      settle(u, now);
      u.rate = new_share;
    } else {
      // The share only rose: members not bottlenecked here (rate strictly
      // below the old share) cannot be affected. The rest re-derive their
      // bottleneck, and a faster rate must beat the live estimate into the
      // heap or the transfer would be delivered late.
      if (u.rate != old_share) continue;
      settle(u, now);
      const double rate = compute_rate(u);
      if (rate != u.rate) {
        u.rate = rate;
        maybe_push(idx, now);
      }
    }
  }
}

void Network::admit(std::uint32_t idx, Time now) {
  Transfer& t = pool_[idx];
  t.state = XferState::kActive;
  ++active_count_;
  ++nodes_[static_cast<std::size_t>(t.src)].admitted;
  // Routes resolve at admission (not enqueue) so adaptive policies see the
  // load that actually exists when the transfer enters the fabric.
  topo_->resolve(t.src, t.dst, link_active_, t.route);
  GCR_ASSERT(t.route.nhops >= 1);
  for (int h = 0; h < t.route.nhops; ++h) {
    link_insert(t.route.links[static_cast<std::size_t>(h)], idx, h);
  }
  t.last_settle = now;
  t.rate = compute_rate(t);
  // A zero-byte payload gets a one-tick estimate (push_estimate's floor):
  // completion always flows through the timer, never inline, so a queued
  // chain of empty messages can't recurse complete -> admit -> complete.
  push_estimate(idx, now);
  for (int h = 0; h < t.route.nhops; ++h) {
    resettle_members(t.route.links[static_cast<std::size_t>(h)], now, idx,
                     /*inserted=*/true);
  }
}

void Network::complete(std::uint32_t idx, Time now) {
  Transfer& t = pool_[idx];
  const Route route = t.route;
  const std::int32_t src = t.src;
  for (int h = 0; h < route.nhops; ++h) {
    link_remove(route.links[static_cast<std::size_t>(h)], idx, h);
  }
  --active_count_;
  fabric_delivered_ += t.bytes;

  // The per-message cost plus every hop of the route, after the last byte.
  const Time tail = from_seconds(
      kPerMessageS + static_cast<double>(route.nhops) * kHopLatencyS);
  engine_->call_at(now + tail, std::move(t.deliver));
  // The sender's buffer is reusable now: wake its egress waiter, if any.
  if (t.egress) engine_->fire(t.egress);
  free_transfer(idx);

  NodeState& ns = nodes_[static_cast<std::size_t>(src)];
  --ns.admitted;
  if (ns.q_head != kNil && ns.admitted < kNicConcurrency) {
    const std::uint32_t next = ns.q_head;
    ns.q_head = pool_[next].next_queued;
    if (ns.q_head == kNil) ns.q_tail = kNil;
    pool_[next].next_queued = kNil;
    --queued_count_;
    admit(next, now);
  }
  for (int h = 0; h < route.nhops; ++h) {
    resettle_members(route.links[static_cast<std::size_t>(h)], now, kNil,
                     /*inserted=*/false);
  }
}

void Network::arm_timer() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Transfer& t = pool_[top.xfer];
    if (t.state == XferState::kActive && top.gen == t.est_gen) break;
    std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
    heap_.pop_back();
  }
  if (heap_.empty()) return;
  const Time at = heap_.front().t;
  if (timer_armed_ && timer_at_ <= at) return;
  ++timer_gen_;
  timer_armed_ = true;
  timer_at_ = at;
  const std::uint64_t gen = timer_gen_;
  engine_->call_at(at, [this, gen] {
    if (gen != timer_gen_) return;
    timer_armed_ = false;
    on_timer();
  });
}

void Network::on_timer() {
  const Time now = engine_->now();
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    Transfer& t = pool_[top.xfer];
    if (t.state != XferState::kActive || top.gen != t.est_gen) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
      heap_.pop_back();
      continue;
    }
    if (top.t > now) break;
    std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
    heap_.pop_back();
    settle(t, now);
    if (t.remaining <= kDoneEpsBytes) {
      complete(top.xfer, now);
    } else {
      // Tick rounding left a sliver; re-estimate (converges within a tick).
      push_estimate(top.xfer, now);
    }
  }
  arm_timer();
}

void Network::abort_transfers_from(int src_node) {
  GCR_CHECK(src_node >= 0 && src_node < num_nodes());
  if (!routed()) return;
  NodeState& ns = nodes_[static_cast<std::size_t>(src_node)];
  for (std::uint32_t q = ns.q_head; q != kNil;) {
    const std::uint32_t next = pool_[q].next_queued;
    --queued_count_;
    drop_transfer(q);
    q = next;
  }
  ns.q_head = ns.q_tail = kNil;

  const Time now = engine_->now();
  for (std::uint32_t idx = 0; idx < pool_.size(); ++idx) {
    Transfer& t = pool_[idx];
    if (t.state != XferState::kActive || t.src != src_node) continue;
    const Route route = t.route;
    for (int h = 0; h < route.nhops; ++h) {
      link_remove(route.links[static_cast<std::size_t>(h)], idx, h);
    }
    --active_count_;
    --ns.admitted;
    drop_transfer(idx);
    for (int h = 0; h < route.nhops; ++h) {
      resettle_members(route.links[static_cast<std::size_t>(h)], now, kNil,
                       /*inserted=*/false);
    }
  }
  GCR_ASSERT(ns.admitted == 0);
  arm_timer();  // survivors may now finish sooner
}

void Network::drop_transfer(std::uint32_t idx) {
  fabric_dropped_ += pool_[idx].bytes;
  free_transfer(idx);
}

}  // namespace gcr::sim
