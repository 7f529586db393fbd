// Network model: flat per-node NIC serialization, or a routed multi-link
// fabric with per-link fair-share contention.
//
// Flat (the default) is the paper's switched-Fast-Ethernet model: each node
// owns a full-duplex port, the switch is non-blocking, so the only
// contention is serialization at the sender's NIC. A message departs when
// the NIC is free, occupies it for `per_message + bytes/bandwidth`, and
// arrives `latency` after the occupation ends. This path is bit-identical
// to the pre-topology implementation: same arithmetic, same engine events.
// The per-message, loopback and per-hop costs are fixed model constants
// (Network::kPerMessageS and its neighbours); tests read them for closed
// forms.
//
// Flat has no topology object. Routed topologies (fat-tree, dragonfly —
// sim/topology.hpp) model every directed physical link as a fair-share
// contended resource running at the NIC bandwidth (`bandwidth_Bps`),
// reusing the resettling protocol proven in sim::StorageDevice: a
// transfer's rate is its *bottleneck* share, min over route links of
// bandwidth/active; each membership change settles the affected
// transfers' progress at the old rate and re-splits from now. Completion
// estimates live in a lazy min-heap invalidated by per-transfer
// generations; a single generation-guarded engine timer fires the earliest
// one. Each sender NIC admits kNicConcurrency transfers; later sends
// queue FIFO at the sender, which keeps the active set (and the per-event
// resettle cost) bounded by nodes, not by outstanding messages. The steady
// path allocates nothing: transfers recycle through a pooled free list,
// link membership is intrusive, and the heap reuses its buffer.
//
// A routed send is admitted to the fabric at the send instant (or queues
// behind its NIC's admitted transfers). Delivery runs
// `per_message + nhops * hop_latency` after the last byte clears the
// bottleneck, so an uncontended message costs
// bytes/bandwidth + per_message + nhops * hop_latency end to end.
//
// send() returns an Egress: the sender co_awaits it to block until its
// buffer has left the NIC, without knowing the fabric. Flat and loopback
// egress is an exact instant known at send time; routed egress is the
// transfer's completion, which depends on future contention, so a routed
// Egress wakes its waiter when the transfer clears its bottleneck (the
// instant its delivery is scheduled).
//
// Kill protocol: abort_transfers_from(node) synchronously drops the node's
// queued and in-flight transfers (their callbacks never run, their egress
// waiters are never woken) and resettles the survivors to reclaim the
// bandwidth. Transfers that already cleared their bottleneck still
// deliver — the wire cannot be recalled.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "sim/topology.hpp"

namespace gcr::sim {

struct NetParams {
  double latency_s = 70e-6;        ///< one-way wire+switch latency (flat)
  double bandwidth_Bps = 12.5e6;   ///< per-NIC egress bandwidth (100 Mb/s)
  /// Fabric kind; kFlat selects the legacy model above. Every routed link
  /// runs at `bandwidth_Bps`.
  TopologyParams topology;
};

class Network {
 public:
  static constexpr double kPerMessageS = 10e-6;  ///< wire/stack cost
  static constexpr double kLoopbackBps = 400e6;  ///< same-node copy (P4-era)
  static constexpr double kLoopbackLatencyS = 2e-6;
  /// Routed: per-link propagation latency, paid once per hop after the last
  /// byte clears the bottleneck.
  static constexpr double kHopLatencyS = 10e-6;
  /// Routed: transfers a NIC injects at once; later sends queue FIFO at the
  /// sender. 1 mirrors the flat model's serializing NIC.
  static constexpr int kNicConcurrency = 1;

  Network(Engine& engine, int num_nodes, const NetParams& params);

  /// Nodes with their own NIC (valid src/dst range for send()).
  int num_nodes() const { return num_nodes_; }
  /// True when a multi-link topology routes transfers (not kFlat).
  bool routed() const { return topo_ != nullptr; }
  /// The routed topology (routed() only; flat has none).
  const Topology& topology() const { return *topo_; }

  /// What send() returns. co_await it to block until the sent buffer is
  /// reusable: the exact NIC-drain instant for flat and loopback sends,
  /// bottleneck completion for a routed transfer. It is ready at once when
  /// that moment has passed or the transfer was aborted; a
  /// default-constructed Egress is always ready. Like Delay it is a plain
  /// awaitable with no coroutine frame. A killed waiter's handle is stale,
  /// so the routed completion that fires it resumes nothing.
  class Egress {
   public:
    Egress() = default;

    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {
      if (waiter_) net_->engine_->finish_wait(waiter_);
    }

   private:
    friend class Network;
    Egress(Network* net, Time instant, std::uint64_t ticket)
        : net_(net), instant_(instant), ticket_(ticket) {}

    Network* net_ = nullptr;
    Time instant_ = 0;          ///< flat/loopback: when the NIC drains
    std::uint64_t ticket_ = 0;  ///< routed: the transfer's (slot, epoch)
    WaiterHandle waiter_;
  };

  /// Schedules an asynchronous transfer; `deliver` runs at arrival time.
  Egress send(int src_node, int dst_node, std::int64_t bytes,
              SmallFn deliver);

  /// Drops every queued and in-flight transfer originating at `src_node`:
  /// callbacks are destroyed (never fire), survivors sharing links speed
  /// up. Messages that already cleared their bottleneck (deliver event
  /// scheduled) still arrive — the wire cannot be recalled. No-op for flat,
  /// whose NIC timestamps model no recallable in-flight state.
  void abort_transfers_from(int src_node);

  /// Cumulative payload bytes ever passed to send() (monotone).
  std::int64_t total_bytes() const { return total_bytes_; }
  /// Cumulative send() calls (monotone).
  std::int64_t total_messages() const { return total_messages_; }

  // Fabric accounting (routed transfers only; loopback and flat excluded).
  // Conservation invariant, checked by the torture suite:
  //   offered == delivered + dropped + (bytes still queued or in flight).
  std::int64_t fabric_bytes_offered() const { return fabric_offered_; }
  std::int64_t fabric_bytes_delivered() const { return fabric_delivered_; }
  std::int64_t fabric_bytes_dropped() const { return fabric_dropped_; }

  /// Transfers currently fair-sharing links / waiting for NIC admission.
  int active_transfers() const { return active_count_; }
  int queued_transfers() const { return queued_count_; }
  /// Admitted transfers currently crossing `link`.
  std::int32_t link_active(std::int32_t link) const {
    return link_active_[static_cast<std::size_t>(link)];
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr double kDoneEpsBytes = 0.5;

  enum class XferState : std::uint8_t { kFree, kQueued, kActive };

  /// One routed transfer. `remaining` is settled lazily (exact only at its
  /// own settle points); link membership is an intrusive doubly-linked list
  /// per hop so joins/leaves never allocate.
  struct Transfer {
    double remaining = 0;    ///< bytes left at last_settle
    double rate = 0;         ///< bottleneck share, bytes/s
    Time last_settle = 0;
    std::int64_t bytes = 0;
    std::int32_t src = -1;
    std::int32_t dst = -1;
    std::uint32_t est_gen = 0;  ///< invalidates stale heap estimates
    Time est_time = 0;          ///< fire time of the live heap entry
    std::uint32_t epoch = 0;    ///< bumped on free: stale tickets stop resolving
    WaiterHandle egress;        ///< the sender awaiting completion, if any
    XferState state = XferState::kFree;
    Route route;
    SmallFn deliver;
    std::uint32_t next_queued = kNil;  ///< sender FIFO chain
    std::array<std::uint32_t, Route::kMaxHops> lnext;  ///< member handles
    std::array<std::uint32_t, Route::kMaxHops> lprev;
  };

  /// Per-sender NIC admission: `admitted` in flight, the rest chained FIFO.
  struct NodeState {
    std::int32_t admitted = 0;
    std::uint32_t q_head = kNil;
    std::uint32_t q_tail = kNil;
  };

  /// Lazy completion estimate; stale when gen != transfer's est_gen.
  struct HeapEntry {
    Time t;
    std::uint64_t seq;  ///< push order, breaks same-tick ties
    std::uint32_t xfer;
    std::uint32_t gen;
  };
  struct HeapCmp {
    bool operator()(const HeapEntry& x, const HeapEntry& y) const {
      if (x.t != y.t) return x.t > y.t;
      return x.seq > y.seq;
    }
  };

  Egress send_flat(int src_node, std::int64_t bytes, SmallFn deliver,
                   Time now);
  Egress send_routed(int src_node, int dst_node, std::int64_t bytes,
                     SmallFn deliver, Time now);
  /// A routed Egress names its transfer by (slot + 1, epoch); free_transfer
  /// bumps the epoch, so the ticket stops resolving once the transfer
  /// completes or is aborted, even after the slot is reused.
  std::uint64_t make_ticket(std::uint32_t idx) const {
    return (static_cast<std::uint64_t>(idx + 1) << 32) | pool_[idx].epoch;
  }
  /// Resolves a ticket to its still-queued or in-flight transfer, or
  /// nullptr if the transfer completed, was aborted, or the slot was reused.
  Transfer* ticket_transfer(std::uint64_t ticket);
  /// Drops one queued-or-active transfer: accounts the bytes and frees the
  /// pool slot (its callback never runs, its egress waiter is never woken).
  void drop_transfer(std::uint32_t idx);

  /// Current fair share of one link: bandwidth * 1/active, via the
  /// reciprocal table (multiply, not divide — this runs ~1e9 times in a
  /// 4k-rank coordination storm). All rate producers use this exact
  /// expression so rate == share comparisons stay bitwise-exact.
  double share(std::size_t link) const {
    return params_.bandwidth_Bps *
           recip_[static_cast<std::size_t>(link_active_[link])];
  }

  std::uint32_t alloc_transfer();
  void free_transfer(std::uint32_t idx);
  void admit(std::uint32_t idx, Time now);
  void complete(std::uint32_t idx, Time now);
  /// Advances `remaining` to `now` at the pre-change rate.
  void settle(Transfer& t, Time now);
  double compute_rate(const Transfer& t) const;
  void push_estimate(std::uint32_t idx, Time now);
  /// Pushes a fresh estimate only if it beats the live entry; a live entry
  /// that fires early is harmless (on_timer re-estimates), one that fires
  /// late would deliver late, so only improvements need the heap.
  void maybe_push(std::uint32_t idx, Time now);
  /// Settles and re-rates the affected members of `link` after a membership
  /// change (skip = the transfer that triggered it, already fresh).
  /// `inserted` tells which direction the link's share moved: an insert can
  /// only clamp members down to the new share (no bottleneck search, no
  /// heap traffic — their live estimates just fire early), a removal
  /// re-derives the bottleneck for exactly the members this link was
  /// bottlenecking.
  void resettle_members(std::int32_t link, Time now, std::uint32_t skip,
                        bool inserted);
  void link_insert(std::int32_t link, std::uint32_t idx, int hop);
  void link_remove(std::int32_t link, std::uint32_t idx, int hop);
  /// Schedules the completion timer for the earliest live estimate, unless
  /// a live timer already fires at or before it (on_timer re-arms).
  void arm_timer();
  void on_timer();
  void compact_heap();

  Engine* engine_;
  NetParams params_;
  int num_nodes_;
  std::unique_ptr<Topology> topo_;  ///< nullptr for flat
  std::vector<Time> egress_free_;  ///< flat path: per-node NIC next-free

  // Fabric state (sized only under routing).
  std::vector<std::uint32_t> link_head_;  ///< first member handle per link
  std::vector<std::int32_t> link_active_;
  std::vector<double> recip_;  ///< recip_[a] == 1.0/a, up to peak occupancy
  std::vector<Transfer> pool_;
  std::vector<std::uint32_t> free_;
  std::vector<NodeState> nodes_;
  std::vector<HeapEntry> heap_;
  std::uint64_t heap_seq_ = 0;
  std::uint64_t timer_gen_ = 0;
  bool timer_armed_ = false;  ///< a generation-current timer is scheduled
  Time timer_at_ = 0;         ///< its fire time
  int active_count_ = 0;
  int queued_count_ = 0;

  std::int64_t total_bytes_ = 0;
  std::int64_t total_messages_ = 0;
  std::int64_t fabric_offered_ = 0;
  std::int64_t fabric_delivered_ = 0;
  std::int64_t fabric_dropped_ = 0;
};

}  // namespace gcr::sim
