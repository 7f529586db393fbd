// Discrete-event engine driving coroutine processes.
//
// Single-threaded. Events are totally ordered by (time, insertion sequence),
// so one seed gives bit-identical runs. The queue is three structures
// sharing one sequence space: events scheduled at the current timestamp
// (claimed resumes, post(), zero-delay timers — the bulk of channel/protocol
// traffic) go through an O(1) FIFO due ring; future events land in a
// hierarchical timing wheel (8 levels x 64 slots, 6 bits of nanoseconds per
// level, lazily cascaded toward level 0 as the cursor advances; see
// DESIGN.md §15.1); and events beyond the wheel's ~78-hour span — or behind
// its lazily-advanced cursor — overflow into a flat, reserve()-able 4-ary
// min-heap. The wheel groups the events of one exact time into a bucket: an
// insert joins its slot's tail bucket when the times match, a cascade
// relinks whole buckets, and once the due ring drains the earliest bucket
// moves into it in one piece. So the wheel is consulted once per distinct
// instant, not once per event — bulk-synchronous ranks that compute in
// lockstep put many events on one instant. Every wheel event is later than
// now(). All three structures hold 24-byte typed Event records — a tagged
// union of {waiter resume, armed timer, small callback}. Dispatch always
// takes the globally smallest (time, seq), so the split is invisible to
// ordering. Steady-state traffic never touches the allocator: waiters live
// in an engine-owned slot pool recycled through a free list, callback
// captures sit in SmallFn small-buffer storage pooled the same way, and
// wheel nodes come from one pooled arena.
//
// Waiter protocol: a suspended coroutine registers exactly one pooled waiter
// slot and gets back a generation-counted WaiterHandle. Exactly one
// resumption source may claim the slot (fired flag); later sources see
// fired — or, once the slot has been recycled, a bumped generation — and
// back off. fire() claims immediately and resumes through the due ring;
// fire_at() arms a timer that claims at dispatch.
//
// Kill protocol: processes are never destroyed from the outside. kill()
// marks the process and claims its currently-armed waiter for immediate
// resumption; the awaitable's await_resume sees the flag (finish_wait) and
// throws ProcessKilled, which unwinds the coroutine chain (RAII deregisters
// everything) up to the root driver, which marks the Proc dead. Stale handles
// left behind in channels or semaphore queues are neutralized by the
// generation counter instead of shared ownership. See DESIGN.md §2.1.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/co.hpp"
#include "sim/smallfn.hpp"
#include "sim/time.hpp"

namespace gcr::sim {

class Engine;

/// Generation-counted reference to a pooled waiter slot. Copyable value
/// type; a handle whose slot has since been recycled (generation mismatch)
/// behaves like an already-claimed waiter: fire() returns false,
/// waiter_live() returns false.
struct WaiterHandle {
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;

  std::uint32_t slot = kNullSlot;
  std::uint32_t gen = 0;

  explicit operator bool() const { return slot != kNullSlot; }
  friend bool operator==(const WaiterHandle&, const WaiterHandle&) = default;
};

/// Execution context of one simulated process (one coroutine chain).
class Proc {
 public:
  explicit Proc(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  bool killed() const { return killed_; }
  bool alive() const { return alive_; }

 private:
  friend class Engine;
  std::string name_;
  bool killed_ = false;
  bool alive_ = true;          // false once the root driver finishes/unwinds
  WaiterHandle active_wait_;   // innermost armed engine waiter, if suspended
};

using ProcPtr = std::shared_ptr<Proc>;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (integer nanoseconds since start).
  Time now() const { return now_; }
  /// Events dispatched so far (monotone; perf harness metric).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Pre-sizes the event heap and the waiter/callback pools so a workload
  /// of known scale runs allocation-free from the first event.
  void reserve(std::size_t events, std::size_t waiters);

  // --- plain callbacks ---
  void call_at(Time t, SmallFn fn);
  void call_after(Time dt, SmallFn fn) { call_at(now_ + dt, std::move(fn)); }
  void post(SmallFn fn) { call_at(now_, std::move(fn)); }

  // --- process lifecycle ---
  /// Spawns a process executing `body` starting at the current time. The
  /// returned Proc's killed() and alive() tell how and whether it ended.
  ProcPtr spawn(std::string name, Co<void> body);

  /// Marks the process killed and arranges for ProcessKilled to be thrown at
  /// its next (immediate) resumption. Idempotent. Must not be called by the
  /// process on itself.
  void kill(Proc& proc);

  /// Number of processes whose root driver has not yet exited.
  std::size_t live_process_count() const { return live_processes_; }

  // --- main loop ---
  /// Runs events until the queue empties or `until` is passed. Events at
  /// exactly `until` are executed. Returns the number of events processed.
  ///
  /// Clock-advance rule: `until` must not be in the past (asserted). On
  /// return, now() is `until` if the queue drained and `until` is finite;
  /// if events beyond `until` remain, now() stays at the last executed
  /// event's timestamp (or its entry value if nothing ran). A bare run()
  /// (until == kTimeMax) never advances past the last event.
  std::uint64_t run(Time until = kTimeMax);

  /// Runs events while `keep_going()` is true (checked before each event)
  /// and the queue is non-empty. Used to stop at job completion without
  /// draining long-lived daemons' future events.
  std::uint64_t run_while(const std::function<bool()>& keep_going);

  /// True if no events remain.
  bool idle() const {
    return heap_.empty() && due_count_ == 0 && wheel_count_ == 0;
  }

  // --- awaitable support (used by awaitables.hpp / channel.hpp etc.) ---
  /// Registers the currently-running process's suspension in the waiter
  /// pool; returns the handle to give to a resumption source. Works for
  /// non-process coroutines too (proc == nullptr), which are then not
  /// killable.
  WaiterHandle suspend_current(std::coroutine_handle<> h);

  /// Claims the waiter and schedules its resumption at the current time
  /// (next in FIFO order). Returns false if it was already claimed or the
  /// slot has been recycled (caller must not consider it woken).
  bool fire(WaiterHandle w);

  /// Arms a timer: a resumption attempt at time t that claims at dispatch.
  void fire_at(Time t, WaiterHandle w);

  /// True if the handle still references its original, unclaimed waiter.
  /// Queues that skip dead entries (channels, semaphores) test this instead
  /// of holding shared ownership of a Waiter object.
  bool waiter_live(WaiterHandle w) const {
    return w.slot < waiter_pool_.size() &&
           waiter_pool_[w.slot].gen == w.gen && !waiter_pool_[w.slot].fired;
  }

  /// Called at the top of every await_resume for an engine suspension:
  /// throws ProcessKilled if the process was killed while suspended. The
  /// waiter slot itself was already recycled when the resume dispatched.
  void finish_wait(WaiterHandle w) {
    (void)w;
    if (current_ && current_->killed_) throw ProcessKilled{};
  }

  /// The process currently executing, or nullptr (callbacks, top level).
  Proc* current() const { return current_; }

  /// Internal: called by the root driver when a process body exits.
  void note_root_exit(Proc& proc);

  // --- introspection (tests, stress harnesses) ---
  /// Total waiter slots ever created; stays flat once the pool recycles.
  std::size_t waiter_pool_size() const { return waiter_pool_.size(); }
  std::size_t event_queue_depth() const {
    return heap_.size() + due_count_ + wheel_count_;
  }
  /// Events currently parked in wheel slots (excludes due ring and the
  /// overflow heap).
  std::size_t timer_wheel_depth() const { return wheel_count_; }
  /// Buckets moved one or more levels down by wheel cascades so far.
  std::uint64_t wheel_relinks() const { return wheel_relinks_; }

 private:
  enum EventKind : std::uint64_t {
    kCallback = 0,  ///< slot indexes callback_pool_
    kTimer = 1,     ///< armed fire_at: claim waiter at dispatch, else no-op
    kResume = 2,    ///< claimed resume: waiter generation must still match
  };

  /// 24-byte POD queue record; sift operations are plain copies. The kind
  /// tag lives in the low bits of `key` so (at, key) compares exactly like
  /// (at, seq) — the sequence occupies the high bits and is monotone.
  struct Event {
    Time at;
    std::uint64_t key;  ///< (seq << 2) | EventKind
    std::uint32_t slot;
    std::uint32_t gen;
  };

  struct WaiterSlot {
    std::coroutine_handle<> handle{};
    Proc* proc = nullptr;
    std::uint32_t gen = 0;
    bool fired = false;
    std::uint32_t next_free = WaiterHandle::kNullSlot;
  };

  /// (at, key) lexicographic order, written as branch-free boolean algebra:
  /// the min-of-children scans in the heap sift are data-dependent and
  /// mispredict badly as jumps, but compile to setcc/cmov in this form.
  static bool event_before(const Event& a, const Event& b) {
    return (a.at < b.at) | ((a.at == b.at) & (a.key < b.key));
  }
  std::uint64_t next_key(EventKind kind) {
    return (next_seq_++ << 2) | static_cast<std::uint64_t>(kind);
  }
  // --- hierarchical timing wheel (DESIGN.md §15.1) ---
  // Level L sorts nanoseconds by bits [6L, 6L+6). A slot holds one linked
  // list of pooled nodes in which the events of one exact time form a
  // bucket: a seq-ordered run whose first node records the run's last node,
  // and whose last node links to the next bucket's first. An insert joins
  // the slot's tail bucket when the times match, else starts a new tail
  // bucket; a cascade relinks one bucket per distinct time (merging into
  // the target's tail bucket on a time match); dispatch takes a whole
  // bucket. All of it is O(1) per bucket and allocation-free once the one
  // shared node arena is warm. The cursor trails dispatch: it only moves
  // (lazily, while looking for the earliest bucket) to the start of the
  // lowest occupied slot, cascading that slot's buckets down. Invariants:
  // every wheel event's time is >= wheel_cur_ (late arrivals — only
  // possible behind an advanced cursor — divert to the heap) and > now_;
  // all pending events of one time sit in one slot, in seq order along its
  // list; a level-0 slot holds one absolute nanosecond and therefore one
  // bucket.
  static constexpr int kWheelBits = 6;
  static constexpr int kWheelSlots = 1 << kWheelBits;
  static constexpr int kWheelLevels = 8;
  static constexpr std::uint32_t kNilNode = 0xffffffffu;

  struct WheelNode {
    Event ev;
    /// Next node in the slot's list (a bucket's last node: the next
    /// bucket's first; undefined after the slot's last node), or the free
    /// list's link.
    std::uint32_t next = kNilNode;
    std::uint32_t last = kNilNode;  ///< bucket's first node: its last node
  };
  /// The tail bucket's first and last node and its time are kept here, so
  /// appending to a slot only stores into the tail bucket's nodes and never
  /// loads one that may have gone cold.
  struct WheelSlot {
    std::uint32_t head = kNilNode;  ///< first bucket's first node
    std::uint32_t tail = kNilNode;  ///< tail bucket's first node
    std::uint32_t tail_last = kNilNode;  ///< tail bucket's last node
    Time tail_at = 0;                    ///< tail bucket's time
  };

  /// Routes to the due ring (t == now), a wheel slot, or the heap.
  void schedule(Time t, EventKind kind, std::uint32_t slot, std::uint32_t gen);
  void heap_push(const Event& e);
  void heap_pop_top();
  void grow_due(std::size_t capacity_pow2);
  /// Claims the ring entry after the last due event; the caller fills it.
  Event& due_append();
  /// O(1): places the event by the highest bit-group where t differs from
  /// the cursor; beyond level 7 (or behind the cursor) overflows to the
  /// heap. The node is written in place, field by field.
  void wheel_insert(Time t, std::uint64_t key, std::uint32_t slot,
                    std::uint32_t gen);
  /// Appends bucket b (its first node, with `last` set) to the slot its
  /// time selects against the current cursor, merging it into that slot's
  /// tail bucket when the times match (caller has ruled out the heap
  /// cases).
  void wheel_place(std::uint32_t b);
  /// Moves the cursor to t (<= every pending wheel event), cascading the
  /// entered slot at each level the jump crosses, highest level first.
  /// Entering a new top-level window also drains every overflow-heap event
  /// that now fits the wheel span — one batched promotion per cascade tick
  /// instead of a per-entry check on the dispatch path.
  void wheel_advance(Time t);
  /// Batched far-future promotion: pops heap events in (at, seq) order into
  /// the wheel while the top lies inside the span ahead of the cursor.
  void promote_overflow();
  /// Moves the wheel's earliest bucket, whole, into the (empty) due ring if
  /// its time is <= bound. Cascades only until that bucket is alone in its
  /// slot and never advances the cursor past `bound`.
  void wheel_take(Time bound);
  /// Pops the globally smallest event if its time is <= until.
  bool pop_next(Time until, Event& out);
  void dispatch(const Event& ev);
  void resume_slot(std::uint32_t slot);

  WaiterHandle alloc_waiter(std::coroutine_handle<> h, Proc* proc);
  void release_waiter(std::uint32_t slot);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t live_processes_ = 0;
  Proc* current_ = nullptr;

  std::vector<Event> heap_;  ///< 4-ary min-heap: overflow/far-future events

  /// Timing-wheel storage: slot (level, idx) lives at [level*64 + idx];
  /// nodes are pooled and recycled through an intrusive free list.
  std::array<WheelSlot, kWheelLevels * kWheelSlots> wheel_slots_{};
  std::array<std::uint64_t, kWheelLevels> wheel_bmp_{};  ///< slot occupancy
  std::vector<WheelNode> wheel_pool_;
  std::uint32_t wheel_free_ = kNilNode;
  std::size_t wheel_count_ = 0;
  std::uint64_t wheel_relinks_ = 0;
  Time wheel_cur_ = 0;

  /// Power-of-two ring of the events of one instant: those scheduled at
  /// now_, behind the wheel bucket handed over when the ring last drained.
  /// Drained in seq order (interleaved with same-time heap entries) before
  /// the clock advances.
  std::vector<Event> due_;
  std::size_t due_head_ = 0;
  std::size_t due_count_ = 0;

  std::vector<WaiterSlot> waiter_pool_;
  std::uint32_t waiter_free_head_ = WaiterHandle::kNullSlot;

  std::vector<SmallFn> callback_pool_;
  std::vector<std::uint32_t> callback_free_;
};

}  // namespace gcr::sim
