#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace gcr::sim {
namespace {

/// Eagerly-destroyed top-level coroutine that drives one process body.
/// initial_suspend is suspend_always (the engine schedules the first resume);
/// final_suspend is suspend_never so the frame frees itself on completion.
struct RootTask {
  struct promise_type {
    RootTask get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      GCR_CHECK_MSG(false,
                    "exception escaped a simulated process; application "
                    "coroutines must only exit normally or via kill()");
    }
  };
  std::coroutine_handle<promise_type> handle;
};

}  // namespace

// Defined outside the anonymous namespace so it can be declared a friend if
// ever needed; only used by Engine::spawn.
static RootTask root_driver(Engine& eng, ProcPtr proc, Co<void> body) {
  // A process killed before its first instruction never runs its body.
  if (!proc->killed()) {
    try {
      co_await std::move(body);
    } catch (const ProcessKilled&) {
      // kill() unwound the chain; the Proc already reads killed().
    }
  }
  eng.note_root_exit(*proc);
}

// ---------------------------------------------------------- event queues

// 4-ary heap: half the depth of a binary heap and all four children on one
// or two cache lines (24-byte PODs), which wins on the pop-heavy dispatch
// loop even though each level compares up to four children.
namespace {
constexpr std::size_t kHeapArity = 4;
}

void Engine::heap_push(const Event& e) {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  // Hole-based sift-up: shift parents down, write the new event once.
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!event_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::heap_pop_top() {
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Floyd's bottom-up deletion: walk the hole down along min-children to a
  // leaf comparing only siblings, then sift the displaced last element up
  // from there. `last` came off the bottom, so it almost never rises —
  // this skips the compare-against-last at every level of the plain
  // sift-down, the hottest loop in the engine.
  std::size_t hole = 0;
  while (true) {
    const std::size_t first = kHeapArity * hole + 1;
    if (first + kHeapArity <= n) {
      // All four children present: pairwise tree reduction keeps the
      // dependency chain at two compares instead of a three-long scan.
      const std::size_t a =
          first + (event_before(heap_[first + 1], heap_[first]) ? 1 : 0);
      const std::size_t b =
          first + 2 + (event_before(heap_[first + 3], heap_[first + 2]) ? 1 : 0);
      const std::size_t child = event_before(heap_[b], heap_[a]) ? b : a;
      heap_[hole] = heap_[child];
      hole = child;
    } else if (first < n) {
      std::size_t child = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (event_before(heap_[c], heap_[child])) child = c;
      }
      heap_[hole] = heap_[child];
      hole = child;
    } else {
      break;
    }
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!event_before(last, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = last;
}

void Engine::grow_due(std::size_t capacity_pow2) {
  if (capacity_pow2 <= due_.size()) return;
  // Unwrap the ring into the bigger buffer in order.
  std::vector<Event> bigger(capacity_pow2);
  for (std::size_t k = 0; k < due_count_; ++k) {
    bigger[k] = due_[(due_head_ + k) & (due_.size() - 1)];
  }
  due_ = std::move(bigger);
  due_head_ = 0;
}

auto Engine::due_append() -> Event& {
  if (due_count_ == due_.size()) {
    grow_due(due_.empty() ? 64 : due_.size() * 2);
  }
  Event& e = due_[(due_head_ + due_count_) & (due_.size() - 1)];
  ++due_count_;
  return e;
}

void Engine::schedule(Time t, EventKind kind, std::uint32_t slot,
                      std::uint32_t gen) {
  const std::uint64_t key = next_key(kind);
  if (t == now_) {
    // Written field by field: an Event built on the stack and copied in
    // whole is re-read with a wide load that misses store forwarding.
    Event& e = due_append();
    e.at = t;
    e.key = key;
    e.slot = slot;
    e.gen = gen;
  } else {
    wheel_insert(t, key, slot, gen);
  }
}

// -------------------------------------------------- hierarchical timing wheel

void Engine::wheel_place(std::uint32_t b) {
  const WheelNode& first = wheel_pool_[b];
  const Time at = first.ev.at;
  const std::uint64_t d = static_cast<std::uint64_t>(at) ^
                          static_cast<std::uint64_t>(wheel_cur_);
  int lvl = 0;
  if (d != 0) lvl = (63 - std::countl_zero(d)) / kWheelBits;
  const std::size_t idx = (static_cast<std::uint64_t>(at) >>
                           (kWheelBits * lvl)) &
                          (kWheelSlots - 1);
  WheelSlot& slot = wheel_slots_[static_cast<std::size_t>(lvl) * kWheelSlots +
                                 idx];
  if (slot.head == kNilNode) {
    slot.head = slot.tail = b;
    slot.tail_last = first.last;
    slot.tail_at = at;
    wheel_bmp_[static_cast<std::size_t>(lvl)] |= std::uint64_t{1} << idx;
    return;
  }
  wheel_pool_[slot.tail_last].next = b;
  if (slot.tail_at == at) {
    // Same instant as the tail bucket: b's nodes extend it. Every event of
    // one time sits in this slot and b's are the newest, so the merged run
    // stays seq-ordered.
    wheel_pool_[slot.tail].last = first.last;
  } else {
    slot.tail = b;
    slot.tail_at = at;
  }
  slot.tail_last = first.last;
}

void Engine::wheel_insert(Time t, std::uint64_t key, std::uint32_t slot,
                          std::uint32_t gen) {
  const std::uint64_t d = static_cast<std::uint64_t>(t) ^
                          static_cast<std::uint64_t>(wheel_cur_);
  if (t < wheel_cur_ || (d >> (kWheelBits * kWheelLevels)) != 0) {
    // Behind the lazily-advanced cursor (still > now_; only possible in the
    // gap a cascade opened past now_), where the placement rule would wrap,
    // or beyond the wheel span: the heap absorbs it.
    heap_push(Event{t, key, slot, gen});
    return;
  }
  std::uint32_t n = wheel_free_;
  if (n != kNilNode) {
    wheel_free_ = wheel_pool_[n].next;
  } else {
    n = static_cast<std::uint32_t>(wheel_pool_.size());
    wheel_pool_.emplace_back();
  }
  WheelNode& node = wheel_pool_[n];
  node.ev.at = t;
  node.ev.key = key;
  node.ev.slot = slot;
  node.ev.gen = gen;
  node.last = n;
  wheel_place(n);
  ++wheel_count_;
}

void Engine::wheel_advance(Time t) {
  const std::uint64_t diff = static_cast<std::uint64_t>(wheel_cur_) ^
                             static_cast<std::uint64_t>(t);
  wheel_cur_ = t;
  if ((diff >> kWheelBits) == 0) return;  // same level-0 window
  int top = (63 - std::countl_zero(diff)) / kWheelBits;
  if (top > kWheelLevels - 1) top = kWheelLevels - 1;
  // Cascade-on-entry, highest level first: a level's entered slot is
  // re-scattered one or more levels down before that lower level's own
  // entered slot is processed, so every event lands (in seq order) before
  // dispatch can reach it. Cascading relinks whole buckets — no copies, no
  // per-event work, no allocation.
  for (int lvl = top; lvl >= 1; --lvl) {
    const std::size_t idx = (static_cast<std::uint64_t>(t) >>
                             (kWheelBits * lvl)) &
                            (kWheelSlots - 1);
    if ((wheel_bmp_[static_cast<std::size_t>(lvl)] &
         (std::uint64_t{1} << idx)) == 0) {
      continue;
    }
    WheelSlot& slot =
        wheel_slots_[static_cast<std::size_t>(lvl) * kWheelSlots + idx];
    std::uint32_t b = slot.head;
    const std::uint32_t final_bucket = slot.tail;
    slot.head = kNilNode;  // an empty slot's other fields are dead
    wheel_bmp_[static_cast<std::size_t>(lvl)] &= ~(std::uint64_t{1} << idx);
    while (true) {
      // The link to the next bucket hangs off b's last node. Most buckets
      // hold one event, so read b's own link alongside `last` and load the
      // last node only for longer buckets: that keeps a second dependent
      // load off this pointer chase.
      const WheelNode& first = wheel_pool_[b];
      std::uint32_t next = first.next;
      if (first.last != b) next = wheel_pool_[first.last].next;
      // The target is strictly below lvl (the entered slot's digit now
      // matches the cursor at lvl), so re-placement never revisits this
      // list and never overflows to the heap. Lower levels were empty when
      // the cursor entered this slot, so two buckets of one time can only
      // meet in list order, and merging keeps seq order.
      wheel_place(b);
      ++wheel_relinks_;
      if (b == final_bucket) break;
      b = next;
    }
  }
  if ((diff >> (kWheelBits * (kWheelLevels - 1))) != 0) {
    // The cursor entered a new top-level window, so overflow events parked
    // beyond the old span may now fit: drain them in one batch here rather
    // than testing span membership per entry on the dispatch path.
    promote_overflow();
  }
}

void Engine::promote_overflow() {
  // Same-timestamp safety: an event can only reach the wheel while a
  // same-time sibling sits in the heap if the sibling entered the heap
  // beyond-span and the wheel insert happened within-span — but the cursor
  // advance that changed the span boundary ran this promotion first, so the
  // heap (popped in (at, seq) order) always lands before later inserts and
  // every bucket stays seq-ordered.
  while (!heap_.empty()) {
    const Event top = heap_.front();
    if (top.at < wheel_cur_) break;  // behind-cursor overflow stays heaped
    const std::uint64_t d = static_cast<std::uint64_t>(top.at) ^
                            static_cast<std::uint64_t>(wheel_cur_);
    if ((d >> (kWheelBits * kWheelLevels)) != 0) break;  // still beyond span
    heap_pop_top();
    wheel_insert(top.at, top.key, top.slot, top.gen);
  }
}

void Engine::wheel_take(Time bound) {
  // Minimum-slot argument: within a level every event shares the cursor's
  // digits above that level (inserts match the cursor at insert time, and
  // the cursor only ever changes its digit at the lowest occupied level,
  // whose entered slot is cascaded), so slots at one level are totally
  // ordered by index and any event at a higher level exceeds the cursor's
  // digit there. Hence every event in the lowest occupied slot of the
  // lowest occupied level precedes every other wheel event, and when that
  // slot holds a single bucket, the bucket is exactly the wheel's earliest
  // instant — taken in place, at whatever level it sits, with no cascade.
  GCR_ASSERT(due_count_ == 0 && wheel_count_ != 0);
  while (true) {
    std::size_t lvl = 0;
    while (wheel_bmp_[lvl] == 0) ++lvl;
    const int s = std::countr_zero(wheel_bmp_[lvl]);
    WheelSlot& slot =
        wheel_slots_[lvl * kWheelSlots + static_cast<std::size_t>(s)];
    if (slot.head != slot.tail) {
      // Several buckets: cascade the slot, unless even its start is late.
      GCR_ASSERT(lvl != 0);  // a level-0 slot is one ns, hence one bucket
      const int shift = kWheelBits * static_cast<int>(lvl + 1);
      const std::uint64_t base = static_cast<std::uint64_t>(wheel_cur_) >>
                                 shift << shift;
      const Time slot_start = static_cast<Time>(
          base | (static_cast<std::uint64_t>(s)
                  << (kWheelBits * static_cast<int>(lvl))));
      if (slot_start > bound) return;  // the earliest is certainly later
      wheel_advance(slot_start);
      continue;
    }
    if (slot.tail_at > bound) return;
    GCR_ASSERT(slot.tail_at > now_);
    const std::uint32_t b = slot.head;
    const std::uint32_t last = slot.tail_last;
    GCR_ASSERT(wheel_pool_[b].last == last);  // the slot's only bucket
    slot.head = kNilNode;
    wheel_bmp_[lvl] &= ~(std::uint64_t{1} << s);
    // The due ring is empty, so the bucket's seq order is dispatch order;
    // events its callbacks schedule at the same instant queue behind it.
    for (std::uint32_t n = b;; n = wheel_pool_[n].next) {
      due_append() = wheel_pool_[n].ev;
      --wheel_count_;
      if (n == last) break;
    }
    wheel_pool_[last].next = wheel_free_;  // the bucket joins the free list
    wheel_free_ = b;
    return;
  }
}

bool Engine::pop_next(Time until, Event& out) {
  // The wheel is consulted only when the due ring has drained, i.e. once
  // per instant: its earliest bucket moves into the ring whole, unless the
  // heap top or `until` comes first. Bounding the take by the heap top
  // keeps cascades from running past the next dispatch, so the cursor
  // never overtakes an event we are about to execute.
  if (due_count_ == 0 && wheel_count_ != 0) {
    Time bound = until;
    if (!heap_.empty() && heap_.front().at < bound) bound = heap_.front().at;
    wheel_take(bound);
  }
  const bool heap_first =
      !heap_.empty() &&
      (due_count_ == 0 || event_before(heap_.front(), due_[due_head_]));
  if (!heap_first) {
    // Due events are all at one instant <= until: now_, or a bucket just
    // taken under the bound.
    if (due_count_ == 0) return false;
    out = due_[due_head_];
    due_head_ = (due_head_ + 1) & (due_.size() - 1);
    --due_count_;
    return true;
  }
  if (heap_.front().at > until) return false;
  out = heap_.front();
  heap_pop_top();
  return true;
}

void Engine::reserve(std::size_t events, std::size_t waiters) {
  heap_.reserve(events);
  // The due ring must also cover `events`: a same-timestamp burst (e.g. a
  // Trigger broadcast fanout) routes every resume through it.
  grow_due(std::bit_ceil(std::max<std::size_t>(events, 64)));
  // One shared node arena serves every wheel slot, so pre-sizing it by the
  // workload's concurrent pending events makes the wheel allocation-free
  // regardless of how those events distribute across slots.
  wheel_pool_.reserve(events);
  waiter_pool_.reserve(waiters);
  callback_pool_.reserve(events);
  callback_free_.reserve(events);
}

// ----------------------------------------------------------- waiter pool

WaiterHandle Engine::alloc_waiter(std::coroutine_handle<> h, Proc* proc) {
  std::uint32_t slot;
  if (waiter_free_head_ != WaiterHandle::kNullSlot) {
    slot = waiter_free_head_;
    waiter_free_head_ = waiter_pool_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(waiter_pool_.size());
    waiter_pool_.emplace_back();
  }
  WaiterSlot& s = waiter_pool_[slot];
  s.handle = h;
  s.proc = proc;
  s.fired = false;
  return WaiterHandle{slot, s.gen};
}

void Engine::release_waiter(std::uint32_t slot) {
  WaiterSlot& s = waiter_pool_[slot];
  ++s.gen;  // invalidate every outstanding handle to this slot
  s.handle = nullptr;
  s.proc = nullptr;
  s.next_free = waiter_free_head_;
  waiter_free_head_ = slot;
}

// -------------------------------------------------------------- scheduling

void Engine::call_at(Time t, SmallFn fn) {
  GCR_ASSERT(t >= now_);
  std::uint32_t slot;
  if (!callback_free_.empty()) {
    slot = callback_free_.back();
    callback_free_.pop_back();
    callback_pool_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(callback_pool_.size());
    callback_pool_.push_back(std::move(fn));
  }
  schedule(t, kCallback, slot, 0);
}

WaiterHandle Engine::suspend_current(std::coroutine_handle<> h) {
  const WaiterHandle w = alloc_waiter(h, current_);
  if (current_) current_->active_wait_ = w;
  return w;
}

bool Engine::fire(WaiterHandle w) {
  if (!waiter_live(w)) return false;
  waiter_pool_[w.slot].fired = true;
  schedule(now_, kResume, w.slot, w.gen);  // always O(1): same-time ring
  return true;
}

void Engine::fire_at(Time t, WaiterHandle w) {
  GCR_ASSERT(t >= now_);
  GCR_ASSERT(w.slot < waiter_pool_.size());
  schedule(t, kTimer, w.slot, w.gen);
}

// ------------------------------------------------------- process lifecycle

ProcPtr Engine::spawn(std::string name, Co<void> body) {
  auto proc = std::make_shared<Proc>(std::move(name));
  ++live_processes_;
  RootTask root = root_driver(*this, proc, std::move(body));
  const WaiterHandle w = alloc_waiter(root.handle, proc.get());
  proc->active_wait_ = w;
  fire_at(now_, w);
  return proc;
}

void Engine::kill(Proc& proc) {
  GCR_CHECK_MSG(&proc != current_, "a process must not kill itself");
  if (proc.killed_ || !proc.alive_) return;
  proc.killed_ = true;
  // Claims the currently-armed waiter unless another source already did (a
  // stale or claimed handle makes fire() a no-op). A live process is always
  // either running (excluded above) or suspended with an active wait — the
  // spawn start waiter covers the killed-before-start case.
  fire(proc.active_wait_);
}

void Engine::note_root_exit(Proc& proc) {
  proc.alive_ = false;
  proc.active_wait_ = WaiterHandle{};
  GCR_ASSERT(live_processes_ > 0);
  --live_processes_;
}

// ---------------------------------------------------------------- dispatch

void Engine::resume_slot(std::uint32_t slot) {
  WaiterSlot& s = waiter_pool_[slot];
  GCR_ASSERT(s.fired);
  const std::coroutine_handle<> h = s.handle;
  Proc* const proc = s.proc;
  if (proc && proc->active_wait_ == WaiterHandle{slot, s.gen}) {
    proc->active_wait_ = WaiterHandle{};
  }
  // Recycle before resuming: outstanding handles are invalidated by the
  // generation bump, and an immediate re-suspension typically gets this
  // same (cache-hot) slot back off the free list.
  release_waiter(slot);
  Proc* const prev = current_;
  current_ = proc;
  h.resume();
  current_ = prev;
}

void Engine::dispatch(const Event& ev) {
  switch (static_cast<EventKind>(ev.key & 3)) {
    case kCallback: {
      // Move out and free the slot first: the callback may re-enter
      // call_at and grow or reuse the pool.
      SmallFn fn = std::move(callback_pool_[ev.slot]);
      callback_free_.push_back(ev.slot);
      fn();
      return;
    }
    case kTimer: {
      WaiterSlot& s = waiter_pool_[ev.slot];
      if (s.gen != ev.gen || s.fired) return;  // cancelled or claimed
      s.fired = true;
      resume_slot(ev.slot);
      return;
    }
    case kResume: {
      // The claim (fired=true) pins the slot until this event runs, so the
      // generation must still match.
      GCR_ASSERT(waiter_pool_[ev.slot].gen == ev.gen);
      resume_slot(ev.slot);
      return;
    }
  }
}

std::uint64_t Engine::run(Time until) {
  GCR_ASSERT(until >= now_);  // the clock never moves backwards
  std::uint64_t processed = 0;
  Event ev;
  while (pop_next(until, ev)) {
    GCR_ASSERT(ev.at >= now_);
    now_ = ev.at;
    dispatch(ev);
    ++processed;
    ++events_processed_;
  }
  if (idle() && now_ < until && until != kTimeMax) now_ = until;
  return processed;
}

std::uint64_t Engine::run_while(const std::function<bool()>& keep_going) {
  std::uint64_t processed = 0;
  Event ev;
  // Same predicate order as run(): emptiness first, keep_going second, so
  // the predicate is never consulted once the queue has drained.
  while (!idle() && keep_going() && pop_next(kTimeMax, ev)) {
    GCR_ASSERT(ev.at >= now_);
    now_ = ev.at;
    dispatch(ev);
    ++processed;
    ++events_processed_;
  }
  return processed;
}

}  // namespace gcr::sim
