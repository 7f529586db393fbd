// Basic awaitables: Delay, Trigger, Semaphore.
//
// Every awaitable that suspends on the engine follows the Waiter protocol
// (sim/engine.hpp): register via suspend_current (a pooled slot, no heap
// traffic), resume through fire / fire_at, and call finish_wait first thing
// in await_resume so kills turn into ProcessKilled unwinds. Handles left in
// wait queues after a kill are detected with waiter_live() — a recycled
// slot's bumped generation reads as dead, so nothing needs shared ownership.
//
// An awaitable holds one Engine& and its waiter slot lives in that
// engine's pool, so waiter and firer must use the same engine.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace gcr::sim {

/// co_await delay(engine, dt): suspend for dt simulated nanoseconds.
/// dt == 0 still yields through the event queue (fairness point).
/// Negative durations are a bug in the caller's cost model — asserted, not
/// clamped; from_seconds() already clamps floating-point noise to zero.
class Delay {
 public:
  Delay(Engine& engine, Time duration) : engine(engine), duration(duration) {
    GCR_CHECK_MSG(duration >= 0,
                  "negative Delay duration; fix the caller's cost model "
                  "(from_seconds already clamps floating-point noise to 0)");
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    waiter_ = engine.suspend_current(h);
    engine.fire_at(engine.now() + duration, waiter_);
  }
  void await_resume() { engine.finish_wait(waiter_); }

 private:
  Engine& engine;
  Time duration;
  WaiterHandle waiter_;
};

inline Delay delay(Engine& engine, Time dt) { return Delay{engine, dt}; }

/// Broadcast event. wait() suspends until fire(); if already fired, returns
/// immediately. reset() re-arms (next waiters block again).
class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(&engine) {}

  /// True once fire() ran and reset() has not; wait() returns immediately.
  bool fired() const { return fired_; }

  /// Latches the trigger and wakes every current waiter (their resumes
  /// dispatch through the event queue in registration order). Idempotent.
  void fire() {
    fired_ = true;
    for (WaiterHandle w : waiters_) engine_->fire(w);
    waiters_.clear();
  }

  /// Re-arms: later wait() calls block again. Waiters released by an
  /// earlier fire() are unaffected.
  void reset() { fired_ = false; }

  auto wait() {
    struct Awaiter {
      Trigger* trigger;
      WaiterHandle waiter;
      bool await_ready() const noexcept { return trigger->fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        waiter = trigger->engine_->suspend_current(h);
        trigger->waiters_.push_back(waiter);
      }
      void await_resume() {
        if (waiter) trigger->engine_->finish_wait(waiter);
      }
    };
    return Awaiter{this, {}};
  }

 private:
  Engine* engine_;
  bool fired_ = false;
  std::vector<WaiterHandle> waiters_;
};

/// Counting semaphore with FIFO handoff; models serialized resources (disk
/// queues, NIC DMA engines). A waiter killed after being granted a permit
/// but before resuming returns its permit so the resource is not leaked.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::int64_t permits)
      : engine_(&engine), permits_(permits) {}

  /// Permits not currently held (may be claimed by queued waiters on the
  /// next drain).
  std::int64_t available() const { return permits_; }

  /// Returns one permit and hands permits to queued live waiters FIFO.
  /// Never blocks; safe to call from non-coroutine code.
  void release() {
    ++permits_;
    drain();
  }

  /// co_await sem.acquire(): suspends until a permit is granted (FIFO).
  /// A waiter killed after the grant but before resuming returns its
  /// permit during the ProcessKilled unwind.
  auto acquire() {
    struct Awaiter {
      Semaphore* sem;
      WaiterHandle waiter;
      bool granted = false;
      bool immediate = false;

      bool await_ready() {
        if (sem->permits_ > 0 && sem->waiters_.empty()) {
          --sem->permits_;
          immediate = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        waiter = sem->engine_->suspend_current(h);
        sem->waiters_.push_back({waiter, &granted});
      }
      void await_resume() {
        if (immediate) return;
        try {
          sem->engine_->finish_wait(waiter);
        } catch (...) {
          if (granted) sem->release();  // don't strand the resource
          throw;
        }
        GCR_ASSERT(granted);
      }
    };
    return Awaiter{this, {}};
  }

 private:
  struct Entry {
    WaiterHandle waiter;
    bool* granted;
  };

  void drain() {
    while (permits_ > 0 && !waiters_.empty()) {
      Entry e = waiters_.front();
      waiters_.pop_front();
      if (!engine_->waiter_live(e.waiter)) continue;  // killed while queued
      --permits_;
      *e.granted = true;
      engine_->fire(e.waiter);
    }
  }

  Engine* engine_;
  std::int64_t permits_;
  std::deque<Entry> waiters_;
};

/// RAII permit holder for Semaphore: releases the permit on scope exit,
/// including a ProcessKilled unwind.
/// Usage: co_await sem.acquire(); ScopedPermit permit(sem); ...
class ScopedPermit {
 public:
  explicit ScopedPermit(Semaphore& sem) : sem_(&sem) {}
  ScopedPermit(const ScopedPermit&) = delete;
  ScopedPermit& operator=(const ScopedPermit&) = delete;
  ~ScopedPermit() {
    if (sem_) sem_->release();
  }

 private:
  Semaphore* sem_;
};

}  // namespace gcr::sim
