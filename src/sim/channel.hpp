// Channel<T>: unbounded FIFO with awaitable pop.
//
// The MiniMPI runtime uses channels for per-rank delivery queues and the
// protocol daemons use them for control traffic. Values pushed while a
// receiver waits are handed over directly; a receiver killed while waiting
// leaves a stale handle (claimed or generation-bumped) that later pushes
// skip over via Engine::waiter_live.
//
// A channel binds one Engine; producer and consumer must use it.
#pragma once

#include <coroutine>
#include <deque>
#include <utility>

#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace gcr::sim {

template <class T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(&engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Queued (undelivered) values; waiters are not counted.
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Delivers a value: wakes the oldest live waiter or queues the value.
  /// Never blocks (the channel is unbounded).
  void push(T value) {
    while (!waiters_.empty()) {
      Entry e = std::move(waiters_.front());
      waiters_.pop_front();
      // A killed waiter's slot was recycled (generation bump); skip it.
      if (!engine_->waiter_live(e.waiter)) continue;
      *e.slot = std::move(value);
      const bool claimed = engine_->fire(e.waiter);
      GCR_ASSERT(claimed);
      (void)claimed;
      return;
    }
    items_.push_back(std::move(value));
  }

  /// Removes all queued values (used when a rank is torn down).
  void clear() { items_.clear(); }

  /// Snapshot access for checkpointing the queue contents.
  const std::deque<T>& items() const { return items_; }

  /// co_await channel.pop() -> T. Suspends until a value is available;
  /// FIFO among waiters. A waiter killed while suspended unwinds with
  /// ProcessKilled and its stale queue entry is skipped by later pushes.
  auto pop() {
    struct Awaiter {
      Channel* channel;
      T value{};
      bool immediate = false;
      WaiterHandle waiter;

      bool await_ready() {
        if (!channel->items_.empty() && channel->waiters_.empty()) {
          value = std::move(channel->items_.front());
          channel->items_.pop_front();
          immediate = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        waiter = channel->engine_->suspend_current(h);
        channel->waiters_.push_back({waiter, &value});
      }
      T await_resume() {
        if (!immediate) channel->engine_->finish_wait(waiter);
        return std::move(value);
      }
    };
    return Awaiter{this, {}, false, {}};
  }

 private:
  struct Entry {
    WaiterHandle waiter;
    T* slot;
  };

  Engine* engine_;
  std::deque<T> items_;
  std::deque<Entry> waiters_;
};

}  // namespace gcr::sim
