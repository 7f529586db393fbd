// Co<T>: lazy child coroutine with symmetric transfer back to the awaiting
// parent. All simulated process code is written as `Co<...>` functions and
// composed with `co_await`.
//
// Semantics:
//  * Lazily started: the child begins executing when the parent co_awaits it.
//  * The Co object owns the child frame; destroying an un-awaited or
//    partially-run Co destroys the frame (this is what unwinds nested calls
//    when a process is killed).
//  * Exceptions propagate to the awaiting parent. `ProcessKilled` is thrown
//    by the engine when a killed process resumes and unwinds the whole chain.
//  * A coroutine chain is pinned to the shard (Engine) it was spawned on;
//    resumption always comes from that engine's dispatch loop, never from
//    another shard's thread (sim/shard.hpp).
//  * Frames come from the per-thread frame pool (sim/frame_pool.hpp), so a
//    warm call chain allocates nothing.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/frame_pool.hpp"
#include "util/assert.hpp"

namespace gcr::sim {

/// Thrown into a process coroutine at its next resumption after kill().
/// Deliberately not derived from std::exception so generic `catch
/// (std::exception&)` blocks in application code cannot swallow it.
struct ProcessKilled {};

template <class T = void>
class [[nodiscard]] Co;

namespace detail {

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  template <class Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto continuation = h.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

struct CoPromiseBase {
  std::coroutine_handle<> continuation = nullptr;
  std::exception_ptr error;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }

  static void* operator new(std::size_t bytes) {
    return frame_pool::allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    frame_pool::deallocate(frame, bytes);
  }
};

}  // namespace detail

template <class T>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::CoPromiseBase {
    alignas(T) unsigned char value_buf[sizeof(T)];
    bool has_value = false;

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <class U>
    void return_value(U&& v) {
      ::new (static_cast<void*>(value_buf)) T(std::forward<U>(v));
      has_value = true;
    }
    ~promise_type() {
      if (has_value) value_ptr()->~T();
    }
    T* value_ptr() { return std::launder(reinterpret_cast<T*>(value_buf)); }
  };

  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Co() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    GCR_ASSERT(handle_ && !handle_.done());
    handle_.promise().continuation = parent;
    return handle_;  // start the child now
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.error) std::rethrow_exception(p.error);
    GCR_ASSERT(p.has_value);
    return std::move(*p.value_ptr());
  }

 private:
  friend struct promise_type;
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
};

template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : detail::CoPromiseBase {
    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Co() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    GCR_ASSERT(handle_ && !handle_.done());
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    auto& p = handle_.promise();
    if (p.error) std::rethrow_exception(p.error);
  }

 private:
  friend struct promise_type;
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
};

}  // namespace gcr::sim
