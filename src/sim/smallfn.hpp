// SmallFn: move-only callable stored in a fixed inline buffer, the payload
// type of the engine's typed event queue.
//
// Every callable lives in the 112-byte inline buffer (one SmallFn is two
// cache lines): timer lambdas, fabric thunks capturing a couple of
// pointers, and the MiniMPI delivery thunk carrying a whole mpi::Message.
// A callable that does not fit is a compile error, so enqueueing a callback
// never touches the heap. Unlike std::function it needs no copyability.
// Relocation (vector growth, pool reuse) is a flat function-pointer call on
// a 3-entry ops table.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace gcr::sim {

class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 112;

  SmallFn() = default;

  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, SmallFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at call_at/post call sites
    static_assert(fits_inline<D>(),
                  "SmallFn callables must be nothrow-movable and fit "
                  "kInlineBytes; capture a pointer to larger state");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* obj);
    /// Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* obj) noexcept;
  };

  template <class D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <class D>
  static D* as(void* obj) {
    return std::launder(static_cast<D*>(obj));
  }

  template <class D>
  static constexpr Ops kOps = {
      [](void* obj) { (*as<D>(obj))(); },
      [](void* dst, void* src) noexcept {
        D* s = as<D>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* obj) noexcept { as<D>(obj)->~D(); },
  };

  void move_from(SmallFn& other) noexcept {
    if (other.ops_) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
  }

  void reset() noexcept {
    if (ops_) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace gcr::sim
