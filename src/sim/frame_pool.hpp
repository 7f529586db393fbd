// Coroutine frame pool: per-thread size-class free lists behind every
// sim::Co frame (sim/co.hpp), so a warm MiniMPI message path — a chain of
// short-lived Co calls per send/recv — costs no heap traffic.
//
// Frames are rounded up to 64-byte classes (64 B … 2 KiB). A freed block
// goes on the calling thread's list for its class and the next frame of
// that class on that thread takes it back; a frame larger than the largest
// class goes straight to ::operator new. Every pooled block itself comes
// from ::operator new at its class size, so it does not matter which
// thread frees it: a block allocated on one thread (a --jobs worker) and
// freed on another simply joins the second thread's list. A thread's lists are returned to ::operator delete when it exits.
//
// Free blocks are ASan-poisoned (a no-op in normal builds), so a resumed or
// destroyed dangling frame is still reported as a use-after-free.
#pragma once

#include <cstddef>
#include <new>

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace gcr::sim::frame_pool {

inline constexpr std::size_t kGranule = 64;
inline constexpr std::size_t kClasses = 32;
/// Largest pooled frame; anything bigger bypasses the pool.
inline constexpr std::size_t kMaxPooled = kGranule * kClasses;

struct FreeBlock {
  FreeBlock* next;
};

/// One thread's free lists. Trivially destructible and constant-initialized,
/// so it is still readable while thread-exit destructors run; `state` turns
/// kRetired once the thread's lists have been released (later frees from
/// that thread go straight to ::operator delete).
struct ThreadLists {
  enum State : unsigned char { kFresh, kArmed, kRetired };
  FreeBlock* head[kClasses];
  State state;
};

inline thread_local constinit ThreadLists t_lists{};

/// Registers the calling thread's exit hook that releases its lists
/// (frame_pool.cpp); runs once per thread, on its first pooled free.
void arm_thread_exit();

inline std::size_t class_of(std::size_t bytes) {
  return (bytes - 1) / kGranule;
}
inline std::size_t class_bytes(std::size_t cls) {
  return (cls + 1) * kGranule;
}

inline void* allocate(std::size_t bytes) {
  if (bytes > kMaxPooled) return ::operator new(bytes);
  const std::size_t cls = class_of(bytes);
  FreeBlock* b = t_lists.head[cls];
  if (b == nullptr) return ::operator new(class_bytes(cls));
  ASAN_UNPOISON_MEMORY_REGION(b, class_bytes(cls));
  t_lists.head[cls] = b->next;
  return b;
}

inline void deallocate(void* p, std::size_t bytes) noexcept {
  if (bytes > kMaxPooled) {
    ::operator delete(p, bytes);
    return;
  }
  const std::size_t cls = class_of(bytes);
  if (t_lists.state != ThreadLists::kArmed) [[unlikely]] {
    if (t_lists.state == ThreadLists::kRetired) {
      ::operator delete(p, class_bytes(cls));
      return;
    }
    arm_thread_exit();
  }
  FreeBlock* b = ::new (p) FreeBlock{t_lists.head[cls]};
  t_lists.head[cls] = b;
  ASAN_POISON_MEMORY_REGION(b, class_bytes(cls));
}

}  // namespace gcr::sim::frame_pool
