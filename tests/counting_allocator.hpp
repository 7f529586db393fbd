// Counting replacement of the global allocator for the tests that enforce
// "no heap traffic on a warm path" by measurement instead of by comment.
//
// Include from exactly one TU of a test binary (every tests/*.cpp builds its
// own binary). Every replaceable new/delete form that malloc/free can serve
// is replaced as a set — the std::nothrow_t overloads included, which the
// standard library uses for temporary buffers (std::stable_sort). Replacing
// only the throwing forms would let a sanitizer runtime's nothrow new hand
// its block to this file's free(), which ASan reports as an
// alloc-dealloc mismatch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

/// Global operator new calls so far, every form counted.
inline std::atomic<std::size_t> g_allocs{0};
/// Bytes those calls asked for.
inline std::atomic<std::size_t> g_alloc_bytes{0};

/// Counts one allocation of `n` bytes and serves it from malloc.
inline void* counted_malloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n);
}

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
// noinline: once a counting operator new is not inlined at a call site, an
// inlined delete shows GCC a free() of that new's block, which
// -Wmismatched-new-delete reports.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
