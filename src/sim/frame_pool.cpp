#include "sim/frame_pool.hpp"

namespace gcr::sim::frame_pool {
namespace {

/// Releases the owning thread's free lists when the thread exits.
struct ThreadExit {
  ~ThreadExit() {
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      FreeBlock* b = t_lists.head[cls];
      while (b != nullptr) {
        ASAN_UNPOISON_MEMORY_REGION(b, class_bytes(cls));
        FreeBlock* next = b->next;
        ::operator delete(b, class_bytes(cls));
        b = next;
      }
      t_lists.head[cls] = nullptr;
    }
    t_lists.state = ThreadLists::kRetired;
  }
};

}  // namespace

void arm_thread_exit() {
  // Reaching the declaration registers the destructor for this thread.
  static thread_local ThreadExit exit_hook;
  t_lists.state = ThreadLists::kArmed;
}

}  // namespace gcr::sim::frame_pool
