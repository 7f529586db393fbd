// Allocation-free MiniMPI message path (DESIGN.md §2, §3): once warm, a
// multi-rank send/recv/sendrecv/allreduce/broadcast loop through
// mpi::Runtime makes zero global operator new calls — with no protocol,
// and under GroupProtocol in NORM
// (one group, nothing logged) — as does a storm of control sends, and a
// freed coroutine frame's block is handed to the next frame of its size
// class. Under GP1, where every message is logged, the sender logs grow by
// at most 48 heap bytes per message.
//
// This TU replaces the global allocator with a counting shim
// (counting_allocator.hpp).
#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "ckpt/image.hpp"
#include "core/group_protocol.hpp"
#include "core/metrics.hpp"
#include "counting_allocator.hpp"
#include "group/strategies.hpp"
#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"
#include "sim/frame_pool.hpp"

namespace gcr::mpi {
namespace {

using sim::operator""_ms;

constexpr int kRanks = 6;
constexpr std::uint64_t kIterations = 4000;

/// The even ranks: a member list for the subset broadcast.
constexpr std::array<RankId, kRanks / 2> kEvenRanks = {0, 2, 4};

/// Ring shift (sendrecv) plus a blocking send/recv pair between partners,
/// an allreduce and a broadcast over the even ranks, with a compute step
/// and a safe point per iteration: every message-path shape an app uses —
/// buffered-then-matched, matched on arrival, a sender waiting out its NIC
/// egress, and both collectives.
sim::Co<void> chatter(AppHandle h) {
  const RankId me = h.id();
  const int n = h.nranks();
  const RankId right = (me + 1) % n;
  const RankId left = (me + n - 1) % n;
  const RankId partner = me ^ 1;
  for (std::uint64_t it = 0; it < kIterations; ++it) {
    co_await h.safepoint(it);
    co_await h.compute(1e-4);
    (void)co_await h.sendrecv(right, 1, 4096, left, 1);
    if (me % 2 == 0) {
      co_await h.send(partner, 2, 512);
      (void)co_await h.recv(partner, 3);
      co_await h.bcast(kEvenRanks, me / 2, static_cast<int>(it % 3), 1024, 4);
    } else {
      (void)co_await h.recv(partner, 2);
      co_await h.send(partner, 3, 512);
    }
    co_await h.allreduce(8);
  }
  co_await h.safepoint(kIterations);
}

sim::ClusterParams cluster_params() {
  sim::ClusterParams p;
  p.num_nodes = kRanks + 1;
  p.jitter.enabled = false;
  return p;
}

/// Runs until `warm`, then counts allocations and events up to `until`.
struct Window {
  std::size_t allocs;
  std::uint64_t events;
};
Window measure(sim::Engine& eng, sim::Time warm, sim::Time until) {
  eng.run(warm);
  const std::size_t allocs_before = g_allocs;
  const std::uint64_t events_before = eng.events_processed();
  eng.run(until);
  return {g_allocs - allocs_before, eng.events_processed() - events_before};
}

TEST(MpiAlloc, WarmMessagePathWithoutProtocolIsAllocationFree) {
  sim::Cluster cluster(cluster_params());
  Runtime rt(cluster, kRanks);
  rt.start_app(chatter);
  const Window w = measure(cluster.engine(), 50_ms, 150_ms);
  // The window must cover real traffic, not an idle engine.
  EXPECT_GT(w.events, 5000u);
  EXPECT_EQ(w.allocs, 0u);
  cluster.engine().run();
  EXPECT_TRUE(rt.job_finished());
}

TEST(MpiAlloc, WarmMessagePathUnderNormIsAllocationFree) {
  sim::Cluster cluster(cluster_params());
  Runtime rt(cluster, kRanks);
  ckpt::Checkpointer checkpointer(cluster);
  ckpt::ImageRegistry registry;
  core::Metrics metrics;
  core::GroupProtocol protocol(
      rt, group::make_norm(kRanks), checkpointer, registry,
      [](RankId) { return std::int64_t{1} << 20; }, metrics);
  rt.set_protocol(&protocol);
  rt.start_app(chatter);
  const Window w = measure(cluster.engine(), 50_ms, 150_ms);
  EXPECT_GT(w.events, 5000u);
  EXPECT_EQ(w.allocs, 0u);
  cluster.engine().run_while([&rt] { return !rt.job_finished(); });
  EXPECT_TRUE(rt.job_finished());
  EXPECT_EQ(metrics.logged_messages, 0);
}

TEST(MpiAlloc, WarmLoggedMessageTakesAtMost48HeapBytes) {
  // GP1 (one group per rank) logs every message, and nothing checkpoints,
  // so nothing is GC'd: once warm, the heap grows only by the sender logs,
  // which keep 40 bytes per message instead of a 104-byte mpi::Message
  // (DESIGN.md §4).
  sim::Cluster cluster(cluster_params());
  Runtime rt(cluster, kRanks);
  ckpt::Checkpointer checkpointer(cluster);
  ckpt::ImageRegistry registry;
  core::Metrics metrics;
  core::GroupProtocol protocol(
      rt, group::make_gp1(kRanks), checkpointer, registry,
      [](RankId) { return std::int64_t{1} << 20; }, metrics);
  rt.set_protocol(&protocol);
  rt.start_app(chatter);
  sim::Engine& eng = cluster.engine();
  eng.run(50_ms);
  const std::size_t bytes_before = g_alloc_bytes;
  const std::int64_t logged_before = metrics.logged_messages;
  eng.run(150_ms);
  const std::size_t bytes = g_alloc_bytes - bytes_before;
  const std::int64_t logged = metrics.logged_messages - logged_before;
  EXPECT_GT(logged, 1000);
  EXPECT_LE(bytes, 48 * static_cast<std::size_t>(logged))
      << bytes << " heap bytes for " << logged << " logged messages";
  eng.run_while([&rt] { return !rt.job_finished(); });
  EXPECT_TRUE(rt.job_finished());
}

/// Counts the control messages each rank's protocol hook receives; never
/// delays or suppresses a send.
struct CtrlCounter final : Interposer {
  sim::Co<bool> before_send(Rank& rank, Message& msg) override {
    (void)rank;
    (void)msg;
    co_return true;
  }
  void on_deliver(Rank& rank, const Message& msg) override {
    if (msg.is_ctrl()) ++ctrl[static_cast<std::size_t>(rank.id())];
  }
  sim::Co<void> at_safepoint(Rank& rank) override {
    (void)rank;
    co_return;
  }
  void rank_started(Rank& rank) override { (void)rank; }
  std::vector<int> ctrl = std::vector<int>(kRanks, 0);
};

TEST(MpiAlloc, WarmControlSendsAreAllocationFree) {
  // A bookmark storm (every rank to every other) through send_ctrl: the
  // payload is inline, so once the engine's event storage is warm neither
  // the message nor the delivery thunk's copy of it allocates.
  sim::Cluster cluster(cluster_params());
  Runtime rt(cluster, kRanks);
  CtrlCounter counter;
  rt.set_protocol(&counter);
  Message bookmark;
  bookmark.ctrl = CtrlKind::kBookmark;
  const auto storm = [&](std::int64_t epoch) {
    for (RankId src = 0; src < kRanks; ++src) {
      for (RankId dst = 0; dst < kRanks; ++dst) {
        if (src == dst) continue;
        bookmark.ctrl_data = {epoch, rt.rank(src).sent_to(dst).bytes};
        rt.send_ctrl(src, dst, bookmark);
      }
    }
  };
  storm(1);
  cluster.engine().run();
  const std::size_t before = g_allocs;
  storm(2);
  EXPECT_EQ(g_allocs - before, 0u);
  cluster.engine().run();
  EXPECT_EQ(counter.ctrl[1], 2 * (kRanks - 1));
}

/// Completes without suspending and yields its own frame's address.
struct FrameAddress {
  void* frame = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    frame = h.address();
    return false;  // resume at once
  }
  void* await_resume() const noexcept { return frame; }
};

// noinline keeps the frame a real pool allocation (no heap elision into
// the caller's frame).
[[gnu::noinline]] sim::Co<void*> frame_address() {
  co_return co_await FrameAddress{};
}

sim::Co<void> two_frames(void** first, void** second, std::size_t* allocs) {
  *first = co_await frame_address();  // the child frame dies here
  const std::size_t before = g_allocs;
  *second = co_await frame_address();
  *allocs = g_allocs - before;
}

TEST(MpiAlloc, FreedFrameIsReusedByNextFrameOfItsClass) {
  sim::Engine eng;
  void* first = nullptr;
  void* second = nullptr;
  std::size_t allocs = 1;
  eng.spawn(two_frames(&first, &second, &allocs));
  eng.run();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);
  EXPECT_EQ(allocs, 0u);
}

TEST(MpiAlloc, PoolServesSizeClassesLifoAndPassesLargeFramesThrough) {
  namespace fp = sim::frame_pool;
  // 130 and 190 bytes share the 192-byte class; 200 does not.
  void* a = fp::allocate(190);
  fp::deallocate(a, 190);
  const std::size_t before = g_allocs;
  void* b = fp::allocate(130);
  EXPECT_EQ(a, b);
  EXPECT_EQ(g_allocs - before, 0u);
  void* c = fp::allocate(200);
  EXPECT_NE(c, a);
  fp::deallocate(c, 200);
  fp::deallocate(b, 130);
  // Beyond the largest class every frame is a plain operator new.
  const std::size_t big_before = g_allocs;
  void* big = fp::allocate(fp::kMaxPooled + 1);
  fp::deallocate(big, fp::kMaxPooled + 1);
  void* big2 = fp::allocate(fp::kMaxPooled + 1);
  fp::deallocate(big2, fp::kMaxPooled + 1);
  EXPECT_EQ(g_allocs - big_before, 2u);
}

}  // namespace
}  // namespace gcr::mpi
