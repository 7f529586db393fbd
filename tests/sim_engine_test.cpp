// Engine fundamentals: event ordering, coroutine scheduling, process
// lifecycle, kill semantics, and the timing wheel's cascade boundaries
// (level edges, beyond-span overflow, cancel after cascade, buckets).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/channel.hpp"
#include "sim/co.hpp"
#include "sim/engine.hpp"

namespace gcr::sim {
namespace {

TEST(Engine, CallbacksRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.call_at(30_ms, [&] { order.push_back(3); });
  eng.call_at(10_ms, [&] { order.push_back(1); });
  eng.call_at(20_ms, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30_ms);
}

TEST(Engine, SameTimeCallbacksRunFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.call_at(5_ms, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine eng;
  int fired = 0;
  eng.call_at(10_ms, [&] { ++fired; });
  eng.call_at(20_ms, [&] { ++fired; });
  eng.run(10_ms);
  EXPECT_EQ(fired, 1);
  eng.run();
  EXPECT_EQ(fired, 2);
}

// Clock-advance rule regression (see Engine::run): `until` landing exactly
// on a queued event's timestamp executes every event at that timestamp and
// leaves the clock there; a finite `until` past the last event advances the
// clock to `until`; bare run() never advances past the last event.
TEST(Engine, RunUntilLandsExactlyOnEventTimestamp) {
  Engine eng;
  std::vector<int> fired;
  eng.call_at(10_ms, [&] { fired.push_back(1); });
  eng.call_at(10_ms, [&] { fired.push_back(2); });
  eng.call_at(20_ms, [&] { fired.push_back(3); });
  eng.run(10_ms);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));  // both events AT the boundary
  EXPECT_EQ(eng.now(), 10_ms);                 // clock sits on the boundary
  EXPECT_FALSE(eng.idle());                    // the 20ms event remains
  eng.run(15_ms);                              // no events in (10, 15]
  EXPECT_EQ(eng.now(), 10_ms);  // events remain -> clock does not advance
  eng.run(20_ms);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 20_ms);
  eng.run(30_ms);  // queue drained + finite until -> clock advances
  EXPECT_EQ(eng.now(), 30_ms);
  eng.run();  // bare run() on an empty queue leaves the clock alone
  EXPECT_EQ(eng.now(), 30_ms);
}

TEST(Engine, RunWhilePredicateStops) {
  Engine eng;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) {
    eng.call_at(i * 1_ms, [&] { ++fired; });
  }
  eng.run_while([&] { return fired < 3; });
  EXPECT_EQ(fired, 3);
}

Co<void> delayer(Engine& eng, Time dt, int* out) {
  co_await delay(eng, dt);
  *out = 1;
}

TEST(Engine, SpawnedProcessRunsAndFinishes) {
  Engine eng;
  int done = 0;
  ProcPtr p = eng.spawn("p", delayer(eng, 5_ms, &done));
  EXPECT_EQ(eng.live_process_count(), 1u);
  EXPECT_TRUE(p->alive());
  eng.run();
  EXPECT_EQ(done, 1);
  EXPECT_FALSE(p->alive());
  EXPECT_FALSE(p->killed());
  EXPECT_EQ(eng.live_process_count(), 0u);
  EXPECT_EQ(eng.now(), 5_ms);
}

Co<void> nested_inner(Engine& eng, std::vector<int>* log) {
  log->push_back(1);
  co_await delay(eng, 1_ms);
  log->push_back(2);
}

Co<void> nested_outer(Engine& eng, std::vector<int>* log) {
  log->push_back(0);
  co_await nested_inner(eng, log);
  log->push_back(3);
  co_await delay(eng, 1_ms);
  log->push_back(4);
}

TEST(Engine, NestedCoroutinesPropagate) {
  Engine eng;
  std::vector<int> log;
  eng.spawn("outer", nested_outer(eng, &log));
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(eng.now(), 2_ms);
}

struct RaiiProbe {
  bool* flag;
  explicit RaiiProbe(bool* f) : flag(f) {}
  ~RaiiProbe() { *flag = true; }
};

Co<void> sleeper_with_raii(Engine& eng, bool* destroyed) {
  RaiiProbe probe(destroyed);
  co_await delay(eng, 1000_s);
  ADD_FAILURE() << "should have been killed";
}

TEST(Engine, KillUnwindsRaiiAndReportsKilled) {
  Engine eng;
  bool destroyed = false;
  auto p = eng.spawn("victim", sleeper_with_raii(eng, &destroyed));
  eng.call_at(3_ms, [&] { eng.kill(*p); });
  eng.run(10_ms);
  EXPECT_TRUE(destroyed);
  EXPECT_TRUE(p->killed());
  EXPECT_FALSE(p->alive());
  EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(Engine, KillBeforeStartNeverRunsBody) {
  Engine eng;
  int ran = 0;
  auto body = [](Engine& e, int* r) -> Co<void> {
    *r = 1;
    co_await delay(e, 1_ms);
  };
  // Spawn and kill within the same callback, before the start event runs.
  ProcPtr p;
  eng.call_at(1_ms, [&] {
    p = eng.spawn("never", body(eng, &ran));
    eng.kill(*p);
  });
  eng.run();
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(p->killed());
  EXPECT_FALSE(p->alive());
  EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(Engine, KillIsIdempotent) {
  Engine eng;
  bool destroyed = false;
  auto p = eng.spawn("victim", sleeper_with_raii(eng, &destroyed));
  eng.call_at(1_ms, [&] {
    eng.kill(*p);
    eng.kill(*p);
  });
  eng.call_at(2_ms, [&] { eng.kill(*p); });
  eng.run(10_ms);
  EXPECT_TRUE(destroyed);
  EXPECT_TRUE(p->killed());
  // The root driver exited once: a second exit would underflow the count.
  EXPECT_EQ(eng.live_process_count(), 0u);
}

Co<void> chan_consumer(Engine& eng, Channel<int>& ch, std::vector<int>* got,
                       int count) {
  (void)eng;
  for (int i = 0; i < count; ++i) {
    got->push_back(co_await ch.pop());
  }
}

TEST(Engine, KilledChannelWaiterDoesNotConsume) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> got_a;
  std::vector<int> got_b;
  auto a = eng.spawn("a", chan_consumer(eng, ch, &got_a, 1));
  eng.call_at(1_ms, [&] { eng.kill(*a); });
  eng.call_at(2_ms, [&] {
    eng.spawn("b", chan_consumer(eng, ch, &got_b, 1));
  });
  eng.call_at(3_ms, [&] { ch.push(42); });
  eng.run();
  EXPECT_TRUE(got_a.empty());
  EXPECT_EQ(got_b, (std::vector<int>{42}));
}

TEST(Engine, DeterministicEventCounts) {
  auto run_once = [] {
    Engine eng;
    Channel<int> ch(eng);
    std::vector<int> got;
    eng.spawn("c", chan_consumer(eng, ch, &got, 3));
    for (int i = 0; i < 3; ++i) {
      eng.call_at((i + 1) * 1_ms, [&ch, i] { ch.push(i); });
    }
    eng.run();
    return eng.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel
// ---------------------------------------------------------------------------

TEST(TimingWheel, CascadeBoundaryOffsets) {
  // Offsets straddling every level edge (6 bits per level): the last slot
  // of a level, the first slot of the next, and one past it — scheduled in
  // scrambled order so dispatch order is purely the wheel's doing.
  const std::vector<Time> offsets = {
      4096, 1,      63,     64,    65,     4095,   4097,   262143,
      262144, 262145, 16777215, 16777216, 2, 100000, 524288, 3};
  Engine eng;
  std::vector<Time> fired;
  for (const Time t : offsets) {
    eng.call_at(t, [&eng, &fired] { fired.push_back(eng.now()); });
  }
  eng.run();
  std::vector<Time> want = offsets;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(fired, want);
}

TEST(TimingWheel, SameSlotPreservesInsertionOrder) {
  // Two callbacks at the same instant dispatch in scheduling order (seq),
  // including after their bucket has cascaded down a level.
  Engine eng;
  std::vector<int> order;
  eng.call_at(70'000, [&order] { order.push_back(1); });
  eng.call_at(70'000, [&order] { order.push_back(2); });
  // 69'700 shares level-2 slot 17 with 70'000, so the slot holds two
  // buckets and must cascade before either can dispatch.
  eng.call_at(69'700, [&order] { order.push_back(0); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_GT(eng.wheel_relinks(), 0u);
}

TEST(TimingWheel, CascadeRelinksOneBucketPerInstant) {
  // 128 lockstep events form one bucket: the cascade that splits level-2
  // slot 17 moves two buckets (70'000 and 69'700), not 129 events, and
  // each bucket is then alone in its level-1 slot, so dispatch takes it in
  // place without cascading again.
  Engine eng;
  int ran = 0;
  for (int i = 0; i < 128; ++i) eng.call_at(70'000, [&ran] { ++ran; });
  eng.call_at(69'700, [&ran] { ++ran; });
  eng.run();
  EXPECT_EQ(ran, 129);
  EXPECT_EQ(eng.wheel_relinks(), 2u);
}

TEST(TimingWheel, FarFutureOverflowBeyondWheelSpan) {
  // Anything past the wheel's 2^48 ns span lands in the overflow heap and
  // still dispatches in exact (time, seq) order.
  Engine eng;
  const Time beyond = (Time{1} << 48) + 12'345;
  std::vector<Time> fired;
  eng.call_at(beyond, [&eng, &fired] { fired.push_back(eng.now()); });
  eng.call_at(500, [&eng, &fired] { fired.push_back(eng.now()); });
  eng.call_at(beyond + 1, [&eng, &fired] { fired.push_back(eng.now()); });
  eng.run();
  EXPECT_EQ(fired, (std::vector<Time>{500, beyond, beyond + 1}));
}

TEST(TimingWheel, CancelAfterCascade) {
  // A far-future timer whose node has already cascaded toward level 0 is
  // abandoned when its process is killed first: the stale wheel entry must
  // dispatch as a no-op instead of resuming the dead coroutine.
  Engine eng;
  bool resumed_normally = false;
  auto body = [](Engine& e, bool* flag) -> Co<void> {
    co_await delay(e, 70'000);
    *flag = true;
  };
  ProcPtr proc = eng.spawn("sleeper", body(eng, &resumed_normally));
  // 69'700 shares the timer's level-2 slot: reaching it cascades the slot,
  // dragging the cursor (and the 70'000 timer) down a level before the
  // kill lands.
  eng.call_at(69'700, [&eng, proc] { eng.kill(*proc); });
  eng.run();
  EXPECT_FALSE(resumed_normally);
  EXPECT_TRUE(proc->killed());
  EXPECT_FALSE(proc->alive());
  EXPECT_TRUE(eng.idle());
  EXPECT_GT(eng.wheel_relinks(), 0u);
}

}  // namespace
}  // namespace gcr::sim
