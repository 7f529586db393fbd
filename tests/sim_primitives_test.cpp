// Awaitable primitives: Delay, Trigger, Semaphore edge cases.
#include <gtest/gtest.h>

#include <vector>

#include "sim/awaitables.hpp"
#include "sim/engine.hpp"

namespace gcr::sim {
namespace {

Co<void> delay_then_mark(Engine& eng, Time dt, std::vector<int>* log,
                         int mark) {
  co_await delay(eng, dt);
  log->push_back(mark);
}

TEST(Delay, ZeroStillYieldsThroughQueue) {
  // dt == 0 is a fairness point: the resumption goes through the event
  // queue, so same-time work scheduled earlier runs first.
  Engine eng;
  std::vector<int> log;
  eng.spawn(delay_then_mark(eng, 0, &log, 1));
  eng.call_at(0, [&] { log.push_back(0); });
  eng.run();
  // The spawn's start event runs, suspends on delay(0); the callback
  // (scheduled before the zero-delay resume) runs next; the mark last.
  EXPECT_EQ(log, (std::vector<int>{0, 1}));
  EXPECT_EQ(eng.now(), 0);
}

TEST(Delay, OneTickBoundaryOrdersAfterZero) {
  Engine eng;
  std::vector<int> log;
  eng.spawn(delay_then_mark(eng, 1, &log, 1));
  eng.spawn(delay_then_mark(eng, 0, &log, 0));
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1}));  // 0-tick before 1-tick
  EXPECT_EQ(eng.now(), 1);
}

TEST(DelayDeathTest, NegativeDurationAborts) {
  Engine eng;
  EXPECT_DEATH({ Delay bad(eng, -1); }, "negative Delay duration");
}

Co<void> wait_trigger(Trigger& t, int* out) {
  co_await t.wait();
  *out += 1;
}

TEST(Trigger, BroadcastsToAllWaiters) {
  Engine eng;
  Trigger t(eng);
  int woken = 0;
  for (int i = 0; i < 5; ++i) eng.spawn(wait_trigger(t, &woken));
  eng.call_at(1_ms, [&] { t.fire(); });
  eng.run();
  EXPECT_EQ(woken, 5);
}

TEST(Trigger, AlreadyFiredReturnsImmediately) {
  Engine eng;
  Trigger t(eng);
  t.fire();
  int woken = 0;
  eng.spawn(wait_trigger(t, &woken));
  eng.run();
  EXPECT_EQ(woken, 1);
}

TEST(Trigger, ResetReArms) {
  Engine eng;
  Trigger t(eng);
  t.fire();
  t.reset();
  int woken = 0;
  eng.spawn(wait_trigger(t, &woken));
  eng.run();
  EXPECT_EQ(woken, 0);  // still suspended
  t.fire();
  eng.run();
  EXPECT_EQ(woken, 1);
}

Co<void> hold_resource(Engine& eng, Semaphore& sem, Time hold,
                       std::vector<int>* order, int id) {
  co_await sem.acquire();
  ScopedPermit permit(sem);
  order->push_back(id);
  co_await delay(eng, hold);
}

TEST(Semaphore, SerializesFifo) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn(hold_resource(eng, sem, 10_ms, &order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(eng.now(), 40_ms);  // fully serialized
  EXPECT_EQ(sem.available(), 1);
}

TEST(Semaphore, MultiplePermitsOverlap) {
  Engine eng;
  Semaphore sem(eng, 2);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn(hold_resource(eng, sem, 10_ms, &order, i));
  }
  eng.run();
  EXPECT_EQ(eng.now(), 20_ms);  // two at a time
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, KilledHolderReleasesPermit) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  auto victim = eng.spawn(hold_resource(eng, sem, 1000_s, &order, 0));
  eng.spawn(hold_resource(eng, sem, 10_ms, &order, 1));
  eng.call_at(5_ms, [&] { eng.kill(*victim); });
  eng.run(1_s);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));  // 1 ran after the kill
  EXPECT_EQ(sem.available(), 1);
}

TEST(Semaphore, KilledQueuedWaiterSkipped) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  eng.spawn(hold_resource(eng, sem, 10_ms, &order, 0));
  auto queued = eng.spawn(hold_resource(eng, sem, 10_ms, &order, 1));
  eng.spawn(hold_resource(eng, sem, 10_ms, &order, 2));
  eng.call_at(1_ms, [&] { eng.kill(*queued); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sem.available(), 1);
}

}  // namespace
}  // namespace gcr::sim
