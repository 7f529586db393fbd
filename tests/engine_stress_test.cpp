// Stress and invariants for the typed-event engine core: interleaved timer
// storms, same-timestamp bursts, kill-while-queued, pooled waiter-slot
// recycling, allocation-free steady state, and run-to-run determinism.
//
// This TU replaces the global allocator with a counting shim
// (counting_allocator.hpp) so the zero-allocation acceptance criterion ("no
// heap traffic per steady-state timer event or suspension") is enforced by a
// test, not a claim.
#include <gtest/gtest.h>

#include <vector>

#include "apps/simple.hpp"
#include "counting_allocator.hpp"
#include "exp/experiment.hpp"
#include "sim/awaitables.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace gcr::sim {
namespace {

Co<void> periodic(Engine& eng, Time dt, int rounds, std::vector<Time>* log) {
  for (int i = 0; i < rounds; ++i) {
    co_await delay(eng, dt);
    if (log) log->push_back(eng.now());
  }
}

TEST(EngineStress, TenThousandInterleavedTimers) {
  Engine eng;
  // 10k timers from two sources — callbacks and coroutine delays — with
  // colliding periods, so the queue constantly interleaves kinds and times.
  std::vector<Time> cb_times;
  int cb_fired = 0;
  for (int i = 0; i < 5000; ++i) {
    eng.call_at((i % 97) * 1'000 + i / 97, [&, i] {
      ++cb_fired;
      cb_times.push_back(eng.now());
      (void)i;
    });
  }
  std::vector<Time> co_times;
  for (int p = 0; p < 50; ++p) {
    eng.spawn("p", periodic(eng, 1 + p % 7, 100, &co_times));
  }
  eng.run();
  EXPECT_EQ(cb_fired, 5000);
  EXPECT_EQ(co_times.size(), 5000u);
  // Dispatch must be time-monotone within each observer.
  for (std::size_t i = 1; i < cb_times.size(); ++i) {
    EXPECT_LE(cb_times[i - 1], cb_times[i]);
  }
  for (std::size_t i = 1; i < co_times.size(); ++i) {
    EXPECT_LE(co_times[i - 1], co_times[i]);
  }
  EXPECT_TRUE(eng.idle());
  EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(EngineStress, SameTimestampStormIsFifo) {
  Engine eng;
  // 2000 callbacks at one timestamp interleaved with trigger resumes that
  // were armed earlier — everything lands at 5ms and must run in insertion
  // sequence order.
  std::vector<int> order;
  Trigger t(eng);
  auto waiterproc = [](Trigger& tr, std::vector<int>* ord, int id) -> Co<void> {
    co_await tr.wait();
    ord->push_back(id);
  };
  for (int i = 0; i < 1000; ++i) eng.spawn("w", waiterproc(t, &order, i));
  eng.call_at(5_ms, [&] { t.fire(); });  // resumes enqueue FIFO at 5ms
  for (int i = 1000; i < 2000; ++i) {
    eng.call_at(5_ms, [&order, i] { order.push_back(i); });
  }
  eng.run();
  ASSERT_EQ(order.size(), 2000u);
  // The trigger fires first (earlier seq), releasing waiters 0..999 in
  // registration order; the plain callbacks 1000..1999 follow — but the
  // waiter resumes were enqueued AFTER the callbacks were inserted, so the
  // callbacks run first, then the resumes.
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], 1000 + i);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(1000 + i)], i);
  }
}

TEST(EngineStress, KillWhileQueuedRecyclesCleanly) {
  Engine eng;
  // Waves of processes sleeping on armed timers; every other one is killed
  // while its timer event is still queued. Survivors must be unaffected and
  // the cancelled waiter slots must be reused, not abandoned.
  int finished = 0;
  int killed = 0;
  for (int wave = 0; wave < 100; ++wave) {
    eng.call_at(wave * 1_ms, [&] {
      std::vector<ProcPtr> procs;
      for (int i = 0; i < 20; ++i) {
        procs.push_back(eng.spawn(
            "v", periodic(eng, 10_us, 5, nullptr), [&](Proc&, ExitKind k) {
              (k == ExitKind::kKilled ? killed : finished) += 1;
            }));
      }
      for (std::size_t i = 0; i < procs.size(); i += 2) eng.kill(*procs[i]);
    });
  }
  eng.run();
  EXPECT_EQ(finished, 1000);
  EXPECT_EQ(killed, 1000);
  EXPECT_EQ(eng.live_process_count(), 0u);
  // 20 concurrent procs per wave (plus bookkeeping slack) bound the pool:
  // cancelled slots from wave N must be recycled by wave N+1.
  EXPECT_LE(eng.waiter_pool_size(), 64u);
}

TEST(EngineStress, CancelledWaitersReusePooledSlots) {
  Engine eng;
  // One process repeatedly arms a trigger wait that a callback claims, so
  // every round cancels nothing but recycles the slot; pool stays flat.
  Trigger t(eng);
  auto loop = [](Engine& e, Trigger& tr, int rounds) -> Co<void> {
    for (int i = 0; i < rounds; ++i) {
      co_await tr.wait();
      tr.reset();
      co_await delay(e, 1_us);
    }
  };
  eng.spawn("looper", loop(eng, t, 10000));
  for (int i = 0; i < 10000; ++i) {
    eng.call_at(i * 2_us, [&t] { t.fire(); });
  }
  eng.run();
  EXPECT_LE(eng.waiter_pool_size(), 8u);
}

Co<void> await_trigger(Trigger& t, int* woken) {
  co_await t.wait();
  ++*woken;
}

// The acceptance criterion for the typed-event refactor: once pools and the
// heap are warm (Engine::reserve), a steady-state timer tick (suspend +
// fire_at + dispatch + resume) performs zero heap allocations — including
// a same-timestamp broadcast burst wider than the due ring's initial size,
// which must come out of the reserve()d ring, not a mid-run regrow.
TEST(EngineStress, SteadyStateTimerPathIsAllocationFree) {
  Engine eng;
  eng.reserve(4096, 512);
  for (int p = 0; p < 100; ++p) {
    eng.spawn("t", periodic(eng, 1 + p % 7, 2000, nullptr));
  }
  Trigger gate(eng);
  int woken = 0;
  for (int p = 0; p < 200; ++p) {
    eng.spawn("g", await_trigger(gate, &woken));
  }
  eng.call_at(2000, [&gate] { gate.fire(); });  // 200 same-time resumes
  eng.run(500);  // warm-up: pools sized, vectors at steady capacity
  const std::uint64_t before_events = eng.events_processed();
  const std::size_t before_allocs = g_allocs;
  eng.run(4000);  // steady state: tens of thousands of timer events
  const std::size_t delta_allocs = g_allocs - before_allocs;
  const std::uint64_t delta_events = eng.events_processed() - before_events;
  EXPECT_GT(delta_events, 10000u);
  EXPECT_EQ(delta_allocs, 0u);
  EXPECT_EQ(woken, 200);
  eng.run();
}

Co<void> chatter(Engine& eng, Channel<int>& in, Channel<int>& out, Rng* rng,
                 int rounds) {
  for (int i = 0; i < rounds; ++i) {
    out.push(i);
    (void)co_await in.pop();
    co_await delay(eng, 1 + static_cast<Time>(rng->next_below(50)));
  }
}

std::uint64_t stress_run(std::vector<std::pair<Time, std::uint64_t>>* log) {
  Engine eng;
  Rng rng(1234);
  Channel<int> a(eng), b(eng);
  eng.spawn("x", chatter(eng, a, b, &rng, 500));
  eng.spawn("y", chatter(eng, b, a, &rng, 500));
  std::vector<ProcPtr> victims;
  for (int i = 0; i < 50; ++i) {
    victims.push_back(eng.spawn("v", periodic(eng, 3, 1000, nullptr)));
  }
  for (int i = 0; i < 50; ++i) {
    eng.call_at(10 + i * 7, [&eng, &victims, i] { eng.kill(*victims[static_cast<size_t>(i)]); });
  }
  eng.call_at(100, [&] {
    if (log) log->push_back({eng.now(), eng.events_processed()});
  });
  eng.run();
  if (log) log->push_back({eng.now(), eng.events_processed()});
  return eng.events_processed();
}

TEST(EngineStress, DeterministicAcrossRuns) {
  std::vector<std::pair<Time, std::uint64_t>> log1, log2;
  const std::uint64_t e1 = stress_run(&log1);
  const std::uint64_t e2 = stress_run(&log2);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(log1, log2);
}

}  // namespace
}  // namespace gcr::sim

namespace gcr {
namespace {

// Full-stack determinism: the same seed must produce an identical
// communication trace through the MPI runtime, network, and jitter models.
TEST(EngineStress, TraceOutputDeterministicAcrossRuns) {
  auto app = [](int nr) {
    apps::RingParams p;
    p.iterations = 10;
    p.compute_s = 0.0005;
    return apps::make_ring(nr, p);
  };
  const trace::Trace t1 = exp::profile_app(app, 8, /*seed=*/7);
  const trace::Trace t2 = exp::profile_app(app, 8, /*seed=*/7);
  ASSERT_EQ(t1.size(), t2.size());
  EXPECT_GT(t1.size(), 0u);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].time, t2[i].time);
    EXPECT_EQ(t1[i].kind, t2[i].kind);
    EXPECT_EQ(t1[i].rank, t2[i].rank);
    EXPECT_EQ(t1[i].peer, t2[i].peer);
    EXPECT_EQ(t1[i].tag, t2[i].tag);
    EXPECT_EQ(t1[i].bytes, t2[i].bytes);
  }
}

}  // namespace
}  // namespace gcr
