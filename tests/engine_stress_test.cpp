// Stress and invariants for the typed-event engine core: interleaved timer
// storms, same-timestamp bursts, kill-while-queued, pooled waiter-slot
// recycling, allocation-free steady state, run-to-run determinism, and a
// differential check of dispatch order against a (time, seq) reference
// model.
//
// This TU replaces the global allocator with a counting shim
// (counting_allocator.hpp) so the zero-allocation acceptance criterion ("no
// heap traffic per steady-state timer event or suspension") is enforced by a
// test, not a claim.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
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
  std::vector<ProcPtr> all;
  for (int wave = 0; wave < 100; ++wave) {
    eng.call_at(wave * 1_ms, [&] {
      std::vector<ProcPtr> procs;
      for (int i = 0; i < 20; ++i) {
        procs.push_back(eng.spawn("v", periodic(eng, 10_us, 5, nullptr)));
      }
      for (std::size_t i = 0; i < procs.size(); i += 2) eng.kill(*procs[i]);
      all.insert(all.end(), procs.begin(), procs.end());
    });
  }
  eng.run();
  int finished = 0;
  int killed = 0;
  for (const ProcPtr& p : all) {
    EXPECT_FALSE(p->alive());
    (p->killed() ? killed : finished) += 1;
  }
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

// Lockstep ranks: every instant carries the whole population as one wheel
// bucket. Handing it to the due ring and parking the next round's timers
// must not touch the allocator once the pools are warm.
TEST(EngineStress, WarmLockstepLoopIsAllocationFree) {
  Engine eng;
  eng.reserve(256, 256);
  for (int p = 0; p < 128; ++p) {
    eng.spawn("l", periodic(eng, 10_us, 1000, nullptr));
  }
  eng.run(50 * 10_us);  // warm-up
  const std::uint64_t before_events = eng.events_processed();
  const std::size_t before_allocs = g_allocs;
  eng.run(900 * 10_us);
  const std::size_t delta_allocs = g_allocs - before_allocs;
  EXPECT_EQ(eng.events_processed() - before_events, 850u * 128u);
  EXPECT_EQ(delta_allocs, 0u);
  eng.run();
  EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(EngineStress, BucketRunsBeforeTheSameInstantEventsItSchedules) {
  // Three callbacks share an instant, so they reach the due ring as one
  // bucket; what each posts for that same instant queues behind the whole
  // bucket, and a post from a post queues behind those.
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    eng.call_at(7'000, [&eng, &order, i] {
      order.push_back(i);
      eng.post([&eng, &order, i] {
        order.push_back(10 + i);
        if (i == 0) eng.post([&order] { order.push_back(20); });
      });
    });
  }
  eng.call_at(7'001, [&order] { order.push_back(30); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12, 20, 30}));
}

TEST(EngineStress, RunUntilABucketsTimeRunsTheWholeBucket) {
  Engine eng;
  int at_5us = 0;
  int at_6us = 0;
  for (int i = 0; i < 4; ++i) eng.call_at(5'000, [&at_5us] { ++at_5us; });
  for (int i = 0; i < 2; ++i) eng.call_at(6'000, [&at_6us] { ++at_6us; });
  EXPECT_EQ(eng.run(5'000), 4u);
  EXPECT_EQ(at_5us, 4);
  EXPECT_EQ(at_6us, 0);
  EXPECT_EQ(eng.now(), 5'000);
  // The next bucket is still parked in the wheel, not in the due ring.
  EXPECT_EQ(eng.timer_wheel_depth(), 2u);
  EXPECT_EQ(eng.event_queue_depth(), 2u);
  EXPECT_EQ(eng.run(), 2u);
  EXPECT_EQ(at_6us, 2);
}

// Differential test of dispatch order. Seeded callbacks schedule children
// at offsets that pile events onto shared instants (lockstep, near-lockstep
// and an absolute cluster) or spread them across every wheel level and past
// the wheel's span; the run proceeds in run(until) slices with outside
// inserts in between, which can land behind a cursor advanced past now().
// A std::set of (time, seq), fed the same decisions, must agree with every
// dispatch.
class DispatchOrderModel {
 public:
  explicit DispatchOrderModel(std::uint64_t seed)
      : rng_(seed),
        lockstep_(3 + static_cast<Time>(rng_.next_below(200'000))) {}

  /// Returns an empty string on agreement, else the first disagreement.
  std::string run() {
    for (int i = 0; i < 32; ++i) schedule(eng_.now() + offset());
    while (budget_ > 0 && failure_.empty()) {
      const Time until = eng_.now() + slice();
      eng_.run(until);
      check_slice(until);
      const int outside = static_cast<int>(rng_.next_below(4));
      for (int i = 0; i < outside && budget_ > 0; ++i) {
        // Small offsets reach into the gap between now() and the cursor.
        const Time dt = rng_.next_below(2) == 0
                            ? static_cast<Time>(rng_.next_below(4096))
                            : offset();
        schedule(eng_.now() + dt);
      }
    }
    eng_.run();
    if (failure_.empty() && !model_.empty()) failure_ = "model not drained";
    if (failure_.empty() && eng_.events_processed() != dispatched_) {
      failure_ = "event count differs from the model's";
    }
    return failure_;
  }

 private:
  static constexpr Time kCluster = 42'000'000;  // 42 ms
  static constexpr std::uint64_t kSpread = std::uint64_t{1} << 40;

  void schedule(Time t) {
    --budget_;
    const std::uint64_t seq = next_seq_++;
    model_.insert({t, seq});
    eng_.call_at(t, [this, t, seq] { fire(t, seq); });
  }

  void fire(Time t, std::uint64_t seq) {
    ++dispatched_;
    if (!failure_.empty()) return;
    if (model_.empty()) {
      failure_ = "engine ran an event the model already retired";
      return;
    }
    const std::pair<Time, std::uint64_t> want = *model_.begin();
    if (want != std::make_pair(t, seq) || eng_.now() != t) {
      failure_ = "engine ran (" + std::to_string(t) + ", " +
                 std::to_string(seq) + ") at " + std::to_string(eng_.now()) +
                 ", model expected (" + std::to_string(want.first) + ", " +
                 std::to_string(want.second) + ")";
      return;
    }
    model_.erase(model_.begin());
    const int children = static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < children && budget_ > 0; ++i) {
      schedule(eng_.now() + offset());
    }
  }

  Time offset() {
    const std::uint64_t pick = rng_.next_below(100);
    if (pick < 10) return 0;
    if (pick < 45) return lockstep_;
    if (pick < 60) return lockstep_ + (rng_.next_below(2) == 0 ? -2 : 2);
    if (pick < 70) return (eng_.now() / kCluster + 1) * kCluster - eng_.now();
    if (pick < 90) return 1 + static_cast<Time>(rng_.next_below(5'000'000));
    if (pick < 97) return 1 + static_cast<Time>(rng_.next_below(kSpread));
    return (Time{1} << 48) + static_cast<Time>(rng_.next_below(1 << 20));
  }

  Time slice() {
    switch (rng_.next_below(5)) {
      case 0: return 0;
      case 1: return lockstep_;
      case 2: return static_cast<Time>(rng_.next_below(5'000'000));
      case 3: return static_cast<Time>(rng_.next_below(kSpread));
      default: return Time{1} << 50;
    }
  }

  void check_slice(Time until) {
    if (!failure_.empty()) return;
    if (model_.empty()) {
      if (!eng_.idle() || eng_.now() != until) failure_ = "drained slice";
    } else if (model_.begin()->first <= until || eng_.now() > until) {
      failure_ = "run(" + std::to_string(until) + ") stopped early or late";
    }
  }

  Engine eng_;
  Rng rng_;
  Time lockstep_;
  std::set<std::pair<Time, std::uint64_t>> model_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  int budget_ = 4000;
  std::string failure_;
};

TEST(EngineStress, DispatchOrderMatchesTimeSeqModel) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const std::string failure = DispatchOrderModel(seed).run();
    ASSERT_EQ(failure, "") << "seed " << seed;
  }
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
