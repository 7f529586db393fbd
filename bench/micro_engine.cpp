// Engine micro-benchmark: events per wall-second on the simulator's hot
// paths, with no external dependencies so the target always builds.
//
// Workloads:
//   * callback_storm  — self-rescheduling periodic callbacks (the daemon
//                       pattern), raw queue push/pop/dispatch cost
//   * timer_storm     — N processes sleeping on staggered Delays (the
//                       suspend/fire_at/resume cycle every compute() pays);
//                       few events share an instant, so it bypasses the
//                       wheel's timestamp buckets
//   * lockstep_timers — 128 processes looping on identical Delays, like
//                       bulk-synchronous ranks: every instant carries 128
//                       events, which the wheel moves as one bucket
//   * timer_cancel    — timers armed and claimed by a competing Trigger, so
//                       every round recycles a cancelled waiter slot
//   * ping_pong       — token handoff pairs through two triggers
//   * spawn_kill      — process churn: spawn, let run, kill half while queued
//   * link_contention — routed fat-tree transfers fair-sharing uplinks: the
//                       settle/re-rate/heap cycle every membership change
//                       pays on a contended fabric
//   * wheel_churn     — a hot short-period storm with a growing population
//                       of far-future timers parked in the wheel's upper
//                       levels; O(1) insert/dispatch means the rate stays
//                       flat as the resident count grows
//   * far_future_cascade — events spread up to 2^47 ns, so dispatch pays
//                       worst-case level cascades
//   * far_future_overflow — the same shape up to 2^52 ns, starting in level
//                       8 of the wheel
//
// Output is one JSON object per line (events = Engine::events_processed()
// delta; rate = events / wall second), plus a trailing summary object.
// `--out FILE` additionally persists the JSON lines (BENCH_engine.json at
// the repo root is the committed reference capture). CI uploads the JSON as
// the perf-smoke artifact; docs/BENCHMARKS.md records reference numbers.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "util/cli.hpp"

namespace {

using namespace gcr;
using sim::Co;
using sim::Engine;
using sim::Time;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Result {
  std::uint64_t events = 0;
  double seconds = 0;
};

/// Runs `body` (which builds and drains one engine) `reps` times and keeps
/// the best rate — micro-runs on a shared machine are noisy in one
/// direction only.
template <class Body>
Result best_of(int reps, const Body& body) {
  Result best;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    const std::uint64_t events = body();
    const double dt = now_seconds() - t0;
    if (best.seconds == 0 || events / dt > best.events / best.seconds) {
      best = {events, dt};
    }
  }
  return best;
}

std::string g_json;  // mirror of stdout for --out

void emit(const std::string& name, const Result& r) {
  char line[256];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"%s\",\"events\":%llu,\"seconds\":%.6f,"
      "\"events_per_sec\":%.0f}\n",
      name.c_str(), static_cast<unsigned long long>(r.events), r.seconds,
      r.seconds > 0 ? static_cast<double>(r.events) / r.seconds : 0.0);
  std::fputs(line, stdout);
  g_json += line;
}

// ------------------------------------------------------------- workloads

std::uint64_t callback_storm(int outstanding, int rounds) {
  // The daemon pattern: a bounded set of periodic callbacks, each
  // rescheduling itself with a staggered period (so the queue reorders, not
  // just FIFO-pops). Queue depth stays at `outstanding`, like the recovery
  // timers and scheduler ticks of a real campaign job.
  Engine eng;
  long sink = 0;
  struct Tick {
    Engine* eng;
    long* sink;
    int left;
    void operator()() {
      ++*sink;
      if (left > 0) {
        eng->call_at(eng->now() + 1 + left % 7, Tick{eng, sink, left - 1});
      }
    }
  };
  for (int i = 0; i < outstanding; ++i) {
    eng.call_at(i % 64, Tick{&eng, &sink, rounds - 1});
  }
  eng.run();
  if (sink != static_cast<long>(outstanding) * rounds) std::abort();
  return eng.events_processed();
}

Co<void> sleeper(Engine& eng, Time dt, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await sim::delay(eng, dt);
}

std::uint64_t timer_storm(int procs, int rounds) {
  Engine eng;
  for (int p = 0; p < procs; ++p) {
    // Staggered periods force queue reordering, not just FIFO pops.
    eng.spawn(sleeper(eng, 1 + p % 7, rounds));
  }
  eng.run();
  return eng.events_processed();
}

std::uint64_t lockstep_timers(int procs, int rounds) {
  Engine eng;
  for (int p = 0; p < procs; ++p) {
    eng.spawn(sleeper(eng, 10'000, rounds));
  }
  eng.run();
  return eng.events_processed();
}

std::uint64_t timer_cancel(int rounds) {
  // A daemon alternates trigger waits with short sleeps while callbacks fire
  // the trigger each round; every round arms and then recycles a waiter, so
  // the pool's free list (not just queue push/pop) is on the clock.
  Engine eng;
  sim::Trigger t(eng);
  auto racer = [](Engine& e, sim::Trigger& tr, int n) -> Co<void> {
    for (int i = 0; i < n; ++i) {
      co_await tr.wait();
      tr.reset();
      co_await sim::delay(e, 1);
    }
  };
  eng.spawn(racer(eng, t, rounds));
  for (int i = 0; i < rounds; ++i) {
    eng.call_at(2 * i, [&t] { t.fire(); });
  }
  eng.run();
  return eng.events_processed();
}

Co<void> echo(sim::Trigger& ping, sim::Trigger& pong, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await ping.wait();
    ping.reset();
    pong.fire();
  }
}

Co<void> drive(sim::Trigger& ping, sim::Trigger& pong, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    ping.fire();
    co_await pong.wait();
    pong.reset();
  }
}

std::uint64_t ping_pong(int pairs, int rounds) {
  // Each pair hands one token back and forth through two triggers: every
  // handoff wakes the blocked partner through the due ring.
  Engine eng;
  std::vector<std::unique_ptr<sim::Trigger>> triggers;
  for (int p = 0; p < pairs; ++p) {
    triggers.push_back(std::make_unique<sim::Trigger>(eng));
    triggers.push_back(std::make_unique<sim::Trigger>(eng));
    auto& ping = *triggers[triggers.size() - 2];
    auto& pong = *triggers[triggers.size() - 1];
    eng.spawn(echo(ping, pong, rounds));
    eng.spawn(drive(ping, pong, rounds));
  }
  eng.run();
  return eng.events_processed();
}

std::uint64_t spawn_kill(int waves, int procs_per_wave) {
  Engine eng;
  std::uint64_t killed = 0;
  for (int w = 0; w < waves; ++w) {
    const Time base = w * 100;
    eng.call_at(base, [&eng, &killed, procs_per_wave] {
      std::vector<sim::ProcPtr> wave;
      wave.reserve(static_cast<std::size_t>(procs_per_wave));
      for (int i = 0; i < procs_per_wave; ++i) {
        wave.push_back(eng.spawn(sleeper(eng, 10, 3)));
      }
      // Kill every other process while its first timer is still queued.
      for (int i = 0; i < procs_per_wave; i += 2) {
        eng.kill(*wave[static_cast<std::size_t>(i)]);
        ++killed;
      }
    });
  }
  eng.run();
  if (killed == 0) std::abort();
  return eng.events_processed();
}

std::uint64_t link_contention(int nodes, int rounds) {
  // Every node streams to the node halfway across a fat-tree, so the core
  // uplinks stay saturated and every completion re-rates the survivors
  // sharing its links — the fabric's hot path (settle, bottleneck re-split,
  // heap push, generation-guarded timer) with zero steady-state allocation.
  Engine eng;
  sim::NetParams np;
  np.topology.kind = sim::TopologyKind::kFatTree;
  sim::Network net(eng, nodes, np);
  long delivered = 0;
  struct Stream {
    Engine* eng;
    sim::Network* net;
    long* delivered;
    int src, dst, left;
    void operator()() {
      ++*delivered;
      if (left > 0) {
        net->send(src, dst, 40 * 1024, Stream{eng, net, delivered, src, dst,
                                              left - 1});
      }
    }
  };
  for (int s = 0; s < nodes; ++s) {
    const int d = (s + nodes / 2) % nodes;
    net.send(s, d, 40 * 1024, Stream{&eng, &net, &delivered, s, d, rounds - 1});
  }
  eng.run();
  if (delivered != static_cast<long>(nodes) * rounds) std::abort();
  return eng.events_processed();
}

std::uint64_t wheel_churn(int pending, int outstanding, int rounds) {
  // `pending` far-future timers parked across the wheel's upper levels stay
  // resident while a short-period storm churns level 0 below them. With
  // O(1) wheel inserts and pops the measured rate is flat in `pending`; a
  // comparison-based heap would pay log(pending) per storm event.
  Engine eng;
  // Pre-size the pools: the row measures steady-state churn, not the pool's
  // first-growth allocations while parking the pending population.
  eng.reserve(static_cast<std::size_t>(pending) +
                  static_cast<std::size_t>(outstanding) * 2,
              16);
  const Time horizon = 1'000'000;  // the storm lives in [0, horizon]
  for (int i = 0; i < pending; ++i) {
    eng.call_at(
        horizon + 1 + (static_cast<Time>(i) * 104'729) % (Time{1} << 40),
        [] {});
  }
  long sink = 0;
  struct Tick {
    Engine* eng;
    long* sink;
    int left;
    void operator()() {
      ++*sink;
      if (left > 0) {
        eng->call_at(eng->now() + 1 + left % 7, Tick{eng, sink, left - 1});
      }
    }
  };
  for (int i = 0; i < outstanding; ++i) {
    eng.call_at(i % 64, Tick{&eng, &sink, rounds - 1});
  }
  const std::uint64_t before = eng.events_processed();
  const std::uint64_t storm = eng.run(horizon);  // parked timers stay parked
  if (before != 0 || sink != static_cast<long>(outstanding) * rounds) {
    std::abort();
  }
  return storm;
}

std::uint64_t far_future_cascade(int count) {
  // Events spread uniformly up to 2^47 ns: popping them drags chains down
  // through every level from 7, the worst case for the lazy cascade.
  Engine eng;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < count; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    eng.call_at(1 + (x % ((Time{1} << 47))), [] {});
  }
  eng.run();
  return eng.events_processed();
}

std::uint64_t far_future_overflow(int count) {
  // Events spread uniformly up to 2^52 ns: they start in level 8 and
  // cascade down through every level below it. Pairs with
  // far_future_cascade; the two are the only rows that reach the wheel's
  // upper levels. The name is from the overflow heap that once held these
  // events; it stays so BENCH_engine.json keeps its rows.
  Engine eng;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < count; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    eng.call_at(1 + (x % ((Time{1} << 52))), [] {});
  }
  eng.run();
  return eng.events_processed();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int scale =
      static_cast<int>(cli.get_int("scale", 1, "workload multiplier"));
  const int reps = static_cast<int>(
      cli.get_int("repeat", 3, "timed repetitions (best kept)"));
  const std::string out =
      cli.get_string("out", "", "also write the JSON lines to this file");
  cli.finish();

  std::uint64_t total_events = 0;
  double total_seconds = 0;
  auto record = [&](const std::string& name, const Result& r) {
    emit(name, r);
    total_events += r.events;
    total_seconds += r.seconds;
  };

  record("callback_storm",
         best_of(reps, [&] { return callback_storm(512, 800 * scale); }));
  record("timer_storm",
         best_of(reps, [&] { return timer_storm(1000, 200 * scale); }));
  record("lockstep_timers",
         best_of(reps, [&] { return lockstep_timers(128, 1600 * scale); }));
  record("timer_cancel",
         best_of(reps, [&] { return timer_cancel(100000 * scale); }));
  record("ping_pong",
         best_of(reps, [&] { return ping_pong(500, 200 * scale); }));
  record("spawn_kill",
         best_of(reps, [&] { return spawn_kill(2000 * scale, 50); }));
  record("link_contention",
         best_of(reps, [&] { return link_contention(128, 400 * scale); }));
  // Timer-wheel rows: flat rates across the pending sweep demonstrate the
  // O(1) claim (a heap would decay logarithmically in the resident count).
  for (const int pending : {1'000, 10'000, 100'000}) {
    record("wheel_churn_p" + std::to_string(pending),
           best_of(reps,
                   [&] { return wheel_churn(pending, 512, 2000 * scale); }));
  }
  record("far_future_cascade",
         best_of(reps, [&] { return far_future_cascade(200'000 * scale); }));
  record("far_future_overflow",
         best_of(reps, [&] { return far_future_overflow(200'000 * scale); }));

  char line[256];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"TOTAL\",\"events\":%llu,\"seconds\":%.6f,"
      "\"events_per_sec\":%.0f}\n",
      static_cast<unsigned long long>(total_events), total_seconds,
      total_seconds > 0 ? static_cast<double>(total_events) / total_seconds
                        : 0.0);
  std::fputs(line, stdout);
  g_json += line;
  if (!out.empty()) {
    if (std::FILE* f = std::fopen(out.c_str(), "w")) {
      std::fputs(g_json.c_str(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "micro_engine: cannot write %s\n", out.c_str());
      return 1;
    }
  }
  return 0;
}
