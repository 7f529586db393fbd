// Fair-share contention model of sim::StorageDevice (DESIGN.md §13).
//
// concurrency K admits K transfers that share bandwidth equally, with
// progress resettled on every arrival/departure; requests beyond K queue
// FIFO; K=1 is the strict-FIFO device, one transfer at a time at full
// bandwidth (its exact-formula tests live in sim_network_test.cpp).
// Completion times here are checked against hand-computed piecewise-linear
// progress.
#include <gtest/gtest.h>

#include "sim/awaitables.hpp"
#include "sim/storage.hpp"

namespace gcr::sim {
namespace {

constexpr std::int64_t kMB = 1'000'000;

Co<void> write_at(Engine& eng, StorageDevice& dev, Time start,
                  std::int64_t bytes, Time* done) {
  if (start > 0) co_await delay(eng, start);
  co_await dev.write(bytes);
  *done = eng.now();
}

/// Completion timestamps carry at most a few ns of integer-rounding from
/// the resettle timers; the analytic expectations are exact seconds.
void expect_time_near(Time actual, Time expected) {
  EXPECT_GE(actual, expected - 4);
  EXPECT_LE(actual, expected + 4);
}

TEST(StorageFairShare, EqualTransfersSplitBandwidthAndFinishTogether) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/100e6, /*latency_s=*/0, /*concurrency=*/2};
  StorageDevice dev(eng, p);
  Time d1 = -1, d2 = -1;
  eng.spawn(write_at(eng, dev, 0, 100 * kMB, &d1));
  eng.spawn(write_at(eng, dev, 0, 100 * kMB, &d2));
  eng.run();
  // Each proceeds at 50 MB/s; both complete at 2 s (one alone: 1 s).
  expect_time_near(d1, 2_s);
  expect_time_near(d2, 2_s);
  EXPECT_EQ(dev.bytes_written(), 200 * kMB);
  EXPECT_EQ(dev.peak_active_transfers(), 2);
}

TEST(StorageFairShare, ConvergenceAtFullWidth) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/100e6, /*latency_s=*/0, /*concurrency=*/8};
  StorageDevice dev(eng, p);
  Time done[8];
  for (int i = 0; i < 8; ++i) {
    done[i] = -1;
    eng.spawn(write_at(eng, dev, 0, 50 * kMB, &done[i]));
  }
  eng.run();
  // 8 × 50 MB fair-shared over 100 MB/s: every transfer ends at 4 s —
  // aggregate throughput equals device bandwidth, no one starves.
  for (int i = 0; i < 8; ++i) expect_time_near(done[i], 4_s);
}

TEST(StorageFairShare, ArrivalResettlesProgress) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/100e6, /*latency_s=*/0, /*concurrency=*/2};
  StorageDevice dev(eng, p);
  Time dA = -1, dB = -1;
  eng.spawn(write_at(eng, dev, 0, 200 * kMB, &dA));
  eng.spawn(write_at(eng, dev, 1_s, 100 * kMB, &dB));
  eng.run();
  // A alone 0..1 s moves 100 MB; from 1 s both run at 50 MB/s and each has
  // 100 MB left, so both complete at 3 s.
  expect_time_near(dA, 3_s);
  expect_time_near(dB, 3_s);
}

TEST(StorageFairShare, QueueBeyondWidthStaysFifo) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/100e6, /*latency_s=*/0, /*concurrency=*/2};
  StorageDevice dev(eng, p);
  Time d1 = -1, d2 = -1, d3 = -1;
  eng.spawn(write_at(eng, dev, 0, 100 * kMB, &d1));
  eng.spawn(write_at(eng, dev, 0, 100 * kMB, &d2));
  eng.spawn(write_at(eng, dev, 0, 100 * kMB, &d3));
  eng.run();
  // Two admitted (done at 2 s); the third waits for a slot, then runs the
  // full bandwidth alone: 2 s + 1 s.
  expect_time_near(d1, 2_s);
  expect_time_near(d2, 2_s);
  expect_time_near(d3, 3_s);
  EXPECT_EQ(dev.peak_active_transfers(), 2);
}

TEST(StorageFairShare, LatencyIsSerialPerRequest) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/100e6, /*latency_s=*/0.5,
                  /*concurrency=*/2};
  StorageDevice dev(eng, p);
  Time d1 = -1;
  eng.spawn(write_at(eng, dev, 0, 100 * kMB, &d1));
  eng.run();
  // Setup happens after admission, before joining the byte stream.
  expect_time_near(d1, 1_s + 500_ms);
}

Co<void> run_then_die(Engine& eng, StorageDevice& dev, std::int64_t bytes) {
  co_await dev.write(bytes);
}

TEST(StorageFairShare, KilledTransferFreesItsShare) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/100e6, /*latency_s=*/0, /*concurrency=*/2};
  StorageDevice dev(eng, p);
  Time dA = -1;
  eng.spawn(write_at(eng, dev, 0, 400 * kMB, &dA));
  ProcPtr victim = eng.spawn(run_then_die(eng, dev, 200 * kMB));
  eng.call_at(1_s, [&eng, victim] { eng.kill(*victim); });
  eng.run();
  // Shared until 1 s (A moved 50 MB); B dies, A gets the full pipe for its
  // remaining 350 MB: done at 1 s + 3.5 s. B's bytes never count.
  expect_time_near(dA, 4_s + 500_ms);
  EXPECT_EQ(dev.bytes_written(), 400 * kMB);
  EXPECT_EQ(dev.active_transfers(), 0);
}

TEST(StorageFairShare, KilledWhileQueuedReleasesNothing) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/100e6, /*latency_s=*/0, /*concurrency=*/1};
  StorageDevice dev(eng, p);
  Time d1 = -1, d3 = -1;
  eng.spawn(write_at(eng, dev, 0, 100 * kMB, &d1));
  ProcPtr queued = eng.spawn(run_then_die(eng, dev, 100 * kMB));
  eng.spawn(write_at(eng, dev, 0, 100 * kMB, &d3));
  eng.call_at(500_ms, [&eng, queued] { eng.kill(*queued); });
  eng.run();
  // The killed waiter's admission slot passes to the next in line.
  expect_time_near(d1, 1_s);
  expect_time_near(d3, 2_s);
}

}  // namespace
}  // namespace gcr::sim
