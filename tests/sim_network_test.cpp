// Network, storage, jitter, and cluster models.
#include <gtest/gtest.h>

#include <vector>

#include "sim/awaitables.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/storage.hpp"

namespace gcr::sim {
namespace {

NetParams fast_params() {
  NetParams p;
  p.latency_s = 100e-6;
  p.bandwidth_Bps = 10e6;
  return p;
}

/// 16 hosts derive a k = 4 fat-tree.
NetParams fattree_params() {
  NetParams p = fast_params();
  p.topology.kind = TopologyKind::kFatTree;
  return p;
}

/// The flat NIC's fixed occupation per message.
const Time kPerMessage = from_seconds(Network::kPerMessageS);

/// What a routed message pays after its last byte clears the bottleneck.
Time routed_tail(int nhops) {
  return from_seconds(Network::kPerMessageS + nhops * Network::kHopLatencyS);
}

/// Awaits `egress` as a sender does and records when the wait returned.
Co<void> time_egress(Network::Egress egress, Engine& eng, Time* at) {
  co_await egress;
  *at = eng.now();
}

TEST(Network, LatencyPlusBandwidth) {
  Engine eng;
  Network net(eng, 2, fast_params());
  Time arrived = -1;
  net.send(0, 1, 1'000'000, [&] { arrived = eng.now(); });
  eng.run();
  // 1 MB @ 10 MB/s = 100 ms, + per-message cost + 100 us latency.
  EXPECT_EQ(arrived, 100_ms + kPerMessage + 100_us);
}

TEST(Network, EgressSerializesSameSender) {
  Engine eng;
  Network net(eng, 3, fast_params());
  std::vector<Time> arrivals;
  net.send(0, 1, 1'000'000, [&] { arrivals.push_back(eng.now()); });
  net.send(0, 2, 1'000'000, [&] { arrivals.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second message waits for the first to clear the NIC.
  EXPECT_EQ(arrivals[0], 100_ms + kPerMessage + 100_us);
  EXPECT_EQ(arrivals[1], 200_ms + 2 * kPerMessage + 100_us);
}

TEST(Network, DifferentSendersDoNotContend) {
  Engine eng;
  Network net(eng, 3, fast_params());
  std::vector<Time> arrivals;
  net.send(0, 2, 1'000'000, [&] { arrivals.push_back(eng.now()); });
  net.send(1, 2, 1'000'000, [&] { arrivals.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], arrivals[1]);  // parallel NICs
}

TEST(Network, LoopbackBypassesNic) {
  Engine eng;
  Network net(eng, 2, fast_params());
  Time arrived = -1;
  Time egress = -1;
  eng.spawn(
      time_egress(net.send(0, 0, 1'000'000, [&] { arrived = eng.now(); }),
                  eng, &egress));
  eng.run();
  // 1 MB at the loopback copy rate, + the loopback latency.
  EXPECT_EQ(arrived, from_seconds(Network::kLoopbackLatencyS +
                                  1e6 / Network::kLoopbackBps));
  EXPECT_EQ(egress, arrived);
}

TEST(Network, FifoPerSenderPair) {
  // Arrivals from one sender must preserve send order (runtime relies on it).
  Engine eng;
  Network net(eng, 2, fast_params());
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    net.send(0, 1, 1000 * (10 - i), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) ASSERT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Network, ZeroByteMessageStillPaysLatency) {
  // A zero-payload message (pure control, e.g. an empty bookmark) occupies
  // the NIC for per_message only but must still cross the wire: arrival is
  // one latency after egress, never "now".
  Engine eng;
  Network net(eng, 2, fast_params());
  Time arrived = -1;
  Time egress = -1;
  eng.spawn(time_egress(net.send(0, 1, 0, [&] { arrived = eng.now(); }),
                        eng, &egress));
  eng.run();
  EXPECT_EQ(arrived, kPerMessage + 100_us);
  EXPECT_EQ(egress, kPerMessage);
}

TEST(Network, ZeroByteSelfSendDeliversStrictlyLater) {
  Engine eng;
  Network net(eng, 2, fast_params());
  Time arrived = -1;
  net.send(0, 0, 0, [&] { arrived = eng.now(); });
  eng.run();
  // The loopback latency alone: delivery is never synchronous.
  EXPECT_EQ(arrived, from_seconds(Network::kLoopbackLatencyS));
  EXPECT_GT(arrived, 0);
}

TEST(Network, RoutedZeroBytePaysPerHopLatency) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  Time arrived = -1;
  net.send(0, 4, 0, [&] { arrived = eng.now(); });  // cross-pod: 6 hops
  eng.run();
  // A zero-byte transfer clears the fabric after its 1-tick estimate.
  EXPECT_EQ(arrived, 1 + routed_tail(6));
}

// A routed send is admitted at the send instant, the sender's egress wait
// returns when the last byte clears the bottleneck, and delivery follows
// per_message + nhops * hop_latency later.
TEST(Network, RoutedEgressFiresAtCompletionAndDeliveryPaysEveryHop) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  Time arrived = -1;
  Time egress = -1;
  // Cross-pod: 6 hops. 1 MB at 10 MB/s clears the bottleneck at 100 ms.
  Network::Egress wait = net.send(0, 4, 1'000'000, [&] { arrived = eng.now(); });
  EXPECT_EQ(net.active_transfers(), 1);  // admitted without a step
  eng.spawn(time_egress(wait, eng, &egress));
  eng.run();
  EXPECT_EQ(egress, 100_ms);
  EXPECT_EQ(arrived, 100_ms + routed_tail(6));
}

// sendrecv's order: the sender transmits, waits on something else, and
// only then awaits its egress. Once the transfer has completed that wait
// is ready at once, even after a later send reuses the transfer's pool
// slot (freeing the slot bumped its epoch).
TEST(Network, RoutedEgressAwaitedAfterCompletionIsReady) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  Time egress = -1;
  Time second_arrived = -1;
  auto sender = [](Network& n, Engine& e, Time* at,
                   Time* later_arrival) -> Co<void> {
    Network::Egress first = n.send(0, 4, 1'000'000, [] {});  // done at 100 ms
    co_await delay(e, 120_ms);
    n.send(0, 4, 1'000'000,
           [ep = &e, later_arrival] { *later_arrival = ep->now(); });
    co_await first;
    *at = e.now();
  };
  eng.spawn(sender(net, eng, &egress, &second_arrived));
  eng.run();
  EXPECT_EQ(egress, 120_ms);
  EXPECT_EQ(second_arrived, 220_ms + routed_tail(6));
}

// A sender killed mid-wait, with no abort_transfers_from, leaves a stale
// waiter handle in its transfer. The kill unwinds the sender once; the
// transfer still completes and delivers, and firing the stale handle
// resumes nothing — not even a later process whose wait reuses the
// sender's waiter slot.
TEST(Network, KilledRoutedEgressWaiterIsNeverResumed) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  Time arrived = -1;
  bool resumed = false;
  auto sender = [](Network& n, Time* at, Engine& e, bool* after) -> Co<void> {
    co_await n.send(0, 4, 1'000'000, [at, ep = &e] { *at = ep->now(); });
    *after = true;
  };
  ProcPtr proc = eng.spawn(sender(net, &arrived, eng, &resumed));
  eng.call_at(50_ms, [&] { eng.kill(*proc); });
  Time bystander_woke = -1;
  eng.call_at(60_ms, [&] {
    eng.spawn([](Engine& e, Time* at) -> Co<void> {
      co_await delay(e, 150_ms);
      *at = e.now();
    }(eng, &bystander_woke));
  });
  eng.run();
  EXPECT_TRUE(proc->killed());
  EXPECT_FALSE(resumed);
  EXPECT_EQ(arrived, 100_ms + routed_tail(6));
  EXPECT_EQ(bystander_woke, 210_ms);
  EXPECT_EQ(net.fabric_bytes_delivered(), 1'000'000);
  EXPECT_EQ(eng.live_process_count(), 0u);
}

TEST(Network, InFlightTransferKilledMidHopNeverDelivers) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  bool delivered = false;
  net.send(0, 4, 1'000'000, [&] { delivered = true; });  // 100 ms transfer
  eng.call_at(50_ms, [&] { net.abort_transfers_from(0); });
  eng.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.fabric_bytes_dropped(), 1'000'000);
  EXPECT_EQ(net.fabric_bytes_offered(),
            net.fabric_bytes_delivered() + net.fabric_bytes_dropped());
  EXPECT_EQ(net.active_transfers(), 0);
}

TEST(Network, CountsTraffic) {
  Engine eng;
  Network net(eng, 2, fast_params());
  net.send(0, 1, 100, [] {});
  net.send(1, 0, 200, [] {});
  eng.run();
  EXPECT_EQ(net.total_messages(), 2);
  EXPECT_EQ(net.total_bytes(), 300);
}

Co<void> do_write(StorageDevice& dev, std::int64_t bytes, Time* done,
                  Engine& eng) {
  co_await dev.write(bytes);
  *done = eng.now();
}

TEST(Storage, WriteTimeIsLatencyPlusBandwidth) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/50e6, /*latency_s=*/5e-3};
  StorageDevice dev(eng, p);
  Time done = -1;
  eng.spawn(do_write(dev, 50'000'000, &done, eng));
  eng.run();
  EXPECT_EQ(done, 1_s + 5_ms);
  EXPECT_EQ(dev.bytes_written(), 50'000'000);
}

TEST(Storage, RequestsSerializeFifo) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/50e6, /*latency_s=*/0};
  StorageDevice dev(eng, p);
  Time d1 = -1, d2 = -1;
  eng.spawn(do_write(dev, 50'000'000, &d1, eng));
  eng.spawn(do_write(dev, 50'000'000, &d2, eng));
  eng.run();
  EXPECT_EQ(d1, 1_s);
  EXPECT_EQ(d2, 2_s);  // queued behind the first
}

TEST(Jitter, DisabledIsZero) {
  JitterParams p;
  p.enabled = false;
  JitterModel model(p);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(model.draw(rng), 0);
}

TEST(Jitter, SamplesPositiveAndDeterministic) {
  JitterModel model{JitterParams{}};
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) {
    const Time va = model.draw(a);
    EXPECT_GT(va, 0);
    EXPECT_EQ(va, model.draw(b));
  }
}

TEST(Jitter, SpikesObeyBounds) {
  JitterModel model{JitterParams{}};
  Rng rng(7);
  // A body sample past the spike floor is a ~5-sigma event, so every draw
  // at or above it is a spike.
  constexpr int kDraws = 4000;
  int spikes = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double s = to_seconds(model.draw(rng));
    if (s < JitterModel::kSpikeMinS) continue;
    ++spikes;
    EXPECT_LE(s, JitterModel::kSpikeMaxS + 1.0);  // + lognormal body
  }
  EXPECT_NEAR(static_cast<double>(spikes) / kDraws, JitterModel::kSpikeProb,
              0.015);
}

TEST(Cluster, RemoteServerRoundRobin) {
  ClusterParams p;
  p.num_nodes = 8;
  p.num_remote_servers = 4;
  Cluster cluster(p);
  ASSERT_TRUE(cluster.has_remote_storage());
  EXPECT_EQ(&cluster.remote_server_for(0), &cluster.remote_server_for(4));
  EXPECT_NE(&cluster.remote_server_for(0), &cluster.remote_server_for(1));
}

TEST(Cluster, SubstreamsIndependentOfEachOther) {
  ClusterParams p;
  p.seed = 77;
  Cluster cluster(p);
  Rng a = cluster.make_rng(1);
  Rng b = cluster.make_rng(2);
  Rng a2 = cluster.make_rng(1);
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng a3 = cluster.make_rng(1);
  EXPECT_EQ(a2.next_u64(), a3.next_u64());
}

}  // namespace
}  // namespace gcr::sim
