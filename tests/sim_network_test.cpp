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
  p.per_message_s = 0;
  return p;
}

TEST(Network, LatencyPlusBandwidth) {
  Engine eng;
  Network net(eng, 2, fast_params());
  Time arrived = -1;
  net.send(0, 1, 1'000'000, [&] { arrived = eng.now(); });
  eng.run();
  // 1 MB @ 10 MB/s = 100 ms + 100 us latency.
  EXPECT_EQ(arrived, 100_ms + 100_us);
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
  EXPECT_EQ(arrivals[0], 100_ms + 100_us);
  EXPECT_EQ(arrivals[1], 200_ms + 100_us);
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
  NetParams p = fast_params();
  p.loopback_Bps = 1e9;
  p.loopback_latency_s = 1e-6;
  Network net(eng, 2, p);
  Time arrived = -1;
  auto times = net.send(0, 0, 1'000'000, [&] { arrived = eng.now(); });
  eng.run();
  EXPECT_EQ(arrived, 1_ms + 1_us);
  EXPECT_EQ(times.egress_done, arrived);
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
  const auto times = net.send(0, 1, 0, [&] { arrived = eng.now(); });
  eng.run();
  EXPECT_EQ(arrived, 100_us);
  EXPECT_EQ(times.arrival, arrived);
  EXPECT_EQ(times.egress_done, 0);  // per_message_s == 0 in fast_params
  EXPECT_EQ(times.ticket, 0u);      // flat sends carry no egress ticket
}

TEST(Network, ZeroByteSelfSendDeliversStrictlyLater) {
  Engine eng;
  NetParams p = fast_params();
  p.loopback_latency_s = 0;  // adversarial: all costs zero
  Network net(eng, 2, p);
  Time arrived = -1;
  net.send(0, 0, 0, [&] { arrived = eng.now(); });
  eng.run();
  EXPECT_EQ(arrived, 1);  // 1-tick floor: delivery is never synchronous
}

TEST(Network, RoutedZeroBytePaysPerHopLatency) {
  Engine eng;
  NetParams p = fast_params();
  p.topology.kind = TopologyKind::kFatTree;
  p.topology.fattree_k = 4;
  p.topology.hop_latency_s = 10e-6;
  Network net(eng, 16, p);
  Time arrived = -1;
  net.send(0, 4, 0, [&] { arrived = eng.now(); });  // cross-pod: 6 hops
  eng.run();
  EXPECT_GE(arrived, from_seconds(6 * 10e-6));
}

TEST(Network, RoutedSendTimesAreEstimatesWithTicket) {
  Engine eng;
  NetParams p = fast_params();
  p.topology.kind = TopologyKind::kFatTree;
  p.topology.fattree_k = 4;
  p.topology.hop_latency_s = 0;
  Network net(eng, 16, p);
  ASSERT_TRUE(net.routed());
  Time arrived = -1;
  const auto times = net.send(0, 4, 1'000'000, [&] { arrived = eng.now(); });
  ASSERT_NE(times.ticket, 0u);
  EXPECT_TRUE(net.egress_pending(times.ticket));
  eng.run();
  // Uncontended, the estimate is exact (modulo the 1-tick delivery floor).
  EXPECT_NEAR(to_seconds(arrived), to_seconds(times.arrival), 1e-6);
  EXPECT_FALSE(net.egress_pending(times.ticket));
  // Clearing a completed ticket's trigger is a harmless no-op.
  net.clear_egress_trigger(times.ticket);
}

// A routed send is admitted at the send instant, the sender's egress
// trigger fires when the last byte clears the bottleneck, and delivery
// follows per_message + nhops * hop_latency later.
TEST(Network, RoutedEgressFiresAtCompletionAndDeliveryPaysEveryHop) {
  Engine eng;
  NetParams p = fast_params();
  p.per_message_s = 20e-6;
  p.topology.kind = TopologyKind::kFatTree;
  p.topology.fattree_k = 4;
  p.topology.hop_latency_s = 10e-6;
  Network net(eng, 16, p);
  Time arrived = -1;
  Time egress = -1;
  // Cross-pod: 6 hops. 1 MB at 10 MB/s clears the bottleneck at 100 ms.
  const auto times = net.send(0, 4, 1'000'000, [&] { arrived = eng.now(); });
  EXPECT_EQ(net.active_transfers(), 1);  // admitted without a step
  Trigger done(eng);
  net.set_egress_trigger(times.ticket, &done);
  auto waiter = [](Trigger& t, Engine& e, Time* at) -> Co<void> {
    co_await t.wait();
    *at = e.now();
  };
  eng.spawn("sender", waiter(done, eng, &egress));
  eng.run();
  EXPECT_EQ(egress, 100_ms);
  EXPECT_EQ(arrived, 100_ms + 20_us + 6 * 10_us);
  EXPECT_EQ(times.egress_done, egress);  // uncontended estimates are exact
  EXPECT_EQ(times.arrival, arrived);
}

TEST(Network, InFlightTransferKilledMidHopNeverDelivers) {
  Engine eng;
  NetParams p = fast_params();
  p.topology.kind = TopologyKind::kFatTree;
  p.topology.fattree_k = 4;
  p.topology.hop_latency_s = 0;
  Network net(eng, 16, p);
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
  StorageDevice dev(eng, "d", p);
  Time done = -1;
  eng.spawn("w", do_write(dev, 50'000'000, &done, eng));
  eng.run();
  EXPECT_EQ(done, 1_s + 5_ms);
  EXPECT_EQ(dev.bytes_written(), 50'000'000);
}

TEST(Storage, RequestsSerializeFifo) {
  Engine eng;
  StorageParams p{/*bandwidth_Bps=*/50e6, /*latency_s=*/0};
  StorageDevice dev(eng, "d", p);
  Time d1 = -1, d2 = -1;
  eng.spawn("w1", do_write(dev, 50'000'000, &d1, eng));
  eng.spawn("w2", do_write(dev, 50'000'000, &d2, eng));
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
  JitterParams p;
  p.spike_prob = 1.0;  // always spike
  JitterModel model(p);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double s = to_seconds(model.draw(rng));
    EXPECT_GE(s, p.spike_min_s);
    EXPECT_LE(s, p.spike_max_s + 1.0);  // + lognormal body
  }
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
