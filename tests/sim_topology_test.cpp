// Topology conformance: analytic checks of route shapes and of the routed
// fabric's fair-share arithmetic against closed forms.
//
// This TU replaces the global allocator with a counting shim
// (counting_allocator.hpp) so the fabric's "allocation-free steady path"
// claim is enforced by a test, not a comment.
#include <gtest/gtest.h>

#include <vector>

#include "counting_allocator.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace gcr::sim {
namespace {

/// 16-host k=4 fat-tree over 10 MB/s links with zero per-message and
/// per-hop costs, so completion times are pure bandwidth arithmetic
/// (plus the fabric's 1-tick delivery floor).
NetParams fattree_params(FatTreeRouting routing = FatTreeRouting::kDeterministic) {
  NetParams p;
  p.bandwidth_Bps = 10e6;
  p.per_message_s = 0;
  p.topology.kind = TopologyKind::kFatTree;
  p.topology.fattree_k = 4;
  p.topology.fattree_routing = routing;
  p.topology.hop_latency_s = 0;
  return p;
}

TEST(Topology, FatTreeMinHopClosedForm) {
  FatTreeTopology t(16, 4, FatTreeRouting::kDeterministic);
  EXPECT_EQ(t.min_hops(0, 1), 2);   // same edge switch
  EXPECT_EQ(t.min_hops(0, 2), 4);   // same pod, different edge
  EXPECT_EQ(t.min_hops(0, 4), 6);   // different pod (via core)
  EXPECT_EQ(t.min_hops(5, 5), 0);
  // Every resolved route is minimal and stays inside the link id space.
  Rng rng(1);
  std::vector<std::int32_t> load(static_cast<std::size_t>(t.num_links()), 0);
  for (int s = 0; s < t.hosts(); ++s) {
    for (int d = 0; d < t.hosts(); ++d) {
      if (s == d) continue;
      Route r;
      t.resolve(s, d, load, rng, r);
      ASSERT_EQ(r.nhops, t.min_hops(s, d)) << s << "->" << d;
      ASSERT_EQ(r.links[0], t.host_up(s));
      ASSERT_EQ(r.links[static_cast<std::size_t>(r.nhops - 1)],
                t.host_down(d));
      for (int i = 0; i < r.nhops; ++i) {
        ASSERT_GE(r.links[static_cast<std::size_t>(i)], 0);
        ASSERT_LT(r.links[static_cast<std::size_t>(i)], t.num_links());
      }
    }
  }
}

TEST(Topology, DragonflyMinHopClosedForm) {
  // a=4, p=2, h=2 -> g = a*h+1 = 9 groups, 72 hosts.
  DragonflyTopology t(72, 4, 2, 2, DragonflyRouting::kMinimal);
  ASSERT_EQ(t.groups(), 9);
  ASSERT_EQ(t.num_nodes(), 72);
  EXPECT_EQ(t.min_hops(0, 1), 2);  // same router: up, down
  EXPECT_EQ(t.min_hops(0, 2), 3);  // same group: up, local, down
  Rng rng(1);
  std::vector<std::int32_t> load(static_cast<std::size_t>(t.num_links()), 0);
  for (int s = 0; s < t.num_nodes(); ++s) {
    for (int d = 0; d < t.num_nodes(); ++d) {
      if (s == d) continue;
      Route r;
      t.resolve(s, d, load, rng, r);
      ASSERT_EQ(r.nhops, t.min_hops(s, d)) << s << "->" << d;
      // Minimal cross-group: 3 hops when the source router owns the direct
      // channel AND it lands on the destination router, 5 at most.
      if (t.group_of(s) != t.group_of(d)) {
        ASSERT_GE(r.nhops, 3);
        ASSERT_LE(r.nhops, 5);
      }
      for (int i = 0; i < r.nhops; ++i) {
        ASSERT_GE(r.links[static_cast<std::size_t>(i)], 0);
        ASSERT_LT(r.links[static_cast<std::size_t>(i)], t.num_links());
      }
    }
  }
}

TEST(Topology, DragonflyValiantStaysInBounds) {
  DragonflyTopology t(72, 4, 2, 2, DragonflyRouting::kValiant);
  Rng rng(7);
  std::vector<std::int32_t> load(static_cast<std::size_t>(t.num_links()), 0);
  for (int s = 0; s < t.num_nodes(); s += 3) {
    for (int d = 0; d < t.num_nodes(); d += 5) {
      if (s == d) continue;
      Route r;
      t.resolve(s, d, load, rng, r);
      // A detour can beat the *direct* route's hop count (both global
      // segments may skip their local hop), so the only lower bound is the
      // terminal pair; the upper bound is the Route capacity.
      ASSERT_GE(r.nhops, 2);
      ASSERT_LE(r.nhops, Route::kMaxHops);
      ASSERT_EQ(r.links[0], t.terminal_up(s));
      ASSERT_EQ(r.links[static_cast<std::size_t>(r.nhops - 1)],
                t.terminal_down(d));
    }
  }
}

TEST(Topology, DeterministicPoliciesIgnoreRngAndLoad) {
  FatTreeTopology t(16, 4, FatTreeRouting::kDeterministic);
  std::vector<std::int32_t> idle(static_cast<std::size_t>(t.num_links()), 0);
  std::vector<std::int32_t> busy(static_cast<std::size_t>(t.num_links()), 9);
  Rng r1(1), r2(999);
  Route a, b;
  t.resolve(0, 13, idle, r1, a);
  t.resolve(0, 13, busy, r2, b);
  ASSERT_EQ(a.nhops, b.nhops);
  for (int i = 0; i < a.nhops; ++i) {
    EXPECT_EQ(a.links[static_cast<std::size_t>(i)],
              b.links[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(r1.next_u64(), Rng(1).next_u64());  // stream untouched
}

// ---------------------------------------------------------------- fabric

TEST(Fabric, TwoFlowsSharingOneUplinkSeeHalfBandwidth) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  // Hosts 0 and 1 hang off the same edge switch; destinations 4 and 6 both
  // hash to aggregation uplink a=0 (dst % 2) but to different cores, so the
  // two routes share exactly one link: edge_agg_up(0, 0, 0).
  Time a1 = -1, a2 = -1;
  net.send(0, 4, 1'000'000, [&] { a1 = eng.now(); });
  net.send(1, 6, 1'000'000, [&] { a2 = eng.now(); });
  const auto& ft = dynamic_cast<const FatTreeTopology&>(net.topology());
  ASSERT_EQ(net.link_active(ft.edge_agg_up(0, 0, 0)), 2);
  eng.run();
  // Each flow's bottleneck share is 10/2 = 5 MB/s: 1 MB completes at 0.2 s.
  EXPECT_NEAR(to_seconds(a1), 0.2, 1e-6);
  EXPECT_NEAR(to_seconds(a2), 0.2, 1e-6);
}

TEST(Fabric, DisjointRoutesDoNotInterfere) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  // Pods 0->1 and 2->3: no shared link anywhere, both run at full rate.
  Time a1 = -1, a2 = -1;
  net.send(0, 4, 1'000'000, [&] { a1 = eng.now(); });
  net.send(8, 12, 1'000'000, [&] { a2 = eng.now(); });
  eng.run();
  EXPECT_NEAR(to_seconds(a1), 0.1, 1e-6);
  EXPECT_EQ(a1, a2);
}

TEST(Fabric, AdaptiveRoutingPicksLeastLoadedUplink) {
  Engine eng;
  Network net(eng, 16, fattree_params(FatTreeRouting::kAdaptive));
  const auto& ft = dynamic_cast<const FatTreeTopology&>(net.topology());
  // First flow takes the (tie -> lowest index) a=0 uplink; the second —
  // admitted after the first, at its own send — sees its load and must
  // route via a=1, leaving both flows uncontended.
  net.send(0, 4, 1'000'000, [] {});
  ASSERT_EQ(net.link_active(ft.edge_agg_up(0, 0, 0)), 1);
  net.send(1, 6, 1'000'000, [] {});
  EXPECT_EQ(net.link_active(ft.edge_agg_up(0, 0, 0)), 1);
  EXPECT_EQ(net.link_active(ft.edge_agg_up(0, 0, 1)), 1);
  eng.run();
}

TEST(Fabric, AbortedSenderReturnsBandwidthToSurvivor) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  Time survivor = -1;
  bool victim_delivered = false;
  net.send(0, 4, 1'000'000, [&] { survivor = eng.now(); });
  net.send(1, 6, 1'000'000, [&] { victim_delivered = true; });
  eng.call_at(50_ms, [&] { net.abort_transfers_from(1); });
  eng.run();
  // Shared uplink at 5 MB/s each until 50 ms (250 KB done), then the
  // survivor gets the full 10 MB/s for the remaining 750 KB: 125 ms total.
  EXPECT_NEAR(to_seconds(survivor), 0.125, 1e-6);
  EXPECT_FALSE(victim_delivered);
  EXPECT_EQ(net.fabric_bytes_dropped(), 1'000'000);
  EXPECT_EQ(net.fabric_bytes_delivered(), 1'000'000);
  EXPECT_EQ(net.active_transfers(), 0);
}

TEST(Fabric, NicAdmissionQueuesFifoPerSender) {
  Engine eng;
  NetParams p = fattree_params();
  p.topology.nic_concurrency = 1;
  Network net(eng, 16, p);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    net.send(0, 4, 100'000, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(net.active_transfers(), 1);
  EXPECT_EQ(net.queued_transfers(), 3);
  eng.run();
  ASSERT_EQ(order.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Fabric, SixtyFourKHostFabricIsSlim) {
  // 64k-rank claim: construction cost is flat arrays only. k=64 fat-tree
  // is exactly 65536 hosts / 393216 directed links; the derived dragonfly
  // rounds up past the node count.
  TopologyParams ft;
  ft.kind = TopologyKind::kFatTree;
  auto t1 = make_topology(ft, 65536);
  EXPECT_EQ(t1->num_nodes(), 65536);
  EXPECT_EQ(t1->num_links(), 6 * 65536);

  TopologyParams df;
  df.kind = TopologyKind::kDragonfly;
  auto t2 = make_topology(df, 65536);
  EXPECT_GE(t2->num_nodes(), 65536);

  Engine eng;
  NetParams p = fattree_params();
  p.topology.fattree_k = 0;  // derive: k=64
  Network net(eng, 65536, p);
  Time arrived = -1;
  net.send(0, 65535, 1'000'000, [&] { arrived = eng.now(); });
  eng.run();
  EXPECT_NEAR(to_seconds(arrived), 0.1, 1e-6);

  // The derived dragonfly, timed with nonzero per-message and per-hop
  // costs: an uncontended message over a global channel arrives at
  // bytes / bandwidth + per_message + nhops * hop_latency.
  Engine df_eng;
  NetParams dp;
  dp.bandwidth_Bps = 10e6;
  dp.per_message_s = 10e-6;
  dp.topology.kind = TopologyKind::kDragonfly;
  dp.topology.hop_latency_s = 1e-6;
  Network df_net(df_eng, 65536, dp);
  const auto& dt = dynamic_cast<const DragonflyTopology&>(df_net.topology());
  ASSERT_NE(dt.group_of(0), dt.group_of(65535));  // crosses a global channel
  const int nhops = dt.min_hops(0, 65535);
  Time df_arrived = -1;
  df_net.send(0, 65535, 1'000'000, [&] { df_arrived = df_eng.now(); });
  df_eng.run();
  EXPECT_NEAR(to_seconds(df_arrived),
              1'000'000 / dp.bandwidth_Bps + dp.per_message_s +
                  nhops * dp.topology.hop_latency_s,
              1e-8);
}

TEST(Fabric, SteadyStatePathIsAllocationFree) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  // Every host streams to its cross-fabric peer, back to back: the steady
  // state recycles pooled transfers and intrusive link members only.
  struct Stream {
    Engine* eng;
    Network* net;
    int src, dst, left;
    void operator()() {
      if (left > 0) {
        net->send(src, dst, 64 * 1024, Stream{eng, net, src, dst, left - 1});
      }
    }
  };
  for (int s = 0; s < 16; ++s) {
    const int d = (s + 8) % 16;
    net.send(s, d, 64 * 1024, Stream{&eng, &net, s, d, 499});
  }
  eng.run(5_s);  // warm-up: pool, heap, and due-ring at steady capacity
  const std::size_t before = g_allocs;
  eng.run(40_s);
  EXPECT_EQ(g_allocs - before, 0u);
  eng.run();
}

}  // namespace
}  // namespace gcr::sim
