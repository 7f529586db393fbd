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

namespace gcr::sim {
namespace {

/// 16 hosts (a derived k=4 fat-tree) over 10 MB/s links, so completion
/// times are bandwidth arithmetic plus routed_tail().
NetParams fattree_params() {
  NetParams p;
  p.bandwidth_Bps = 10e6;
  p.topology.kind = TopologyKind::kFatTree;
  return p;
}

/// Seconds a routed message pays after its last byte clears the bottleneck.
double routed_tail(int nhops) {
  return to_seconds(
      from_seconds(Network::kPerMessageS + nhops * Network::kHopLatencyS));
}

// Closed-form minimal hop counts: the conformance oracle for resolve(),
// written over the topologies' public layout accessors.

int min_hops(const FatTreeTopology& t, int src, int dst) {
  if (src == dst) return 0;
  if (t.pod_of(src) != t.pod_of(dst)) return 6;
  return t.edge_of(src) == t.edge_of(dst) ? 2 : 4;
}

/// Terminal up and down, plus a local hop inside one group; across groups,
/// the direct global link with a local hop to its owning router and one
/// from the router it lands on, each only when needed.
int min_hops(const DragonflyTopology& t, int src, int dst) {
  if (src == dst) return 0;
  const int gs = t.group_of(src), gd = t.group_of(dst);
  const int rs = t.router_of(src), rd = t.router_of(dst);
  if (gs == gd) return rs == rd ? 2 : 3;
  // The channel pair is symmetric: gs's channel to gd is owned by the
  // router that gd's channel to gs lands on.
  const int gateway = t.landing_router(gd, gs);
  const int landing = t.landing_router(gs, gd);
  return 3 + (rs != gateway ? 1 : 0) + (landing != rd ? 1 : 0);
}

TEST(Topology, FatTreeMinHopClosedForm) {
  FatTreeTopology t(16, 4);
  EXPECT_EQ(min_hops(t, 0, 1), 2);   // same edge switch
  EXPECT_EQ(min_hops(t, 0, 2), 4);   // same pod, different edge
  EXPECT_EQ(min_hops(t, 0, 4), 6);   // different pod (via core)
  EXPECT_EQ(min_hops(t, 5, 5), 0);
  // Every resolved route is minimal and stays inside the link id space.
  std::vector<std::int32_t> load(static_cast<std::size_t>(t.num_links()), 0);
  for (int s = 0; s < t.hosts(); ++s) {
    for (int d = 0; d < t.hosts(); ++d) {
      if (s == d) continue;
      Route r;
      t.resolve(s, d, load, r);
      ASSERT_EQ(r.nhops, min_hops(t, s, d)) << s << "->" << d;
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
  DragonflyTopology t(72, 4, 2, 2);
  ASSERT_EQ(t.groups(), 9);
  ASSERT_EQ(t.num_nodes(), 72);
  EXPECT_EQ(min_hops(t, 0, 1), 2);  // same router: up, down
  EXPECT_EQ(min_hops(t, 0, 2), 3);  // same group: up, local, down
  std::vector<std::int32_t> load(static_cast<std::size_t>(t.num_links()), 0);
  for (int s = 0; s < t.num_nodes(); ++s) {
    for (int d = 0; d < t.num_nodes(); ++d) {
      if (s == d) continue;
      Route r;
      t.resolve(s, d, load, r);
      ASSERT_EQ(r.nhops, min_hops(t, s, d)) << s << "->" << d;
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

// ---------------------------------------------------------------- fabric

TEST(Fabric, TwoFlowsSharingOneLinkSeeHalfBandwidth) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  // Hosts 0 and 1 hang off the same edge switch and both send to host 4.
  // Adaptive routing sends the second flow up the free uplink, so the two
  // routes share exactly the link no routing can avoid: host_down(4).
  Time a1 = -1, a2 = -1;
  net.send(0, 4, 1'000'000, [&] { a1 = eng.now(); });
  net.send(1, 4, 1'000'000, [&] { a2 = eng.now(); });
  const auto& ft = dynamic_cast<const FatTreeTopology&>(net.topology());
  ASSERT_EQ(net.link_active(ft.host_down(4)), 2);
  ASSERT_EQ(net.link_active(ft.edge_agg_up(0, 0, 0)), 1);
  eng.run();
  // Each flow's bottleneck share is 10/2 = 5 MB/s: 1 MB clears at 0.2 s.
  EXPECT_NEAR(to_seconds(a1), 0.2 + routed_tail(6), 1e-6);
  EXPECT_NEAR(to_seconds(a2), 0.2 + routed_tail(6), 1e-6);
}

TEST(Fabric, DisjointRoutesDoNotInterfere) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  // Pods 0->1 and 2->3: no shared link anywhere, both run at full rate.
  Time a1 = -1, a2 = -1;
  net.send(0, 4, 1'000'000, [&] { a1 = eng.now(); });
  net.send(8, 12, 1'000'000, [&] { a2 = eng.now(); });
  eng.run();
  EXPECT_NEAR(to_seconds(a1), 0.1 + routed_tail(6), 1e-6);
  EXPECT_EQ(a1, a2);
}

TEST(Fabric, AdaptiveRoutingPicksLeastLoadedUplink) {
  Engine eng;
  Network net(eng, 16, fattree_params());
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
  // Both flows end at host 4, so they share its host_down link.
  net.send(0, 4, 1'000'000, [&] { survivor = eng.now(); });
  net.send(1, 4, 1'000'000, [&] { victim_delivered = true; });
  eng.call_at(50_ms, [&] { net.abort_transfers_from(1); });
  eng.run();
  // Shared link at 5 MB/s each until 50 ms (250 KB done), then the
  // survivor gets the full 10 MB/s for the remaining 750 KB: 125 ms total.
  EXPECT_NEAR(to_seconds(survivor), 0.125 + routed_tail(6), 1e-6);
  EXPECT_FALSE(victim_delivered);
  EXPECT_EQ(net.fabric_bytes_dropped(), 1'000'000);
  EXPECT_EQ(net.fabric_bytes_delivered(), 1'000'000);
  EXPECT_EQ(net.active_transfers(), 0);
}

TEST(Fabric, NicAdmissionQueuesFifoPerSender) {
  Engine eng;
  Network net(eng, 16, fattree_params());
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    net.send(0, 4, 100'000, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(net.active_transfers(), Network::kNicConcurrency);
  EXPECT_EQ(net.queued_transfers(), 4 - Network::kNicConcurrency);
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
  Network net(eng, 65536, fattree_params());  // derives k=64
  Time arrived = -1;
  net.send(0, 65535, 1'000'000, [&] { arrived = eng.now(); });
  eng.run();
  EXPECT_NEAR(to_seconds(arrived), 0.1 + routed_tail(6), 1e-6);

  // The derived dragonfly: an uncontended message over a global channel
  // arrives at bytes / bandwidth + per_message + nhops * hop_latency.
  Engine df_eng;
  NetParams dp;
  dp.bandwidth_Bps = 10e6;
  dp.topology.kind = TopologyKind::kDragonfly;
  Network df_net(df_eng, 65536, dp);
  const auto& dt = dynamic_cast<const DragonflyTopology&>(df_net.topology());
  ASSERT_NE(dt.group_of(0), dt.group_of(65535));  // crosses a global channel
  const int nhops = min_hops(dt, 0, 65535);
  Time df_arrived = -1;
  df_net.send(0, 65535, 1'000'000, [&] { df_arrived = df_eng.now(); });
  df_eng.run();
  EXPECT_NEAR(to_seconds(df_arrived),
              1'000'000 / dp.bandwidth_Bps + Network::kPerMessageS +
                  nhops * Network::kHopLatencyS,
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
