#include "sim/topology.hpp"

#include <string>

#include "util/assert.hpp"

namespace gcr::sim {
namespace {

/// Smallest even k >= 4 with k^3/4 hosts >= n.
int derive_fattree_k(int n) {
  for (int k = 4;; k += 2) {
    const long long hosts = static_cast<long long>(k) * k * k / 4;
    if (hosts >= n) return k;
    GCR_CHECK(k < 1024);  // 2^28 hosts; anything past this is a config bug
  }
}

/// Smallest balanced dragonfly (a = 2p, h = p) covering n nodes.
int derive_dragonfly_p(int n) {
  for (int p = 1;; ++p) {
    // hosts = g*a*p with a = 2p, h = p, g = a*h + 1 = 2p^2 + 1.
    const long long g = 2LL * p * p + 1;
    if (g * (2 * p) * p >= n) return p;
    GCR_CHECK(p < 4096);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Fat-tree

FatTreeTopology::FatTreeTopology(int num_nodes, int k, FatTreeRouting routing)
    : k_(k), half_(k / 2), hosts_(k * k * k / 4), routing_(routing) {
  GCR_CHECK(k >= 4 && k % 2 == 0);
  GCR_CHECK(hosts_ >= num_nodes);
}

void FatTreeTopology::resolve(int src, int dst,
                              std::span<const std::int32_t> load, Rng&,
                              Route& out) const {
  GCR_ASSERT(src != dst);
  GCR_ASSERT(src >= 0 && src < hosts_ && dst >= 0 && dst < hosts_);
  out.nhops = 0;
  out.push(host_up(src));
  const int ps = pod_of(src), pd = pod_of(dst);
  const int es = edge_of(src), ed = edge_of(dst);
  if (ps == pd && es == ed) {
    out.push(host_down(dst));
    return;
  }

  // Up-path choice: which aggregation switch (and, cross-pod, which core
  // behind it). Deterministic hashes the destination so any single pair
  // always takes one path (ECMP-style); adaptive takes the least-loaded
  // uplink at each stage, lowest index on ties.
  int a;
  if (routing_ == FatTreeRouting::kDeterministic) {
    a = dst % half_;
  } else {
    a = 0;
    std::int32_t best = load[static_cast<std::size_t>(edge_agg_up(ps, es, 0))];
    for (int cand = 1; cand < half_; ++cand) {
      const std::int32_t l =
          load[static_cast<std::size_t>(edge_agg_up(ps, es, cand))];
      if (l < best) {
        best = l;
        a = cand;
      }
    }
  }
  out.push(edge_agg_up(ps, es, a));

  if (ps != pd) {
    int j;
    if (routing_ == FatTreeRouting::kDeterministic) {
      j = (dst / half_) % half_;
    } else {
      j = 0;
      std::int32_t best =
          load[static_cast<std::size_t>(agg_core_up(ps, a, 0))];
      for (int cand = 1; cand < half_; ++cand) {
        const std::int32_t l =
            load[static_cast<std::size_t>(agg_core_up(ps, a, cand))];
        if (l < best) {
          best = l;
          j = cand;
        }
      }
    }
    out.push(agg_core_up(ps, a, j));
    out.push(core_agg_down(pd, a, j));  // core (a, j) reaches agg a everywhere
  }
  out.push(agg_edge_down(pd, a, ed));
  out.push(host_down(dst));
}

int FatTreeTopology::min_hops(int src, int dst) const {
  if (src == dst) return 0;
  if (pod_of(src) != pod_of(dst)) return 6;
  return edge_of(src) == edge_of(dst) ? 2 : 4;
}

// ---------------------------------------------------------------------------
// Dragonfly

DragonflyTopology::DragonflyTopology(int num_nodes, int a, int p, int h,
                                     DragonflyRouting routing)
    : a_(a), p_(p), h_(h), groups_(a * h + 1), hosts_(groups_ * a * p),
      routing_(routing) {
  GCR_CHECK(a >= 2 && p >= 1 && h >= 1);
  GCR_CHECK(hosts_ >= num_nodes);
}

int DragonflyTopology::push_global_segment(int gsrc, int from_router, int gdst,
                                           Route& out) const {
  const int gc = channel_to(gsrc, gdst);
  const int gateway = gc / h_;
  if (from_router != gateway) out.push(local_link(gsrc, from_router, gateway));
  out.push(global_link(gsrc, gc));
  return landing_router(gsrc, gdst);
}

void DragonflyTopology::resolve(int src, int dst,
                                std::span<const std::int32_t>, Rng& rng,
                                Route& out) const {
  GCR_ASSERT(src != dst);
  GCR_ASSERT(src >= 0 && src < hosts_ && dst >= 0 && dst < hosts_);
  out.nhops = 0;
  const int gs = group_of(src), gd = group_of(dst);
  const int rs = router_of(src), rd = router_of(dst);
  out.push(terminal_up(src));

  if (gs == gd) {
    if (rs != rd) out.push(local_link(gs, rs, rd));
    out.push(terminal_down(dst));
    return;
  }

  int at_group = gs;
  int at_router = rs;
  if (routing_ == DragonflyRouting::kValiant && groups_ >= 3) {
    // Detour through a uniformly random group other than src's and dst's:
    // draw from [0, g-2) and skip over the excluded pair in ascending order.
    int gm = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(groups_ - 2)));
    const int lo = gs < gd ? gs : gd;
    const int hi = gs < gd ? gd : gs;
    if (gm >= lo) ++gm;
    if (gm >= hi) ++gm;
    at_router = push_global_segment(at_group, at_router, gm, out);
    at_group = gm;
  }
  at_router = push_global_segment(at_group, at_router, gd, out);
  if (at_router != rd) out.push(local_link(gd, at_router, rd));
  out.push(terminal_down(dst));
}

int DragonflyTopology::min_hops(int src, int dst) const {
  if (src == dst) return 0;
  const int gs = group_of(src), gd = group_of(dst);
  const int rs = router_of(src), rd = router_of(dst);
  if (gs == gd) return rs == rd ? 2 : 3;
  const int gateway = channel_to(gs, gd) / h_;
  const int landing = landing_router(gs, gd);
  return 3 + (rs != gateway ? 1 : 0) + (landing != rd ? 1 : 0);
}

// ---------------------------------------------------------------------------
// Factory

std::unique_ptr<Topology> make_topology(const TopologyParams& params,
                                        int num_nodes) {
  GCR_CHECK(num_nodes > 0);
  switch (params.kind) {
    case TopologyKind::kFlat:
      return nullptr;
    case TopologyKind::kFatTree: {
      const int k =
          params.fattree_k > 0 ? params.fattree_k : derive_fattree_k(num_nodes);
      return std::make_unique<FatTreeTopology>(num_nodes, k,
                                               params.fattree_routing);
    }
    case TopologyKind::kDragonfly: {
      int a = params.df_routers_per_group;
      int p = params.df_nodes_per_router;
      int h = params.df_global_per_router;
      if (a == 0 && p == 0 && h == 0) {
        p = derive_dragonfly_p(num_nodes);
        a = 2 * p;
        h = p;
      } else {
        if (p == 0) p = 1;
        if (a == 0) a = 2 * p;
        if (h == 0) h = (a + 1) / 2;
      }
      return std::make_unique<DragonflyTopology>(num_nodes, a, p, h,
                                                 params.df_routing);
    }
  }
  GCR_CHECK(false);
  return nullptr;
}

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kFlat: return "flat";
    case TopologyKind::kFatTree: return "fattree";
    case TopologyKind::kDragonfly: return "dragonfly";
  }
  return "?";
}

TopologyKind parse_topology_kind(const std::string& name) {
  if (name == "flat") return TopologyKind::kFlat;
  if (name == "fattree" || name == "fat-tree") return TopologyKind::kFatTree;
  if (name == "dragonfly") return TopologyKind::kDragonfly;
  GCR_CHECK(false && "unknown topology (expected flat|fattree|dragonfly)");
  return TopologyKind::kFlat;
}

}  // namespace gcr::sim
