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

FatTreeTopology::FatTreeTopology(int num_nodes, int k)
    : k_(k), half_(k / 2), hosts_(k * k * k / 4) {
  GCR_CHECK(k >= 4 && k % 2 == 0);
  GCR_CHECK(hosts_ >= num_nodes);
}

void FatTreeTopology::resolve(int src, int dst,
                              std::span<const std::int32_t> load,
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
  // behind it). Adaptive: the least-loaded uplink at each stage, lowest
  // index on ties.
  int a = 0;
  std::int32_t best = load[static_cast<std::size_t>(edge_agg_up(ps, es, 0))];
  for (int cand = 1; cand < half_; ++cand) {
    const std::int32_t l =
        load[static_cast<std::size_t>(edge_agg_up(ps, es, cand))];
    if (l < best) {
      best = l;
      a = cand;
    }
  }
  out.push(edge_agg_up(ps, es, a));

  if (ps != pd) {
    int j = 0;
    best = load[static_cast<std::size_t>(agg_core_up(ps, a, 0))];
    for (int cand = 1; cand < half_; ++cand) {
      const std::int32_t l =
          load[static_cast<std::size_t>(agg_core_up(ps, a, cand))];
      if (l < best) {
        best = l;
        j = cand;
      }
    }
    out.push(agg_core_up(ps, a, j));
    out.push(core_agg_down(pd, a, j));  // core (a, j) reaches agg a everywhere
  }
  out.push(agg_edge_down(pd, a, ed));
  out.push(host_down(dst));
}

// ---------------------------------------------------------------------------
// Dragonfly

DragonflyTopology::DragonflyTopology(int num_nodes, int a, int p, int h)
    : a_(a), p_(p), h_(h), groups_(a * h + 1), hosts_(groups_ * a * p) {
  GCR_CHECK(a >= 2 && p >= 1 && h >= 1);
  GCR_CHECK(hosts_ >= num_nodes);
}

void DragonflyTopology::resolve(int src, int dst,
                                std::span<const std::int32_t>,
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

  // Minimal: a local hop to the router owning the direct channel if needed,
  // the global link, then a local hop from where it lands if needed.
  const int gc = channel_to(gs, gd);
  const int gateway = gc / h_;
  if (rs != gateway) out.push(local_link(gs, rs, gateway));
  out.push(global_link(gs, gc));
  const int landing = landing_router(gs, gd);
  if (landing != rd) out.push(local_link(gd, landing, rd));
  out.push(terminal_down(dst));
}

// ---------------------------------------------------------------------------
// Factory

std::unique_ptr<Topology> make_topology(const TopologyParams& params,
                                        int num_nodes) {
  GCR_CHECK(num_nodes > 0);
  switch (params.kind) {
    case TopologyKind::kFlat:
      return nullptr;
    case TopologyKind::kFatTree:
      return std::make_unique<FatTreeTopology>(num_nodes,
                                               derive_fattree_k(num_nodes));
    case TopologyKind::kDragonfly: {
      const int p = derive_dragonfly_p(num_nodes);
      return std::make_unique<DragonflyTopology>(num_nodes, 2 * p, p, p);
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
