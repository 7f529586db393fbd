// Network topologies: route resolution over explicit link graphs.
//
// A Topology maps a (src, dst) node pair to the ordered set of directed
// physical links the message crosses. The fabric layer (sim/network.hpp)
// models each link as a fair-share contended resource running at the NIC
// bandwidth (NetParams::bandwidth_Bps); the topology only decides *which*
// links a transfer occupies. The flat fabric, the paper's switched
// Ethernet, has no topology object: Network keeps the legacy NIC
// arithmetic for it. Two routed implementations:
//
//  - fat-tree:  k-ary Clos (Al-Fares layout): k pods of k/2 edge and k/2
//               aggregation switches, (k/2)^2 cores, k^3/4 hosts. Up-path
//               choice is the routing policy: deterministic (dst-hashed,
//               ECMP-like) or adaptive (least-loaded uplink at each stage).
//  - dragonfly: g groups of `a` routers, `p` hosts per router, `h` global
//               channels per router (g = a*h + 1, one channel per peer
//               group). Minimal routing takes the single direct global
//               channel; Valiant detours through a random intermediate
//               group to spread adversarial traffic.
//
// Everything is flat arrays indexed by node/link id — no per-node heap
// objects — so a 64k-host instance costs megabytes, not gigabytes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace gcr::sim {

enum class TopologyKind : std::uint8_t { kFlat, kFatTree, kDragonfly };

enum class FatTreeRouting : std::uint8_t { kDeterministic, kAdaptive };
enum class DragonflyRouting : std::uint8_t { kMinimal, kValiant };

struct TopologyParams {
  TopologyKind kind = TopologyKind::kFlat;

  /// Per-link propagation latency (paid once per hop, after the last byte
  /// clears the bottleneck).
  double hop_latency_s = 10e-6;
  /// Messages a node's NIC injects concurrently; later sends queue FIFO at
  /// the sender. 1 mirrors the flat model's serializing NIC.
  int nic_concurrency = 1;

  /// Fat-tree arity (even, >= 4); 0 derives the smallest k whose k^3/4
  /// hosts cover the node count.
  int fattree_k = 0;
  FatTreeRouting fattree_routing = FatTreeRouting::kDeterministic;

  /// Dragonfly shape; 0 derives a balanced instance (a = 2p, h = p) large
  /// enough for the node count.
  int df_routers_per_group = 0;  ///< a
  int df_nodes_per_router = 0;   ///< p
  int df_global_per_router = 0;  ///< h
  DragonflyRouting df_routing = DragonflyRouting::kMinimal;
};

/// An ordered list of directed link ids; value type, never heap-allocated.
struct Route {
  static constexpr int kMaxHops = 8;
  std::array<std::int32_t, kMaxHops> links;
  int nhops = 0;

  void push(std::int32_t link) {
    links[static_cast<std::size_t>(nhops++)] = link;
  }
};

class Topology {
 public:
  virtual ~Topology() = default;

  /// Hosts addressable as send() endpoints (may exceed the cluster's node
  /// count when the radix rounds up; surplus hosts simply stay idle).
  virtual int num_nodes() const = 0;
  /// Directed physical links (dense ids in [0, num_links)).
  virtual int num_links() const = 0;

  /// Resolves src -> dst (src != dst) into `out`. `load` is the per-link
  /// admitted-transfer count (adaptive policies read it; others ignore it);
  /// `rng` is drawn only by randomized policies (Valiant), so deterministic
  /// policies leave the stream untouched.
  virtual void resolve(int src, int dst, std::span<const std::int32_t> load,
                       Rng& rng, Route& out) const = 0;

  /// Closed-form minimal hop count (conformance oracle for resolve()).
  virtual int min_hops(int src, int dst) const = 0;
};

class FatTreeTopology final : public Topology {
 public:
  /// `k` even and >= 4; hosts = k^3/4 must cover `num_nodes`.
  FatTreeTopology(int num_nodes, int k, FatTreeRouting routing);

  int num_nodes() const override { return hosts_; }
  int num_links() const override { return 6 * hosts_; }
  void resolve(int src, int dst, std::span<const std::int32_t> load, Rng& rng,
               Route& out) const override;
  int min_hops(int src, int dst) const override;

  int k() const { return k_; }
  int hosts() const { return hosts_; }
  int pod_of(int host) const { return host / (half_ * half_); }
  int edge_of(int host) const { return (host % (half_ * half_)) / half_; }

  // Link-id layout (all directed; H = hosts). Tests assert against these.
  std::int32_t host_up(int h) const { return h; }
  std::int32_t host_down(int h) const { return hosts_ + h; }
  /// Edge switch (pod, e) -> aggregation switch (pod, a).
  std::int32_t edge_agg_up(int pod, int e, int a) const {
    return 2 * hosts_ + ((pod * half_ + e) * half_ + a);
  }
  /// Aggregation switch (pod, a) -> edge switch (pod, e).
  std::int32_t agg_edge_down(int pod, int a, int e) const {
    return 3 * hosts_ + ((pod * half_ + a) * half_ + e);
  }
  /// Aggregation switch (pod, a) -> core (a, j), j in [0, k/2).
  std::int32_t agg_core_up(int pod, int a, int j) const {
    return 4 * hosts_ + ((pod * half_ + a) * half_ + j);
  }
  /// Core (a, j) -> aggregation switch (pod, a).
  std::int32_t core_agg_down(int pod, int a, int j) const {
    return 5 * hosts_ + ((pod * half_ + a) * half_ + j);
  }

 private:
  int k_;
  int half_;  ///< k/2
  int hosts_;
  FatTreeRouting routing_;
};

class DragonflyTopology final : public Topology {
 public:
  /// `a` routers/group, `p` hosts/router, `h` global channels/router;
  /// groups g = a*h + 1 (one direct channel per peer group).
  DragonflyTopology(int num_nodes, int a, int p, int h,
                    DragonflyRouting routing);

  int num_nodes() const override { return hosts_; }
  int num_links() const override {
    return 2 * hosts_ + groups_ * a_ * (a_ - 1) + groups_ * a_ * h_;
  }
  void resolve(int src, int dst, std::span<const std::int32_t> load, Rng& rng,
               Route& out) const override;
  int min_hops(int src, int dst) const override;

  int groups() const { return groups_; }
  int group_of(int node) const { return node / (a_ * p_); }
  int router_of(int node) const { return (node % (a_ * p_)) / p_; }

  std::int32_t terminal_up(int node) const { return node; }
  std::int32_t terminal_down(int node) const { return hosts_ + node; }
  /// Directed local link router rs -> rd (rs != rd) inside group g.
  std::int32_t local_link(int g, int rs, int rd) const {
    return 2 * hosts_ + g * a_ * (a_ - 1) + rs * (a_ - 1) +
           (rd < rs ? rd : rd - 1);
  }
  /// Group g's directed global channel gc in [0, a*h); it lands in group
  /// (g + gc + 1) mod groups and is owned by router gc / h.
  std::int32_t global_link(int g, int gc) const {
    return 2 * hosts_ + groups_ * a_ * (a_ - 1) + g * (a_ * h_) + gc;
  }
  /// Channel index group `from` uses to reach group `to` directly.
  int channel_to(int from, int to) const {
    return (to - from - 1 + groups_) % groups_;
  }
  /// Router in `to` where the direct link from `from` lands (the owner of
  /// the paired reverse channel).
  int landing_router(int from, int to) const {
    return channel_to(to, from) / h_;
  }

 private:
  /// Appends the global-channel segment `from_router`@`gsrc` -> landing
  /// router in `gdst` (local hop to the gateway if needed, then the global
  /// link); returns the landing router index within `gdst`.
  int push_global_segment(int gsrc, int from_router, int gdst,
                          Route& out) const;

  int a_, p_, h_;
  int groups_;
  int hosts_;
  DragonflyRouting routing_;
};

/// Builds the configured routed topology sized for `num_nodes`; nullptr
/// for kFlat, which has no topology object.
std::unique_ptr<Topology> make_topology(const TopologyParams& params,
                                        int num_nodes);

const char* topology_kind_name(TopologyKind kind);
/// Parses "flat" / "fattree" / "dragonfly"; aborts on anything else.
TopologyKind parse_topology_kind(const std::string& name);

}  // namespace gcr::sim
