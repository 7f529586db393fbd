// Randomized topology-torture harness: multi-seed random fabrics x random
// traffic x random sender kills, asserting the fabric's conservation and
// lifetime invariants; plus end-to-end experiment runs over every topology
// kind with fault injection.
//
// Fabric invariants, per seed:
//   * conservation: every offered byte is eventually delivered or dropped
//     (offered == delivered + dropped once the fabric drains);
//   * no transfer outlives its killed sender: after abort_transfers_from(s)
//     at time T, a delivery from s can only be a transfer that had already
//     cleared its bottleneck, so it lands no later than T plus the
//     per-message + max-hop delivery delay;
//   * reruns with the same seed reproduce the exact delivery log
//     (times, endpoints, sizes — integer-exact).
// The CI ASan/UBSan matrix runs this TU, so lifetime bugs in the pooled
// transfer/intrusive-list machinery fail loudly rather than silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "apps/simple.hpp"
#include "exp/experiment.hpp"
#include "group/strategies.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace gcr::sim {
namespace {

struct Delivery {
  Time at;
  Time issued;  ///< when send() was called (kills only affect prior sends)
  int src, dst;
  std::int64_t bytes;
  bool operator==(const Delivery&) const = default;
};

struct FabricLog {
  std::vector<Delivery> deliveries;
  std::map<int, Time> aborted_at;
  std::int64_t offered = 0, delivered = 0, dropped = 0;
  int active_left = 0, queued_left = 0;

  bool operator==(const FabricLog&) const = default;
};

NetParams random_fabric(gcr::Rng& rng, int* nodes_out) {
  NetParams p;
  p.bandwidth_Bps = 10e6;
  p.per_message_s = 5e-6;
  p.topology.hop_latency_s = 10e-6;
  p.topology.nic_concurrency = 1 + static_cast<int>(rng.next_below(3));
  if (rng.next_below(2) == 0) {
    p.topology.kind = TopologyKind::kFatTree;
    p.topology.fattree_k = 4 + 2 * static_cast<int>(rng.next_below(2));
    p.topology.fattree_routing = rng.next_below(2) == 0
                                     ? FatTreeRouting::kDeterministic
                                     : FatTreeRouting::kAdaptive;
  } else {
    p.topology.kind = TopologyKind::kDragonfly;
    p.topology.df_routers_per_group = 4;
    p.topology.df_nodes_per_router = 2;
    p.topology.df_global_per_router = 2;
    p.topology.df_routing = rng.next_below(2) == 0
                                ? DragonflyRouting::kMinimal
                                : DragonflyRouting::kValiant;
  }
  // Use a node count below the fabric's host capacity so surplus hosts are
  // exercised as permanently idle endpoints.
  *nodes_out = p.topology.kind == TopologyKind::kFatTree
                   ? (p.topology.fattree_k == 4 ? 14 : 50)
                   : 70;
  return p;
}

FabricLog run_fabric_torture(std::uint64_t seed) {
  gcr::Rng rng(mix_seed(0x746f7274, seed));
  int nodes = 0;
  const NetParams params = random_fabric(rng, &nodes);

  Engine eng;
  Network net(eng, nodes, params);
  FabricLog log;

  // Random traffic: bursts of sends at random times, sizes spanning four
  // orders of magnitude (zero-byte control messages included).
  const int sends = 300 + static_cast<int>(rng.next_below(300));
  for (int i = 0; i < sends; ++i) {
    const auto src = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(nodes)));
    auto dst = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(nodes)));
    if (dst == src) dst = (dst + 1) % nodes;  // loopback is not fabric
    const std::int64_t bytes =
        rng.next_below(5) == 0 ? 0
                               : static_cast<std::int64_t>(
                                     rng.next_below(400'000));
    const Time at = static_cast<Time>(rng.next_below(400'000'000));  // 400 ms
    eng.call_at(at, [&net, &log, &eng, src, dst, bytes] {
      const Time issued = eng.now();
      net.send(src, dst, bytes, [&log, &eng, issued, src, dst, bytes] {
        log.deliveries.push_back({eng.now(), issued, src, dst, bytes});
      });
    });
  }

  // Random kills: a handful of senders lose everything queued or in flight.
  const int kills = 2 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < kills; ++i) {
    const auto node = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(nodes)));
    const Time at = static_cast<Time>(100'000'000 + rng.next_below(300'000'000));
    eng.call_at(at, [&net, &log, node, at] {
      net.abort_transfers_from(node);
      log.aborted_at.emplace(node, at);  // first abort wins
    });
  }

  eng.run();
  log.offered = net.fabric_bytes_offered();
  log.delivered = net.fabric_bytes_delivered();
  log.dropped = net.fabric_bytes_dropped();
  log.active_left = net.active_transfers();
  log.queued_left = net.queued_transfers();
  return log;
}

class TopologyTortureTest : public ::testing::TestWithParam<int> {};

TEST_P(TopologyTortureTest, ConservationLifetimeAndDeterminism) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const FabricLog log = run_fabric_torture(seed);

  // Conservation: the engine drained, so nothing is still in flight and
  // every offered byte is accounted for exactly once.
  EXPECT_EQ(log.active_left, 0) << "seed " << seed;
  EXPECT_EQ(log.queued_left, 0) << "seed " << seed;
  EXPECT_EQ(log.offered, log.delivered + log.dropped) << "seed " << seed;
  std::int64_t delivered_sum = 0;
  for (const Delivery& d : log.deliveries) delivered_sum += d.bytes;
  EXPECT_EQ(delivered_sum, log.delivered) << "seed " << seed;

  // Lifetime: a transfer issued before its sender's abort either died with
  // it or had already cleared its bottleneck — in which case it lands
  // within the fixed delivery delay (per-message + at most kMaxHops hop
  // latencies) of the abort. Sends issued *after* the abort are ordinary
  // traffic (abort drops state, it does not disable the NIC).
  const Time max_delivery =
      from_seconds(5e-6 + Route::kMaxHops * 10e-6) + 1;
  for (const Delivery& d : log.deliveries) {
    const auto it = log.aborted_at.find(d.src);
    // >= : a same-tick send may be ordered after the abort callback.
    if (it == log.aborted_at.end() || d.issued >= it->second) continue;
    EXPECT_LE(d.at, it->second + max_delivery)
        << "seed " << seed << ": delivery from killed sender " << d.src
        << " outlived the abort";
  }

  // Determinism: the rerun's delivery log is integer-exact.
  const FabricLog rerun = run_fabric_torture(seed);
  EXPECT_TRUE(log == rerun) << "seed " << seed << " is not deterministic ("
                            << log.deliveries.size() << " vs "
                            << rerun.deliveries.size() << " deliveries)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyTortureTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace gcr::sim

namespace gcr::exp {
namespace {

/// End-to-end: the full protocol stack (checkpoints + faults + recovery)
/// over each fabric kind. The routed egress wait replaces the flat model's
/// exact NIC timestamps, so this exercises egress waits cut short by kills,
/// kill-time transfer aborts, and replay pacing under contention.
ExperimentConfig e2e_config(std::uint64_t seed, sim::TopologyKind kind) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.nranks = 16;
  apps::Stencil1dParams p;
  p.iterations = 20;
  p.halo_bytes = 24 * 1024;
  p.compute_s = 0.004;
  p.mem_bytes = 512 * 1024;
  cfg.app = [p](int n) { return apps::make_stencil1d(n, p); };
  cfg.groups = group::make_blocks(16, 4);
  cfg.topology.kind = kind;
  cfg.topology.fattree_routing = sim::FatTreeRouting::kAdaptive;
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.03;
  cfg.schedule.interval_s = 0.1;
  // Aggressive per-node hazard with fast detection: several faults per
  // run, so kills land inside checkpoint rounds, replay, and in-flight
  // fabric transfers — while staying ahead of the fault rate.
  cfg.recovery.detect_s = 0.05;
  cfg.recovery.relaunch_s = 0.05;
  cfg.fault_model.kind = sim::FaultModelKind::kExponential;
  cfg.fault_model.mtbf_s = 2.0;
  cfg.max_sim_s = 300.0;
  return cfg;
}

class TopologyE2eTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TopologyE2eTest, ProtocolsSurviveFaultsOnEveryFabric) {
  const auto seed = static_cast<std::uint64_t>(std::get<0>(GetParam()));
  const auto kind = static_cast<sim::TopologyKind>(std::get<1>(GetParam()));
  const ExperimentConfig cfg = e2e_config(seed, kind);
  const ExperimentResult res = run_experiment(cfg);
  ASSERT_TRUE(res.finished)
      << "seed " << seed << " kind " << static_cast<int>(kind)
      << " hit the watchdog";
  EXPECT_EQ(res.failures_injected,
            res.recoveries_completed + res.recoveries_aborted);

  const ExperimentResult rerun = run_experiment(cfg);
  EXPECT_EQ(res.exec_time_s, rerun.exec_time_s) << "not deterministic";
  EXPECT_EQ(res.failures_injected, rerun.failures_injected);
  EXPECT_EQ(res.checkpoints_completed, rerun.checkpoints_completed);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByFabric, TopologyE2eTest,
    ::testing::Combine(::testing::Range(1, 4), ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace gcr::exp
