// The member-list broadcast and the allreduce built on it: completion and
// exact message counts across rank counts (parameterized).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mpi/runtime.hpp"
#include "sim/cluster.hpp"

namespace gcr::mpi {
namespace {

constexpr int kTag = 7;

sim::ClusterParams cluster_params(int nranks) {
  sim::ClusterParams p;
  p.num_nodes = nranks + 1;
  p.jitter.enabled = false;
  return p;
}

std::vector<RankId> every_rank(int n) {
  std::vector<RankId> members;
  for (RankId r = 0; r < n; ++r) members.push_back(r);
  return members;
}

/// App-plane messages rank `r` received, from all peers.
std::uint64_t received(Runtime& rt, RankId r) {
  std::uint64_t total = 0;
  for (RankId peer = 0; peer < rt.nranks(); ++peer) {
    total += rt.rank(r).recvd_from(peer).count;
  }
  return total;
}

class CollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesTest, BcastOverEveryRankReachesEachOnce) {
  const int n = GetParam();
  sim::Cluster cluster(cluster_params(n));
  Runtime rt(cluster, n);
  const std::vector<RankId> members = every_rank(n);
  rt.start_app([&members](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    // Roots at both ends of the list exercise the rotation.
    co_await h.bcast(members, h.id(), 0, 1 << 16, kTag);
    co_await h.bcast(members, h.id(), h.nranks() - 1, 1 << 10, kTag);
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  ASSERT_TRUE(rt.job_finished());
  // A binomial broadcast sends exactly n-1 messages per operation, one to
  // each member but the root.
  EXPECT_EQ(rt.app_messages_sent(), 2 * (n - 1));
  for (RankId r = 0; r < n; ++r) {
    const std::uint64_t rooted = (r == 0 ? 1u : 0u) + (r == n - 1 ? 1u : 0u);
    EXPECT_EQ(received(rt, r), 2 - rooted) << "rank " << r;
  }
}

TEST_P(CollectivesTest, BcastOverStrictSubsetStaysInside) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP() << "one rank has no strict subset";
  // The even ranks, listed in descending order so that list positions and
  // rank ids differ; the root sits in the middle of the list.
  std::vector<RankId> members;
  for (RankId r = n - 1; r >= 0; --r) {
    if (r % 2 == 0) members.push_back(r);
  }
  const int m = static_cast<int>(members.size());
  const RankId root = members[static_cast<std::size_t>(m / 2)];
  sim::Cluster cluster(cluster_params(n));
  Runtime rt(cluster, n);
  rt.start_app([&members, m](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    const auto it = std::find(members.begin(), members.end(), h.id());
    if (it != members.end()) {
      co_await h.bcast(members, static_cast<int>(it - members.begin()), m / 2,
                       4096, kTag);
    }
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  ASSERT_TRUE(rt.job_finished());
  EXPECT_EQ(rt.app_messages_sent(), m - 1);
  for (RankId r = 0; r < n; ++r) {
    const bool receives = r % 2 == 0 && r != root;
    EXPECT_EQ(received(rt, r), receives ? 1u : 0u) << "rank " << r;
  }
}

TEST_P(CollectivesTest, AllreduceSendsTwiceNMinus1) {
  const int n = GetParam();
  sim::Cluster cluster(cluster_params(n));
  Runtime rt(cluster, n);
  rt.start_app([](AppHandle h) -> sim::Co<void> {
    co_await h.safepoint(0);
    // Back to back: per-pair sequence matching keeps the rounds apart.
    co_await h.allreduce(8);
    co_await h.allreduce(8);
    co_await h.safepoint(1);
  });
  cluster.engine().run();
  ASSERT_TRUE(rt.job_finished());
  // n-1 reduce messages towards rank 0, then n-1 broadcast back, per call.
  EXPECT_EQ(rt.app_messages_sent(), 2 * 2 * (n - 1));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16, 32));

// The caller's position is checked against the list, not searched for.
TEST(CollectivesDeathTest, BcastChecksTheCallersIndex) {
  const auto run = [] {
    sim::Cluster cluster(cluster_params(2));
    Runtime rt(cluster, 2);
    const std::vector<RankId> members = every_rank(2);
    rt.start_app([&members](AppHandle h) -> sim::Co<void> {
      co_await h.bcast(members, /*self=*/0, 0, 8, kTag);
    });
    cluster.engine().run();
  };
  EXPECT_DEATH(run(), "bcast caller is not members\\[self\\]");
}

}  // namespace
}  // namespace gcr::mpi
