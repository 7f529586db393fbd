// Checkpoint substrate (image model, registry), metrics aggregation, and the
// CLI parser used by the bench/example binaries.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "ckpt/image.hpp"
#include "core/metrics.hpp"
#include "util/cli.hpp"

namespace gcr {
namespace {

sim::ClusterParams small_cluster(int nodes, int servers) {
  sim::ClusterParams p;
  p.num_nodes = nodes;
  p.num_remote_servers = servers;
  p.local_disk = sim::StorageParams{100e6, 0.0};
  p.remote_server = sim::StorageParams{12.5e6, 0.0};
  p.jitter.enabled = false;
  return p;
}

/// Stages the image of the rank on `node` (one rank per node); in direct
/// mode that is the setup delay plus one device write, and commit is a
/// no-op.
sim::Co<void> timed_write(ckpt::Checkpointer& ck, int node, std::int64_t bytes,
                          sim::Time* done, sim::Engine& eng) {
  co_await ck.stage_image(node, /*rank=*/node, /*epoch=*/1, bytes);
  *done = eng.now();
}

TEST(Checkpointer, LocalImageTimeIsSetupPlusBandwidth) {
  sim::Cluster cluster(small_cluster(2, 0));
  ckpt::Checkpointer ck(cluster);
  sim::Time done = 0;
  cluster.engine().spawn(
      timed_write(ck, 0, 100'000'000, &done, cluster.engine()));
  cluster.engine().run();
  // 100MB @ 100MB/s after the per-image setup.
  EXPECT_NEAR(sim::to_seconds(done), ckpt::Checkpointer::kSetupS + 1.0, 1e-6);
}

TEST(Checkpointer, RemoteImagesContendOnSharedServers) {
  // 4 nodes, 2 servers: nodes 0,2 share server 0 and serialize; 1,3 share
  // server 1. Each 12.5MB image takes 1s of server time, after the
  // per-image setup every writer pays at once.
  sim::Cluster cluster(small_cluster(4, 2));
  ckpt::CheckpointerOptions opts;
  opts.remote_storage = true;
  ckpt::Checkpointer ck(cluster, opts);
  std::vector<sim::Time> done(4, 0);
  for (int node = 0; node < 4; ++node) {
    cluster.engine().spawn(
        timed_write(ck, node, 12'500'000, &done[node], cluster.engine()));
  }
  cluster.engine().run();
  const double setup = ckpt::Checkpointer::kSetupS;
  EXPECT_NEAR(sim::to_seconds(done[0]), setup + 1.0, 1e-6);
  EXPECT_NEAR(sim::to_seconds(done[1]), setup + 1.0, 1e-6);
  // Queued behind node 0.
  EXPECT_NEAR(sim::to_seconds(done[2]), setup + 2.0, 1e-6);
  EXPECT_NEAR(sim::to_seconds(done[3]), setup + 2.0, 1e-6);
}

ckpt::StoredCheckpoint image(mpi::RankId rank, std::uint64_t epoch) {
  ckpt::StoredCheckpoint img;
  img.meta.rank = rank;
  img.meta.epoch = epoch;
  return img;
}

/// Commits one rank's image through the two-phase path, as a one-member
/// group.
void commit(ckpt::ImageRegistry& reg, mpi::RankId rank, std::uint64_t epoch) {
  reg.stage(image(rank, epoch));
  reg.commit_group({rank}, epoch);
}

TEST(ImageRegistry, LatestWinsPerRank) {
  ckpt::ImageRegistry reg;
  EXPECT_EQ(reg.latest(0), nullptr);
  commit(reg, 0, 1);
  commit(reg, 0, 2);
  ASSERT_NE(reg.latest(0), nullptr);
  EXPECT_EQ(reg.latest(0)->meta.epoch, 2u);
}

TEST(ImageRegistry, StagedImagesInvisibleUntilGroupCommit) {
  ckpt::ImageRegistry reg;
  commit(reg, 0, 1);  // a committed earlier epoch
  reg.stage(image(0, 2));
  reg.stage(image(1, 2));
  EXPECT_TRUE(reg.has_staged(0));
  EXPECT_TRUE(reg.has_staged(1));
  // Staged images are invisible to restore until the group commits.
  EXPECT_EQ(reg.latest(0)->meta.epoch, 1u);
  EXPECT_EQ(reg.latest(1), nullptr);
  reg.commit_group({0, 1}, 2);
  EXPECT_FALSE(reg.has_staged(0));
  EXPECT_EQ(reg.latest(0)->meta.epoch, 2u);
  EXPECT_EQ(reg.latest(1)->meta.epoch, 2u);
}

TEST(ImageRegistry, DiscardStagedRollsBackToPreviousEpoch) {
  ckpt::ImageRegistry reg;
  commit(reg, 3, 5);
  reg.stage(image(3, 6));
  // A failure before commit discards the stage (Interposer::rank_killed);
  // restore sees the previous epoch, never the torn image.
  reg.discard_staged(3);
  EXPECT_FALSE(reg.has_staged(3));
  EXPECT_EQ(reg.latest(3)->meta.epoch, 5u);
  reg.discard_staged(3);  // idempotent
}

// Rank ids are checked in every build, not only with assertions on: a
// negative rank aborts instead of indexing the slot arrays out of bounds.
TEST(ImageRegistryDeathTest, StageRejectsANegativeRank) {
  ckpt::ImageRegistry reg;
  reg.reserve_ranks(2);
  EXPECT_DEATH(reg.stage(image(-1, 1)), "negative rank id");
}

TEST(ImageRegistryDeathTest, CommitGroupRejectsANegativeRank) {
  ckpt::ImageRegistry reg;
  reg.reserve_ranks(2);
  EXPECT_DEATH(reg.commit_group({-1}, 1), "negative rank id");
}

TEST(Metrics, AggregatesSumPhases) {
  core::Metrics m;
  core::CkptRecord r;
  r.rank = 0;
  r.phases = {0.1, 0.2, 0.3, 0.4};
  m.ckpts.push_back(r);
  r.rank = 1;
  r.phases = {0.1, 0.2, 0.3, 0.0};
  m.ckpts.push_back(r);
  EXPECT_NEAR(m.aggregate_ckpt_time_s(), 1.6, 1e-12);
  EXPECT_NEAR(m.aggregate_coordination_time_s(), 1.0, 1e-12);  // excl. image
  EXPECT_NEAR(m.mean_ckpt_time_s(), 0.8, 1e-12);
  const auto mean = m.mean_phases();
  EXPECT_NEAR(mean.checkpoint, 0.3, 1e-12);
  EXPECT_NEAR(mean.finalize, 0.2, 1e-12);
  EXPECT_EQ(m.completed_rounds(2), 1);
  EXPECT_EQ(m.completed_rounds(3), 0);
}

TEST(Metrics, RestartAggregation) {
  core::Metrics m;
  core::RestartRecord r;
  r.begin = sim::from_seconds(1.0);
  r.end = sim::from_seconds(3.5);
  m.restarts.push_back(r);
  EXPECT_NEAR(m.aggregate_restart_time_s(), 2.5, 1e-9);
}

TEST(Metrics, CkptWindowsMatchRecords) {
  core::Metrics m;
  core::CkptRecord r;
  r.rank = 5;
  r.begin = 100;
  r.end = 200;
  m.ckpts.push_back(r);
  const auto windows = m.ckpt_windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].rank, 5);
  EXPECT_EQ(windows[0].begin, 100);
  EXPECT_EQ(windows[0].end, 200);
}

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> out;
  for (auto& a : args) out.push_back(a.data());
  return out;
}

TEST(Cli, ParsesAllForms) {
  std::vector<std::string> args{"prog", "--alpha=5", "--beta", "2.5",
                                "--flag", "--list=1,2,3"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_int("alpha", 0, ""), 5);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0, ""), 2.5);
  EXPECT_TRUE(cli.get_bool("flag", false, ""));
  EXPECT_EQ(cli.get_int_list("list", {}, ""),
            (std::vector<std::int64_t>{1, 2, 3}));
  cli.finish();
}

TEST(Cli, DefaultsWhenAbsent) {
  std::vector<std::string> args{"prog"};
  auto argv = argv_of(args);
  Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_int("n", 42, ""), 42);
  EXPECT_EQ(cli.get_string("s", "dflt", ""), "dflt");
  EXPECT_FALSE(cli.get_bool("b", false, ""));
  EXPECT_EQ(cli.get_int_list("l", {7, 8}, ""),
            (std::vector<std::int64_t>{7, 8}));
  cli.finish();
}

TEST(CliDeathTest, RejectsUnknownAndMalformed) {
  {
    std::vector<std::string> args{"prog", "--nope=1"};
    auto argv = argv_of(args);
    Cli cli(static_cast<int>(argv.size()), argv.data());
    (void)cli.get_int("known", 0, "");
    EXPECT_EXIT(cli.finish(), ::testing::ExitedWithCode(2), "unknown flag");
  }
  {
    std::vector<std::string> args{"prog", "--n=abc"};
    auto argv = argv_of(args);
    Cli cli(static_cast<int>(argv.size()), argv.data());
    EXPECT_EXIT((void)cli.get_int("n", 0, ""), ::testing::ExitedWithCode(2),
                "expects an integer");
  }
}

}  // namespace
}  // namespace gcr
