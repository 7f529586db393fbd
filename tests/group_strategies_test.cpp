// Canned grouping strategies, group definition files, GroupSet invariants,
// and the Gopalan-Nagarajan dynamic grouping baseline.
#include <gtest/gtest.h>

#include <sstream>

#include "group/dynamic.hpp"
#include "group/groupfile.hpp"
#include "group/strategies.hpp"

namespace gcr::group {
namespace {

TEST(Strategies, NormIsOneGlobalGroup) {
  GroupSet g = make_norm(8);
  EXPECT_EQ(g.num_groups(), 1);
  EXPECT_EQ(g.largest_group_size(), 8u);
  EXPECT_TRUE(g.same_group(0, 7));
}

TEST(Strategies, Gp1IsAllSingletons) {
  GroupSet g = make_gp1(5);
  EXPECT_EQ(g.num_groups(), 5);
  EXPECT_EQ(g.largest_group_size(), 1u);
  EXPECT_FALSE(g.same_group(0, 1));
}

TEST(Strategies, SequentialSplitsEvenly) {
  GroupSet g = make_sequential(10, 4);  // sizes 3,3,2,2
  EXPECT_EQ(g.num_groups(), 4);
  EXPECT_EQ(g.largest_group_size(), 3u);
  EXPECT_EQ(g.members(3), (std::vector<mpi::RankId>{8, 9}));
  EXPECT_TRUE(g.same_group(0, 2));
  EXPECT_FALSE(g.same_group(2, 3));
}

TEST(Strategies, RoundRobinModAssignment) {
  GroupSet g = make_round_robin(32, 4);  // the paper's Table 1 shape
  EXPECT_EQ(g.num_groups(), 4);
  for (int r = 0; r < 32; ++r) {
    EXPECT_TRUE(g.same_group(r, r % 4));
  }
  EXPECT_EQ(g.members(0), (std::vector<mpi::RankId>{0, 4, 8, 12, 16, 20, 24, 28}));
}

TEST(Strategies, BlocksOfWidth) {
  GroupSet g = make_blocks(10, 4);  // {0..3} {4..7} {8,9}
  EXPECT_EQ(g.num_groups(), 3);
  EXPECT_TRUE(g.same_group(0, 3));
  EXPECT_FALSE(g.same_group(3, 4));
  EXPECT_EQ(g.members(2), (std::vector<mpi::RankId>{8, 9}));
}

// Partition surgery renumbers groups: a GroupSet orders its groups by
// smallest member, so a split singleton sorts into place (not last) and a
// merge can hand the target group a new leader.
TEST(Surgery, SplitSortsTheSingletonIntoPlace) {
  const GroupSet blocks = make_blocks(8, 4);
  const GroupSet split = split_rank(blocks, 2);
  EXPECT_EQ(split.to_string(), "{0,1,3} {2} {4,5,6,7}");
  EXPECT_EQ(split.group_of(2), 1);
  EXPECT_EQ(split.group_of(4), 2);  // was group 1
  // Splitting a singleton is a no-op.
  EXPECT_EQ(split_rank(split, 2), split);
}

TEST(Surgery, MergeKeepsTheTargetSortedAndMayChangeItsLeader) {
  const GroupSet split = split_rank(make_blocks(8, 4), 2);
  const GroupSet merged = merge_rank(split, 2, split.group_of(4));
  EXPECT_EQ(merged.to_string(), "{0,1,3} {2,4,5,6,7}");
  EXPECT_EQ(merged.members(merged.group_of(4)).front(), 2);  // new leader
}

TEST(SurgeryDeathTest, MergeRefusesANonSingleton) {
  const GroupSet split = split_rank(make_blocks(8, 4), 2);
  EXPECT_DEATH((void)merge_rank(split, 0, split.group_of(4)),
               "not a singleton");
}

TEST(GroupSet, ToStringReadable) {
  GroupSet g = make_round_robin(4, 2);
  EXPECT_EQ(g.to_string(), "{0,2} {1,3}");
}

TEST(GroupSetDeathTest, RejectsNonPartition) {
  EXPECT_DEATH(GroupSet(3, {{0, 1}}), "cover");
  EXPECT_DEATH(GroupSet(2, {{0, 1}, {1}}), "two groups");
  EXPECT_DEATH(GroupSet(2, {{0, 5}}), "out of range");
}

TEST(GroupFile, RoundTrip) {
  GroupSet g = make_round_robin(12, 3);
  std::stringstream ss;
  write_groupfile(ss, g);
  auto back = read_groupfile(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, g);
}

TEST(GroupFile, RejectsMalformed) {
  {
    std::stringstream ss("group 0 1\n");  // missing nranks
    EXPECT_FALSE(read_groupfile(ss).has_value());
  }
  {
    std::stringstream ss("nranks 4\ngroup 0 1\n");  // 2,3 uncovered
    EXPECT_FALSE(read_groupfile(ss).has_value());
  }
  {
    std::stringstream ss("nranks 2\ngroup 0 1\ngroup 1\n");  // duplicate
    EXPECT_FALSE(read_groupfile(ss).has_value());
  }
  {
    std::stringstream ss("nranks 2\nbanana 0 1\n");
    EXPECT_FALSE(read_groupfile(ss).has_value());
  }
  {
    std::stringstream ss("nranks 4\ngroup 0 1 x\ngroup 2 3\n");  // bad rank
    EXPECT_FALSE(read_groupfile(ss).has_value());
  }
  {
    std::stringstream ss("nranks 4 junk\ngroup 0 1\ngroup 2 3\n");
    EXPECT_FALSE(read_groupfile(ss).has_value());
  }
}

TEST(Dynamic, MergesOnCommunication) {
  DynamicGrouper d(4);
  EXPECT_EQ(d.num_groups(), 4);
  d.on_message(0, 1);
  EXPECT_EQ(d.num_groups(), 3);
  d.on_message(0, 1);  // repeat: no change
  EXPECT_EQ(d.num_groups(), 3);
  d.on_message(2, 3);
  d.on_message(1, 2);  // links everything
  EXPECT_EQ(d.num_groups(), 1);
  EXPECT_TRUE(d.current().same_group(0, 3));
}

TEST(Dynamic, ReplayDetectsCollapse) {
  // A chain of messages linking all processes collapses the grouping to a
  // single global group — the paper's criticism of the dynamic scheme (§6).
  trace::Trace t;
  for (int i = 0; i + 1 < 8; ++i) {
    t.push_back(trace::TraceRecord{0, trace::EventKind::kSend, i, i + 1, 0, 1});
  }
  auto result = replay_dynamic(8, t);
  EXPECT_EQ(result.final_groups.num_groups(), 1);
  EXPECT_EQ(result.messages_until_collapse, 7);
}

TEST(Dynamic, DisjointTrafficNeverCollapses) {
  trace::Trace t;
  t.push_back(trace::TraceRecord{0, trace::EventKind::kSend, 0, 1, 0, 1});
  t.push_back(trace::TraceRecord{0, trace::EventKind::kSend, 2, 3, 0, 1});
  auto result = replay_dynamic(4, t);
  EXPECT_EQ(result.final_groups.num_groups(), 2);
  EXPECT_EQ(result.messages_until_collapse, -1);
}

// Trace files are external input: a rank id outside [0, nranks) must stop
// the replay instead of indexing the union-find out of bounds.
TEST(DynamicDeathTest, RejectsRankIdsOutsideTheRun) {
  DynamicGrouper d(4);
  EXPECT_DEATH(d.on_message(4, 0), "outside \\[0, nranks\\)");
  EXPECT_DEATH(d.on_message(0, -1), "outside \\[0, nranks\\)");
  trace::Trace t;
  t.push_back(trace::TraceRecord{0, trace::EventKind::kSend, 4, -1, 0, 1});
  EXPECT_DEATH((void)replay_dynamic(4, t), "outside \\[0, nranks\\)");
}

}  // namespace
}  // namespace gcr::group
