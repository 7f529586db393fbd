// Utility layer: CLI validation, RNG determinism/distributions, statistics,
// tables, units.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace gcr {
namespace {

Cli make_cli(std::vector<const char*> argv) {
  return Cli(static_cast<int>(argv.size()),
             const_cast<char**>(argv.data()));
}

TEST(Cli, JobsParseInRange) {
  Cli cli = make_cli({"prog", "--jobs", "8"});
  EXPECT_EQ(cli.get_jobs(), 8);
}

TEST(Cli, JobsDefaultToAllThreads) {
  Cli cli = make_cli({"prog"});
  EXPECT_EQ(cli.get_jobs(), 0);  // 0 = all hardware threads
}

TEST(CliDeathTest, RejectsNegativeJobs) {
  Cli cli = make_cli({"prog", "--jobs=-1"});
  EXPECT_EXIT(cli.get_jobs(), testing::ExitedWithCode(2),
              "--jobs must be in 0..65536");
}

TEST(CliDeathTest, RejectsInfiniteDouble) {
  Cli cli = make_cli({"prog", "--fail-at=inf"});
  EXPECT_EXIT(cli.get_double("fail-at", 0.0, ""), testing::ExitedWithCode(2),
              "--fail-at expects a finite number, got: inf");
}

TEST(CliDeathTest, RejectsNanDouble) {
  Cli cli = make_cli({"prog", "--mtbf=nan"});
  EXPECT_EXIT(cli.get_double("mtbf", 1.0, ""), testing::ExitedWithCode(2),
              "--mtbf expects a finite number, got: nan");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(9);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(11);
  bool seen[5] = {};
  for (int i = 0; i < 1000; ++i) seen[r.next_below(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NormalHasApproxUnitMoments) {
  Rng r(13);
  RunningStats stats;
  RunningStats squares;  // E[x^2] is the variance when the mean is 0
  for (int i = 0; i < 50000; ++i) {
    const double x = r.next_normal();
    stats.add(x);
    squares.add(x * x);
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(squares.mean(), 1.0, 0.04);
}

TEST(Rng, LognormalMedianMatches) {
  Rng r(17);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(r.next_lognormal(std::log(0.002), 0.8));
  const auto median = samples.begin() + 10000;
  std::nth_element(samples.begin(), median, samples.end());
  EXPECT_NEAR(*median, 0.002, 0.0002);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(r.next_exponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Rng, MixSeedSeparatesStreams) {
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_NE(mix_seed(1, 2), mix_seed(1, 3));
}

TEST(Stats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Table, AlignedAsciiAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5, 1)});
  t.add_row({"b", Table::num(static_cast<std::int64_t>(42))});
  std::ostringstream ascii, csv;
  t.print(ascii);
  t.print_csv(csv);
  EXPECT_NE(ascii.str().find("| alpha |"), std::string::npos);
  EXPECT_NE(ascii.str().find("1.5"), std::string::npos);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1.5\nb,42\n");
}

TEST(Table, CsvQuoting) {
  Table t({"a"});
  t.add_row({"x,y\"z"});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "a\n\"x,y\"\"z\"\n");
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(format_bytes(5 * kGiB), "5.00 GiB");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration_ns(500), "500 ns");
  EXPECT_EQ(format_duration_ns(1500), "1.500 us");
  EXPECT_EQ(format_duration_ns(2'500'000), "2.500 ms");
  EXPECT_EQ(format_duration_ns(3'000'000'000LL), "3.000 s");
}

}  // namespace
}  // namespace gcr
