#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/stats.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

namespace pacga::support {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, Reproducible) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, ReseedResets) {
  Xoshiro256 a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Xoshiro256, BoundedStaysInRange) {
  Xoshiro256 rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 255ULL, 1000000ULL}) {
    for (int i = 0; i < 500; ++i) {
      EXPECT_LT(rng.bounded(bound), bound);
    }
  }
}

TEST(Xoshiro256, BoundedOneAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Xoshiro256, UniformIntInclusiveRange) {
  Xoshiro256 rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Xoshiro256, UniformInHalfOpenUnit) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 2000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Xoshiro256, UniformMeanIsCentered) {
  Xoshiro256 rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256, BernoulliFrequency) {
  Xoshiro256 rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Xoshiro256, BernoulliDegenerate) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Xoshiro256, ShuffleIsPermutation) {
  Xoshiro256 rng(29);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Xoshiro256, ShuffleActuallyMoves) {
  Xoshiro256 rng(31);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // probability of identity permutation ~ 1/100!
}

TEST(MakeStreams, StableUnderCountChanges) {
  auto two = make_streams(99, 2);
  auto eight = make_streams(99, 8);
  // Stream i must not depend on how many streams were requested.
  for (int i = 0; i < 2; ++i) {
    for (int k = 0; k < 100; ++k) EXPECT_EQ(two[i](), eight[i]());
  }
}

TEST(MakeStreams, StreamsAreDecorrelated) {
  auto streams = make_streams(123, 4);
  std::set<std::uint64_t> firsts;
  for (auto& s : streams) firsts.insert(s());
  EXPECT_EQ(firsts.size(), 4u);
}

TEST(SeedFromString, StableAndDistinct) {
  EXPECT_EQ(seed_from_string("u_c_hihi.0"), seed_from_string("u_c_hihi.0"));
  EXPECT_NE(seed_from_string("u_c_hihi.0"), seed_from_string("u_c_hihi.1"));
  EXPECT_NE(seed_from_string("u_c_hihi.0"), seed_from_string("u_i_hihi.0"));
}

TEST(Xoshiro256, NormalMomentsAreStandard) {
  Xoshiro256 rng(41);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Xoshiro256, NormalScalesAndShifts) {
  Xoshiro256 rng(43);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Xoshiro256, GammaMomentsMatchShapeScale) {
  Xoshiro256 rng(47);
  // Gamma(k, theta): mean = k*theta, var = k*theta^2.
  for (auto [shape, scale] : {std::pair{2.0, 3.0}, {9.0, 0.5}, {0.5, 2.0}}) {
    RunningStats s;
    double lowest = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 100000; ++i) {
      const double x = rng.gamma(shape, scale);
      s.add(x);
      lowest = std::min(lowest, x);
    }
    EXPECT_NEAR(s.mean(), shape * scale, 0.05 * shape * scale)
        << "shape " << shape;
    EXPECT_NEAR(s.variance(), shape * scale * scale,
                0.1 * shape * scale * scale)
        << "shape " << shape;
    EXPECT_GT(lowest, 0.0);
  }
}

TEST(Xoshiro256, GammaCoefficientOfVariation) {
  // CV of Gamma(k, theta) is 1/sqrt(k) — the property the CVB ETC
  // generation method relies on.
  Xoshiro256 rng(53);
  const double v = 0.6;
  const double shape = 1.0 / (v * v);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.gamma(shape, 10.0));
  EXPECT_NEAR(s.stddev() / s.mean(), v, 0.02);
}

class BoundedUniformityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundedUniformityTest, RoughlyUniform) {
  const std::uint64_t bound = GetParam();
  Xoshiro256 rng(bound * 7919 + 1);
  std::vector<int> counts(bound, 0);
  const int draws_per_bucket = 2000;
  const int n = static_cast<int>(bound) * draws_per_bucket;
  for (int i = 0; i < n; ++i) ++counts[rng.bounded(bound)];
  for (std::uint64_t k = 0; k < bound; ++k) {
    // 5-sigma band around the expected bucket count.
    const double expected = draws_per_bucket;
    const double sigma = std::sqrt(expected * (1.0 - 1.0 / bound));
    EXPECT_NEAR(counts[k], expected, 5.0 * sigma) << "bucket " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, BoundedUniformityTest,
                         ::testing::Values(2, 3, 5, 16, 17));

}  // namespace
}  // namespace pacga::support
