#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "support/rng.hpp"

namespace pacga::support {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleObservation) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  Xoshiro256 rng(1);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10, 10);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Quantile, MedianOddEven) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 2.0, 3.0}, 0.5), 2.5);
}

TEST(Quantile, Extremes) {
  std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
}

TEST(Quantile, Type7Interpolation) {
  // R: quantile(c(1,2,3,4), 0.25) == 1.75 (type 7).
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.25), 1.75);
}

TEST(Quantile, ThrowsOnBadInput) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.1), std::invalid_argument);
}

TEST(BoxStats, SummariesAreOrdered) {
  Xoshiro256 rng(2);
  std::vector<double> v;
  for (int i = 0; i < 101; ++i) v.push_back(rng.uniform(0, 100));
  const BoxStats b = box_stats(v);
  EXPECT_EQ(b.n, 101u);
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
  EXPECT_LE(b.notch_lo, b.median);
  EXPECT_GE(b.notch_hi, b.median);
}

// Non-overlapping notches mean the medians differ at ~95 % confidence.
bool notches_separate(const BoxStats& a, const BoxStats& b) {
  return a.notch_hi < b.notch_lo || b.notch_hi < a.notch_lo;
}

TEST(BoxStats, NotchOverlapDetectsSameDistribution) {
  Xoshiro256 rng(3);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.uniform(0, 1));
    b.push_back(rng.uniform(0, 1));
  }
  EXPECT_FALSE(notches_separate(box_stats(a), box_stats(b)));
}

TEST(BoxStats, NotchSeparationDetectsShift) {
  Xoshiro256 rng(4);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.uniform(0, 1));
    b.push_back(rng.uniform(5, 6));
  }
  EXPECT_TRUE(notches_separate(box_stats(a), box_stats(b)));
}

TEST(MannWhitney, IdenticalSamplesNotSignificant) {
  std::vector<double> a{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto r = mann_whitney_u(a, a);
  EXPECT_GT(r.p_value, 0.9);
}

TEST(MannWhitney, ShiftedSamplesSignificant) {
  Xoshiro256 rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(rng.uniform(0, 1));
    b.push_back(rng.uniform(2, 3));
  }
  const auto r = mann_whitney_u(a, b);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(MannWhitney, SymmetricInZ) {
  Xoshiro256 rng(6);
  std::vector<double> a, b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(rng.uniform(0, 1));
    b.push_back(rng.uniform(0.5, 1.5));
  }
  const auto ab = mann_whitney_u(a, b);
  const auto ba = mann_whitney_u(b, a);
  EXPECT_NEAR(ab.z, -ba.z, 1e-9);
  EXPECT_NEAR(ab.p_value, ba.p_value, 1e-9);
}

TEST(MannWhitney, AllTiedGivesPValueOne) {
  std::vector<double> a(10, 3.0), b(12, 3.0);
  const auto r = mann_whitney_u(a, b);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(MannWhitney, ThrowsOnEmpty) {
  EXPECT_THROW(mann_whitney_u({}, {1.0}), std::invalid_argument);
}

TEST(Ci95, ShrinksWithSampleSize) {
  Xoshiro256 rng(7);
  RunningStats small, large;
  for (int i = 0; i < 20; ++i) small.add(rng.uniform(0, 1));
  for (int i = 0; i < 2000; ++i) large.add(rng.uniform(0, 1));
  EXPECT_GT(ci95_halfwidth(small), ci95_halfwidth(large));
}

}  // namespace
}  // namespace pacga::support
