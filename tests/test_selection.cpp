#include "cga/selection.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pacga::cga {
namespace {

TEST(BestTwo, PicksTwoLowest) {
  support::Xoshiro256 rng(1);
  const std::vector<double> fit{5.0, 1.0, 3.0, 0.5, 4.0};
  const auto [a, b] = select_parents(SelectionKind::kBestTwo, fit, rng);
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 1u);
}

TEST(BestTwo, DistinctEvenWithTies) {
  support::Xoshiro256 rng(2);
  const std::vector<double> fit{2.0, 2.0, 2.0, 2.0, 2.0};
  const auto [a, b] = select_parents(SelectionKind::kBestTwo, fit, rng);
  EXPECT_NE(a, b);
}

TEST(BestTwo, DeterministicNoRngConsumption) {
  support::Xoshiro256 rng(3);
  const auto before = rng();
  support::Xoshiro256 rng2(3);
  const std::vector<double> fit{3.0, 1.0, 2.0};
  (void)select_parents(SelectionKind::kBestTwo, fit, rng2);
  EXPECT_EQ(rng2(), before);  // best-two consumed no randomness
}

TEST(SingleCellNeighborhood, ReturnsSelfTwice) {
  support::Xoshiro256 rng(4);
  const std::vector<double> fit{1.0};
  for (auto kind : {SelectionKind::kBestTwo, SelectionKind::kTournament}) {
    const auto [a, b] = select_parents(kind, fit, rng);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 0u);
  }
}

TEST(Tournament, ReturnsDistinctPositions) {
  support::Xoshiro256 rng(5);
  const std::vector<double> fit{1.0, 2.0, 3.0, 4.0, 5.0};
  for (int i = 0; i < 200; ++i) {
    const auto [a, b] = select_parents(SelectionKind::kTournament, fit, rng);
    EXPECT_NE(a, b);
    EXPECT_LT(a, fit.size());
    EXPECT_LT(b, fit.size());
  }
}

TEST(Tournament, PrefersFitter) {
  support::Xoshiro256 rng(6);
  const std::vector<double> fit{1.0, 10.0, 10.0, 10.0, 10.0};
  int best_first = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto [a, b] = select_parents(SelectionKind::kTournament, fit, rng);
    best_first += (a == 0);
  }
  // P(cell 0 wins first tournament) = 1 - (4/5)^2 = 0.36.
  EXPECT_NEAR(static_cast<double>(best_first) / n, 0.36, 0.05);
}

}  // namespace
}  // namespace pacga::cga
