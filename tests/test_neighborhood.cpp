#include "cga/neighborhood.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace pacga::cga {
namespace {

TEST(Neighborhood, SelfIsFirst) {
  const Grid g(16, 16);
  for (std::size_t cell = 0; cell < g.size(); cell += 17) {
    EXPECT_EQ(neighborhood_of(g, cell)[0], cell);
  }
}

TEST(Neighborhood, L5IsVonNeumann) {
  const Grid g(16, 16);
  const Neighborhood out = neighborhood_of(g, g.index_of({5, 5}));
  const std::set<std::size_t> got(out.begin(), out.end());
  const std::set<std::size_t> want{
      g.index_of({5, 5}), g.index_of({6, 5}), g.index_of({4, 5}),
      g.index_of({5, 6}), g.index_of({5, 4})};
  EXPECT_EQ(got, want);
}

TEST(Neighborhood, WrapsAtEdges) {
  const Grid g(4, 4);
  const Neighborhood out = neighborhood_of(g, g.index_of({0, 0}));
  const std::set<std::size_t> got(out.begin(), out.end());
  const std::set<std::size_t> want{
      g.index_of({0, 0}), g.index_of({1, 0}), g.index_of({3, 0}),
      g.index_of({0, 1}), g.index_of({0, 3})};
  EXPECT_EQ(got, want);
}

/// Manhattan distance on the torus (shortest way around).
std::size_t torus_manhattan(const Grid& g, Cell a, Cell b) {
  const std::size_t dx = a.x > b.x ? a.x - b.x : b.x - a.x;
  const std::size_t dy = a.y > b.y ? a.y - b.y : b.y - a.y;
  return std::min(dx, g.width() - dx) + std::min(dy, g.height() - dy);
}

TEST(Neighborhood, AllCellsWithinManhattanRadius) {
  const Grid g(16, 16);
  const std::size_t center = g.index_of({7, 9});
  for (std::size_t cell : neighborhood_of(g, center)) {
    EXPECT_LE(torus_manhattan(g, g.cell_of(center), g.cell_of(cell)), 1u);
  }
}

TEST(Neighborhood, NoDuplicatesOnLargeGrid) {
  const Grid g(16, 16);
  const Neighborhood out = neighborhood_of(g, 37);
  std::set<std::size_t> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), out.size());
}

TEST(Neighborhood, DuplicatesCollapseOnTinyGrid) {
  // On a 2x2 torus, L5's four displacements alias each other.
  const Grid g(2, 2);
  const Neighborhood out = neighborhood_of(g, 0);
  EXPECT_EQ(out.size(), 5u);  // positions kept, values alias
  for (std::size_t cell : out) EXPECT_LT(cell, 4u);
}

TEST(Neighborhood, SymmetryOnTorus) {
  // If b is in neigh(a), then a is in neigh(b).
  const Grid g(16, 16);
  for (std::size_t b : neighborhood_of(g, 20)) {
    const Neighborhood nb = neighborhood_of(g, b);
    EXPECT_NE(std::find(nb.begin(), nb.end(), std::size_t{20}), nb.end());
  }
}

}  // namespace
}  // namespace pacga::cga
