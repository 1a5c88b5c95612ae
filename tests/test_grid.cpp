#include "cga/grid.hpp"

#include <gtest/gtest.h>

#include <set>

namespace pacga::cga {
namespace {

TEST(Grid, IndexCellRoundTrip) {
  const Grid g(16, 16);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.index_of(g.cell_of(i)), i);
  }
}

TEST(Grid, RowMajorOrder) {
  const Grid g(8, 4);
  EXPECT_EQ(g.index_of({0, 0}), 0u);
  EXPECT_EQ(g.index_of({7, 0}), 7u);
  EXPECT_EQ(g.index_of({0, 1}), 8u);  // next row after end of row
  EXPECT_EQ(g.size(), 32u);
}

TEST(Grid, WrapAround) {
  const Grid g(5, 3);
  EXPECT_EQ(g.wrap({0, 0}, -1, 0), (Cell{4, 0}));
  EXPECT_EQ(g.wrap({4, 0}, 1, 0), (Cell{0, 0}));
  EXPECT_EQ(g.wrap({0, 0}, 0, -1), (Cell{0, 2}));
  EXPECT_EQ(g.wrap({0, 2}, 0, 1), (Cell{0, 0}));
  EXPECT_EQ(g.wrap({2, 1}, 0, 0), (Cell{2, 1}));
}

TEST(Grid, WrapLargeDisplacements) {
  const Grid g(4, 4);
  EXPECT_EQ(g.wrap({1, 1}, 9, -9), (Cell{2, 0}));
  EXPECT_EQ(g.wrap({0, 0}, -8, 8), (Cell{0, 0}));
}

TEST(Grid, RejectsEmpty) {
  EXPECT_THROW(Grid(0, 4), std::invalid_argument);
  EXPECT_THROW(Grid(4, 0), std::invalid_argument);
}

TEST(PartitionBlocks, EvenSplit) {
  const auto blocks = partition_blocks(256, 4);
  ASSERT_EQ(blocks.size(), 4u);
  for (const auto& b : blocks) EXPECT_EQ(b.size(), 64u);
  EXPECT_EQ(blocks[0].begin, 0u);
  EXPECT_EQ(blocks[3].end, 256u);
}

TEST(PartitionBlocks, UnevenSplitDistributesRemainder) {
  const auto blocks = partition_blocks(256, 3);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].size(), 86u);  // 256 = 86 + 85 + 85
  EXPECT_EQ(blocks[1].size(), 85u);
  EXPECT_EQ(blocks[2].size(), 85u);
}

TEST(PartitionBlocks, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads = 1; threads <= 8; ++threads) {
    const auto blocks = partition_blocks(100, threads);
    std::set<std::size_t> seen;
    for (const auto& b : blocks) {
      for (std::size_t i = b.begin; i < b.end; ++i) {
        EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
      }
    }
    EXPECT_EQ(seen.size(), 100u);
  }
}

TEST(PartitionBlocks, MoreThreadsThanIndividualsClamps) {
  const auto blocks = partition_blocks(3, 10);
  EXPECT_EQ(blocks.size(), 3u);
  for (const auto& b : blocks) EXPECT_EQ(b.size(), 1u);
}

TEST(PartitionBlocks, ContainsWorks) {
  const Block b{10, 20};
  EXPECT_TRUE(b.contains(10));
  EXPECT_TRUE(b.contains(19));
  EXPECT_FALSE(b.contains(20));
  EXPECT_FALSE(b.contains(9));
}

TEST(PartitionBlocks, ZeroThreadsThrows) {
  EXPECT_THROW(partition_blocks(10, 0), std::invalid_argument);
}

}  // namespace
}  // namespace pacga::cga
