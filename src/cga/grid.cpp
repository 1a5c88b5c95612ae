#include "cga/grid.hpp"

#include <algorithm>
#include <stdexcept>

namespace pacga::cga {

Grid::Grid(std::size_t width, std::size_t height)
    : width_(width), height_(height) {
  if (width_ == 0 || height_ == 0)
    throw std::invalid_argument("Grid: empty dimensions");
}

Cell Grid::wrap(Cell c, std::ptrdiff_t dx, std::ptrdiff_t dy) const noexcept {
  const auto w = static_cast<std::ptrdiff_t>(width_);
  const auto h = static_cast<std::ptrdiff_t>(height_);
  auto x = (static_cast<std::ptrdiff_t>(c.x) + dx) % w;
  auto y = (static_cast<std::ptrdiff_t>(c.y) + dy) % h;
  if (x < 0) x += w;
  if (y < 0) y += h;
  return {static_cast<std::size_t>(x), static_cast<std::size_t>(y)};
}

std::vector<Block> partition_blocks(std::size_t population_size,
                                    std::size_t threads) {
  if (threads == 0) throw std::invalid_argument("partition_blocks: 0 threads");
  if (threads > population_size) threads = population_size;
  std::vector<Block> blocks(threads);
  const std::size_t base = population_size / threads;
  const std::size_t extra = population_size % threads;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < threads; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    blocks[i] = {begin, begin + len};
    begin += len;
  }
  return blocks;
}

}  // namespace pacga::cga
