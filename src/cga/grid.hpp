// Toroidal 2-D grid geometry of the cellular population, plus the
// contiguous row-major block partition used by the parallel engine
// (paper §3.2, Figure 2).
#pragma once

#include <cstddef>
#include <vector>

namespace pacga::cga {

/// Cell coordinate on the torus.
struct Cell {
  std::size_t x = 0;  ///< column
  std::size_t y = 0;  ///< row

  bool operator==(const Cell&) const = default;
};

/// Immutable grid geometry: linear index <-> (x, y) mapping with toroidal
/// wrap-around. Linear order is row-major ("the successor of an individual
/// is its right neighbor; we move to the next row at the end of a row").
class Grid {
 public:
  Grid(std::size_t width, std::size_t height);

  std::size_t width() const noexcept { return width_; }
  std::size_t height() const noexcept { return height_; }
  std::size_t size() const noexcept { return width_ * height_; }

  std::size_t index_of(Cell c) const noexcept { return c.y * width_ + c.x; }
  Cell cell_of(std::size_t index) const noexcept {
    return {index % width_, index / width_};
  }

  /// Toroidal displacement: moves (dx, dy) from `c` with wrap-around.
  Cell wrap(Cell c, std::ptrdiff_t dx, std::ptrdiff_t dy) const noexcept;

 private:
  std::size_t width_;
  std::size_t height_;
};

/// One thread's slice of the population: the half-open linear index range
/// [begin, end).
struct Block {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
  bool contains(std::size_t i) const noexcept { return i >= begin && i < end; }
};

/// Splits `population_size` individuals into `threads` contiguous blocks of
/// near-equal size (the first `population_size % threads` blocks get one
/// extra individual). Every index belongs to exactly one block.
std::vector<Block> partition_blocks(std::size_t population_size,
                                    std::size_t threads);

}  // namespace pacga::cga
