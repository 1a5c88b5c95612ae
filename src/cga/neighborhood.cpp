#include "cga/neighborhood.hpp"

namespace pacga::cga {

Neighborhood neighborhood_of(const Grid& grid, std::size_t center) noexcept {
  constexpr std::ptrdiff_t kDx[kNeighborhoodSize] = {0, 1, -1, 0, 0};
  constexpr std::ptrdiff_t kDy[kNeighborhoodSize] = {0, 0, 0, 1, -1};
  const Cell c = grid.cell_of(center);
  Neighborhood out;
  for (std::size_t i = 0; i < kNeighborhoodSize; ++i) {
    out[i] = grid.index_of(grid.wrap(c, kDx[i], kDy[i]));
  }
  return out;
}

}  // namespace pacga::cga
