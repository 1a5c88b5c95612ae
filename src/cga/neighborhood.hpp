// The cellular neighborhood: linear-5 (Von Neumann), the shape the paper
// uses to keep cross-block memory contention low, and the shape of the
// cMA+LTH baseline.
#pragma once

#include <array>
#include <cstddef>

#include "cga/grid.hpp"

namespace pacga::cga {

/// Cells in a neighborhood, self included.
inline constexpr std::size_t kNeighborhoodSize = 5;

/// Linear indices of one cell's neighborhood, self first.
using Neighborhood = std::array<std::size_t, kNeighborhoodSize>;

/// The linear-5 neighborhood of `center` on the toroidal `grid`: self, then
/// the cells at (+1,0), (-1,0), (0,+1), (0,-1). On grids narrower than 3
/// cells the displacements alias, so an index can repeat.
Neighborhood neighborhood_of(const Grid& grid, std::size_t center) noexcept;

}  // namespace pacga::cga
