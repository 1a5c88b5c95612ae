// Parent selection within a neighborhood. The paper selects the best two
// neighbors ("best 2", Table 1); binary tournament is the selection of both
// Table 2 baselines.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace pacga::cga {

enum class SelectionKind {
  kBestTwo,     ///< the two lowest-fitness cells of the neighborhood
  kTournament,  ///< two independent binary tournaments (distinct winners)
};

/// Selects two parent positions out of a neighborhood.
///
/// `neighborhood` holds cell indices (self first) and `fitness[i]` is the
/// fitness of `neighborhood[i]` — the caller snapshots fitnesses under its
/// locking discipline before calling, so selection itself is pure.
/// Returns indices INTO `neighborhood` (not cell ids), first <= second by
/// fitness where the kind defines an order. The two picks are distinct
/// positions unless the neighborhood has a single cell.
std::pair<std::size_t, std::size_t> select_parents(
    SelectionKind kind, std::span<const double> fitness,
    support::Xoshiro256& rng);

}  // namespace pacga::cga
