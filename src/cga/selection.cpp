#include "cga/selection.hpp"

#include <cassert>

namespace pacga::cga {

namespace {

std::pair<std::size_t, std::size_t> best_two(std::span<const double> fitness) {
  std::size_t first = 0;
  for (std::size_t i = 1; i < fitness.size(); ++i) {
    if (fitness[i] < fitness[first]) first = i;
  }
  std::size_t second = first == 0 ? 1 : 0;
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    if (i == first) continue;
    if (fitness[i] < fitness[second]) second = i;
  }
  return {first, second};
}

std::size_t tournament_pick(std::span<const double> fitness,
                            support::Xoshiro256& rng) {
  const std::size_t a = rng.index(fitness.size());
  const std::size_t b = rng.index(fitness.size());
  return fitness[a] <= fitness[b] ? a : b;
}

}  // namespace

std::pair<std::size_t, std::size_t> select_parents(
    SelectionKind kind, std::span<const double> fitness,
    support::Xoshiro256& rng) {
  assert(!fitness.empty());
  if (fitness.size() == 1) return {0, 0};
  switch (kind) {
    case SelectionKind::kBestTwo:
      return best_two(fitness);
    case SelectionKind::kTournament: {
      const std::size_t first = tournament_pick(fitness, rng);
      std::size_t second = tournament_pick(fitness, rng);
      // Force distinct positions; re-draw a bounded number of times then
      // fall back to a linear probe so the call always terminates.
      for (int tries = 0; second == first && tries < 8; ++tries) {
        second = tournament_pick(fitness, rng);
      }
      if (second == first) second = (first + 1) % fitness.size();
      return {first, second};
    }
  }
  return best_two(fitness);
}

}  // namespace pacga::cga
