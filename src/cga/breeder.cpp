#include "cga/breeder.hpp"

#include <array>

#include "cga/crossover.hpp"
#include "cga/local_search.hpp"
#include "cga/mutation.hpp"
#include "cga/neighborhood.hpp"
#include "cga/selection.hpp"

namespace pacga::cga {

namespace detail {

void vary_and_evaluate(Individual& child, const sched::Schedule& parent_b,
                       const Config& config, support::Xoshiro256& rng) {
  if (rng.bernoulli(config.p_comb)) {
    crossover_into(config.crossover, child.schedule, parent_b, rng);
  }
  if (rng.bernoulli(config.p_mut)) mutate(child.schedule, rng);
  if (config.local_search.iterations > 0 && rng.bernoulli(config.p_ls)) {
    if (config.ls_kind == LocalSearchKind::kTabuHop) {
      local_tabu_hop(child.schedule, config.tabu, rng);
    } else {
      h2ll(child.schedule, config.local_search, rng);
    }
  }
  child.fitness =
      sched::evaluate(child.schedule, config.objective, config.lambda);
}

}  // namespace detail

Breeder::Breeder(const etc::EtcMatrix& etc, const Config& config)
    : config_(&config), parent_b_(sched::Schedule(etc), 0.0) {}

void Breeder::breed_into(const Population& pop, std::size_t cell,
                         support::Xoshiro256& rng, Individual& out) {
  const Config& config = *config_;
  const Neighborhood neigh = neighborhood_of(pop.grid(), cell);
  std::array<double, kNeighborhoodSize> fit;
  for (std::size_t i = 0; i < kNeighborhoodSize; ++i) {
    fit[i] = pop.at(neigh[i]).fitness;
  }
  const auto [pa_pos, pb_pos] = select_parents(config.selection, fit, rng);

  // Offspring starts as parent a (the "no recombination: clone the first
  // parent" default); crossover then overlays parent b's contribution.
  out.schedule.assign_from(pop.at(neigh[pa_pos]).schedule);
  detail::vary_and_evaluate(out, pop.at(neigh[pb_pos]).schedule, config, rng);
}

namespace {

/// Copies cell `c` into `out`: directly when the caller owns it (no other
/// thread writes it), else through the validated read.
void copy_cell(const Population& pop, const Block& owned, std::size_t c,
               Individual& out) {
  if (owned.contains(c)) {
    out.schedule.assign_from(pop.at(c).schedule);
  } else {
    pop.read_cell(c, out);
  }
}

}  // namespace

void Breeder::breed_shared_into(const Population& pop, const Block& owned,
                                std::size_t cell, support::Xoshiro256& rng,
                                Individual& out) {
  const Config& config = *config_;
  const Neighborhood neigh = neighborhood_of(pop.grid(), cell);
  std::array<double, kNeighborhoodSize> fit;
  for (std::size_t i = 0; i < kNeighborhoodSize; ++i) {
    const std::size_t c = neigh[i];
    fit[i] = owned.contains(c) ? pop.at(c).fitness : pop.read_fitness(c);
  }
  const auto [pa_pos, pb_pos] = select_parents(config.selection, fit, rng);

  // Parent a goes straight into the offspring buffer (it is the
  // offspring's starting point anyway), parent b into a private buffer.
  copy_cell(pop, owned, neigh[pa_pos], out);
  copy_cell(pop, owned, neigh[pb_pos], parent_b_);
  detail::vary_and_evaluate(out, parent_b_.schedule, config, rng);
}

}  // namespace pacga::cga
