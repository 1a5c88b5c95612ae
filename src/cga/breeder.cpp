#include "cga/breeder.hpp"

#include <array>

#include "cga/crossover.hpp"
#include "cga/local_search.hpp"
#include "cga/mutation.hpp"
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
  const Neighborhood& neigh = pop.neighbors(cell);
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

void Breeder::breed_shared_into(const Population& pop, const Block& owned,
                                std::size_t cell, support::Xoshiro256& rng,
                                Individual& out) {
  const Config& config = *config_;
  const Neighborhood& neigh = pop.neighbors(cell);
  std::array<double, kNeighborhoodSize> fit;
  for (std::size_t i = 0; i < kNeighborhoodSize; ++i) {
    const std::size_t c = neigh[i];
    fit[i] = owned.contains(c) ? pop.at(c).fitness : pop.read_fitness(c);
  }
  const auto [pa_pos, pb_pos] = select_parents(config.selection, fit, rng);

  // Parent a goes straight into the offspring buffer (it is the
  // offspring's starting point anyway).
  const std::size_t a = neigh[pa_pos];
  if (owned.contains(a)) {
    out.schedule.assign_from(pop.at(a).schedule);
  } else {
    pop.read_cell(a, out);
  }
  // An owned parent b is read in place: the caller is its only writer and
  // does not publish during the step. A foreign one is snapshotted first.
  const std::size_t b = neigh[pb_pos];
  const sched::Schedule* parent_b = &pop.at(b).schedule;
  if (!owned.contains(b)) {
    pop.read_cell(b, parent_b_);
    parent_b = &parent_b_.schedule;
  }
  detail::vary_and_evaluate(out, *parent_b, config, rng);
}

}  // namespace pacga::cga
