#include "cga/breeder.hpp"

#include <algorithm>

#include "cga/crossover.hpp"
#include "cga/local_search.hpp"
#include "cga/mutation.hpp"
#include "cga/neighborhood.hpp"
#include "cga/selection.hpp"
#include "support/kernels.hpp"

namespace pacga::cga {

namespace detail {

void vary(Individual& child, const sched::Schedule& parent_b,
          const Config& config, support::Xoshiro256& rng) {
  if (rng.bernoulli(config.p_comb)) {
    crossover_into(config.crossover, child.schedule, parent_b, rng);
  }
  if (rng.bernoulli(config.p_mut)) {
    mutate(config.mutation, child.schedule, rng);
  }
  if (config.ls_kind != LocalSearchKind::kNone &&
      config.local_search.iterations > 0 && rng.bernoulli(config.p_ls)) {
    apply_local_search(config.ls_kind, child.schedule, config.local_search,
                       config.tabu, rng);
  }
}

void vary_and_evaluate(Individual& child, const sched::Schedule& parent_b,
                       const Config& config, support::Xoshiro256& rng) {
  vary(child, parent_b, config, rng);
  child.fitness =
      sched::evaluate(child.schedule, config.objective, config.lambda);
}

}  // namespace detail

Breeder::Breeder(const etc::EtcMatrix& etc, const Config& config)
    : config_(&config), parent_b_(sched::Schedule(etc), 0.0) {
  neigh_.reserve(shape_size(config.neighborhood));
  fit_.reserve(shape_size(config.neighborhood));
}

void Breeder::breed_into(const Population& pop, std::size_t cell,
                         support::Xoshiro256& rng, Individual& out) {
  breed_into_deferred(pop, cell, rng, out);
  out.fitness =
      sched::evaluate(out.schedule, config_->objective, config_->lambda);
}

void Breeder::breed_into_deferred(const Population& pop, std::size_t cell,
                                  support::Xoshiro256& rng, Individual& out) {
  const Config& config = *config_;
  neighborhood_of(pop.grid(), cell, config.neighborhood, neigh_);
  fit_.clear();
  for (std::size_t c : neigh_) fit_.push_back(pop.at(c).fitness);
  const auto [pa_pos, pb_pos] = select_parents(config.selection, fit_, rng);

  // Offspring starts as parent a (the "no recombination: clone the first
  // parent" default); crossover then overlays parent b's contribution.
  out.schedule.assign_from(pop.at(neigh_[pa_pos]).schedule);
  detail::vary(out, pop.at(neigh_[pb_pos]).schedule, config, rng);
}

void Breeder::breed_shared_into(const Population& pop, const Block& owned,
                                std::size_t cell, support::Xoshiro256& rng,
                                Individual& out) {
  breed_shared_into_deferred(pop, owned, cell, rng, out);
  out.fitness =
      sched::evaluate(out.schedule, config_->objective, config_->lambda);
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

void Breeder::breed_shared_into_deferred(const Population& pop,
                                         const Block& owned, std::size_t cell,
                                         support::Xoshiro256& rng,
                                         Individual& out) {
  const Config& config = *config_;
  neighborhood_of(pop.grid(), cell, config.neighborhood, neigh_);
  fit_.clear();
  for (std::size_t c : neigh_) {
    fit_.push_back(owned.contains(c) ? pop.at(c).fitness
                                     : pop.read_fitness(c));
  }
  const auto [pa_pos, pb_pos] = select_parents(config.selection, fit_, rng);

  // Parent a goes straight into the offspring buffer (it is the
  // offspring's starting point anyway), parent b into a private buffer.
  copy_cell(pop, owned, neigh_[pa_pos], out);
  copy_cell(pop, owned, neigh_[pb_pos], parent_b_);
  detail::vary(out, parent_b_.schedule, config, rng);
}

void Breeder::evaluate_batch(Individual* staged, std::size_t count) {
  if (count == 0) return;
  const Config& config = *config_;
  if (config.objective != sched::Objective::kMakespan) {
    // No batched kernel for the flowtime-based objectives; per-child
    // evaluation (the documented allocating exceptions anyway).
    for (std::size_t i = 0; i < count; ++i) {
      staged[i].fitness =
          sched::evaluate(staged[i].schedule, config.objective, config.lambda);
    }
    return;
  }
  // One dispatch for the whole block: each staged schedule's completion
  // cache is already current (mutators maintain it), so the makespans are
  // one row-max sweep away — bit-identical to Schedule::makespan per row.
  batch_rows_.resize(count);
  batch_fit_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch_rows_[i] = staged[i].schedule.completions().data();
  }
  support::kernels::batch_max(batch_rows_.data(), count,
                              staged[0].schedule.machines(),
                              batch_fit_.data());
  for (std::size_t i = 0; i < count; ++i) {
    // Same 0.0 clamp as Schedule::makespan — exact per-row agreement.
    staged[i].fitness = std::max(0.0, batch_fit_[i]);
  }
}

}  // namespace pacga::cga
