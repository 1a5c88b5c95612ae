#include "cga/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "cga/neighborhood.hpp"
#include "cga/selection.hpp"
#include "heuristics/minmin.hpp"

namespace pacga::cga {

namespace detail {

Individual breed(const Population& pop, std::size_t index,
                 const Config& config, support::Xoshiro256& rng) {
  const Neighborhood neigh = neighborhood_of(pop.grid(), index);
  std::array<double, kNeighborhoodSize> fit;
  for (std::size_t i = 0; i < kNeighborhoodSize; ++i) {
    fit[i] = pop.at(neigh[i]).fitness;
  }
  const auto [pa_pos, pb_pos] = select_parents(config.selection, fit, rng);
  Individual child(pop.at(neigh[pa_pos]).schedule, 0.0);
  vary_and_evaluate(child, pop.at(neigh[pb_pos]).schedule, config, rng);
  return child;
}

}  // namespace detail

bool SequentialEngine::fits(const etc::EtcMatrix& etc,
                            const Config& config) const noexcept {
  return best_ && pop_->at(0).schedule.tasks() == etc.tasks() &&
         pop_->at(0).schedule.machines() == etc.machines() &&
         config.width == config_.width && config.height == config_.height &&
         config.sweep == config_.sweep && config.update == config_.update;
}

bool SequentialEngine::ensure(const etc::EtcMatrix& etc,
                              const Config& config) {
  config.validate();
  const bool same_shape = fits(etc, config);
  config_ = config;
  if (same_shape) return false;

  // Cold build. The RNG state used here is irrelevant: run() reseeds the
  // generator and the population before any of this state is read.
  ++builds_;
  pop_.emplace(etc, Grid(config_.width, config_.height), rng_,
               /*seed_min_min=*/false, config_.objective, config_.lambda);
  breeder_.emplace(etc, config_);
  order_.emplace(config_.sweep, pop_->size(), rng_);
  best_.emplace(pop_->at(0));
  const std::size_t buffers =
      config_.update == UpdatePolicy::kSynchronous ? pop_->size() : 1;
  staged_.clear();
  staged_.reserve(buffers);
  for (std::size_t i = 0; i < buffers; ++i) {
    staged_.emplace_back(sched::Schedule(etc), 0.0);
  }
  seeds_.assign(pop_->size(), {});
  return true;
}

std::span<const sched::MachineId> SequentialEngine::min_min_seed(
    const etc::EtcMatrix& etc) {
  MinMinSeed& slot = seeds_[etc.fingerprint() % seeds_.size()];
  if (!slot.assignment.empty() && slot.fingerprint == etc.fingerprint()) {
    assert(std::ranges::equal(heur::min_min(etc).assignment(),
                              slot.assignment));
    return slot.assignment;
  }
  const sched::Schedule seed = heur::min_min(etc);
  const auto a = seed.assignment();
  slot.assignment.assign(a.begin(), a.end());
  slot.fingerprint = etc.fingerprint();
  return slot.assignment;
}

RunStats SequentialEngine::run(const etc::EtcMatrix& etc,
                               const Config& config,
                               const GenerationObserver& observer,
                               const std::atomic<bool>* cancel) {
  ensure(etc, config);
  // From here on the run is a pure function of (etc, config), whatever ran
  // in the arena before.
  Population& pop = *pop_;
  rng_.reseed(config_.seed);
  pop.reseed(etc, rng_, config_.objective, config_.lambda);
  // Min-min draws no RNG, so planting its seed after the reseed leaves
  // every random cell as the reseed drew it.
  if (config_.seed_min_min) {
    pop.seed_cell(0, etc, min_min_seed(etc), config_.objective,
                  config_.lambda);
  }
  apply_warm_seed(pop, etc, config_);
  order_->reset(rng_);
  BestTracker& best = *best_;
  best.reset(pop.at(pop.best_index()));
  const bool synchronous = config_.update == UpdatePolicy::kSynchronous;

  // Everything is preallocated; the breeding loop itself performs no heap
  // allocation.
  TerminationController termination(config_.termination);
  termination.bind_stop_flag(cancel);
  TraceRecorder trace(config_.collect_trace);
  std::size_t staged_count = 0;
  RunStats stats;
  trace.sample(stats.generations, termination.elapsed_seconds(), pop);

  run_sweep_loop(
      *order_, rng_,
      [&](std::size_t idx) {  // one breeding step
        if (synchronous) {
          // Staged in the auxiliary population; it competes at the end of
          // the sweep.
          breeder_->breed_into(pop, idx, rng_, staged_[staged_count]);
          ++staged_count;
        } else {
          Individual& child = staged_[0];
          breeder_->breed_into(pop, idx, rng_, child);
          best.observe(child);
          // Replace if better (paper Table 1).
          if (child.fitness < pop.at(idx).fitness) {
            Breeder::replace(pop.at(idx), child);
          }
        }
        ++stats.evaluations;
        return termination.evaluations_exhausted(stats.evaluations);
      },
      [&] {  // end of sweep
        if (synchronous) {
          for (std::size_t k = 0; k < staged_count; ++k) {
            best.observe(staged_[k]);
          }
          // Generational commit: every staged offspring competes with the
          // cell it was bred for.
          const auto& o = order_->order();
          for (std::size_t k = 0; k < staged_count; ++k) {
            if (staged_[k].fitness < pop.at(o[k]).fitness) {
              Breeder::replace(pop.at(o[k]), staged_[k]);
            }
          }
          staged_count = 0;
        }
        ++stats.generations;
        trace.sample(stats.generations, termination.elapsed_seconds(), pop);
        if (observer) {
          observer({stats.generations, stats.evaluations,
                    termination.elapsed_seconds(), best.fitness(), pop});
        }
        // Wall-clock and generation budgets once per generation — the
        // paper's coarse-grained approximation (Algorithm 3 checks after
        // the block sweep).
        return termination.sweep_done(stats.generations, stats.evaluations);
      });

  best.finish(config_.objective, config_.lambda);
  stats.elapsed_seconds = termination.elapsed_seconds();
  stats.trace = trace.take();
  return stats;
}

Individual SequentialEngine::take_best() {
  Individual winner = best_->take();
  best_.reset();
  return winner;
}

Result run_sequential(const etc::EtcMatrix& etc, const Config& config,
                      const GenerationObserver& observer,
                      const std::atomic<bool>* cancel) {
  SequentialEngine engine;
  RunStats stats = engine.run(etc, config, observer, cancel);
  Individual winner = engine.take_best();
  Result result{std::move(winner.schedule)};
  result.best_fitness = winner.fitness;
  result.evaluations = stats.evaluations;
  result.generations = stats.generations;
  result.elapsed_seconds = stats.elapsed_seconds;
  result.trace = std::move(stats.trace);
  return result;
}

}  // namespace pacga::cga
