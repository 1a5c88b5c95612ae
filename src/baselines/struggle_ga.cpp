#include "baselines/struggle_ga.hpp"

#include <limits>
#include <stdexcept>
#include <vector>

#include "cga/crossover.hpp"
#include "cga/individual.hpp"
#include "cga/loop.hpp"
#include "cga/mutation.hpp"
#include "cga/selection.hpp"
#include "heuristics/minmin.hpp"
#include "support/timer.hpp"

namespace pacga::baseline {

void StruggleConfig::validate() const {
  if (population < 2)
    throw std::invalid_argument("StruggleConfig: population < 2");
  if (!(p_comb >= 0.0 && p_comb <= 1.0) || !(p_mut >= 0.0 && p_mut <= 1.0))
    throw std::invalid_argument("StruggleConfig: probability out of [0,1]");
}

cga::Result run_struggle_ga(const etc::EtcMatrix& etc,
                            const StruggleConfig& config) {
  config.validate();
  support::Xoshiro256 rng(config.seed);

  std::vector<cga::Individual> pop;
  pop.reserve(config.population);
  for (std::size_t i = 0; i < config.population; ++i) {
    pop.push_back(cga::Individual::evaluated(
        sched::Schedule::random(etc, rng), config.objective, config.lambda));
  }
  if (config.seed_min_min) {
    pop[0] = cga::Individual::evaluated(heur::min_min(etc), config.objective,
                                        config.lambda);
  }

  std::size_t best_idx = 0;
  for (std::size_t i = 1; i < pop.size(); ++i) {
    if (pop[i].fitness < pop[best_idx].fitness) best_idx = i;
  }

  // Shared loop core: best tracking, termination, and tracing are the same
  // components the cellular engines use; only the struggle replacement
  // below is this baseline's own.
  const cga::TerminationController termination(config.termination);
  cga::BestTracker best(pop[best_idx]);
  cga::TraceRecorder trace(config.collect_trace);

  std::uint64_t evaluations = 0;
  std::uint64_t generations = 0;
  std::vector<double> fitness_view(pop.size());
  trace.sample(generations, termination.elapsed_seconds(), pop);

  bool stop = false;
  while (!stop) {
    // One generation-equivalent: population-size steady-state steps.
    for (std::size_t step = 0; step < pop.size(); ++step) {
      for (std::size_t i = 0; i < pop.size(); ++i)
        fitness_view[i] = pop[i].fitness;
      const auto [pa, pb] =
          cga::select_parents(config.selection, fitness_view, rng);

      cga::Individual child(pop[pa].schedule, 0.0);
      if (rng.bernoulli(config.p_comb)) {
        cga::crossover_into(config.crossover, child.schedule,
                            pop[pb].schedule, rng);
      }
      if (rng.bernoulli(config.p_mut)) cga::mutate(child.schedule, rng);
      child.fitness =
          sched::evaluate(child.schedule, config.objective, config.lambda);
      ++evaluations;
      best.observe(child);

      // Struggle replacement: the offspring competes with the individual
      // most similar to it, not with the worst one.
      std::size_t most_similar = 0;
      std::size_t min_dist = std::numeric_limits<std::size_t>::max();
      for (std::size_t i = 0; i < pop.size(); ++i) {
        const std::size_t d =
            child.schedule.hamming_distance(pop[i].schedule);
        if (d < min_dist) {
          min_dist = d;
          most_similar = i;
        }
      }
      if (child.fitness < pop[most_similar].fitness) {
        pop[most_similar] = std::move(child);
      }

      if (termination.evaluations_exhausted(evaluations)) {
        stop = true;
        break;
      }
    }
    ++generations;
    trace.sample(generations, termination.elapsed_seconds(), pop);
    if (termination.sweep_done(generations, evaluations)) stop = true;
  }

  best.finish(config.objective, config.lambda);
  cga::Individual winner = best.take();
  cga::Result result{std::move(winner.schedule)};
  result.best_fitness = winner.fitness;
  result.evaluations = evaluations;
  result.generations = generations;
  result.elapsed_seconds = termination.elapsed_seconds();
  result.trace = trace.take();
  return result;
}

}  // namespace pacga::baseline
