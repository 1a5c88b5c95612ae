#include "pacga/cellwise_engine.hpp"

#include <atomic>
#include <algorithm>
#include <vector>

#include "cga/breeder.hpp"
#include "cga/loop.hpp"
#include "cga/population.hpp"
#include "support/threading.hpp"
#include "support/timer.hpp"

namespace pacga::par {

namespace {

/// Deterministic stream for one (cell, generation) pair: which worker
/// executes the cell must not matter.
support::Xoshiro256 cell_stream(std::uint64_t seed, std::size_t cell,
                                std::uint64_t generation) {
  support::SplitMix64 mix(seed ^ (cell * 0x9e3779b97f4a7c15ULL) ^
                          (generation * 0xc2b2ae3d27d4eb4fULL));
  return support::Xoshiro256(mix.next());
}

}  // namespace

ParallelResult run_cellwise(const etc::EtcMatrix& etc,
                            const cga::Config& config,
                            const cga::GenerationObserver& observer) {
  config.validate();
  const std::size_t n_threads = config.threads;

  support::Xoshiro256 init_rng(config.seed);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(etc, grid, init_rng, config.seed_min_min,
                      config.objective, config.lambda);
  cga::apply_warm_seed(pop, etc, config);
  const std::size_t n = pop.size();

  // Shared core components. The auxiliary population is preallocated once;
  // workers breed straight into their cells' slots, so the steady-state
  // breeding step allocates nothing.
  cga::TerminationController termination(config.termination);
  cga::BestTracker best(pop.at(pop.best_index()));
  cga::TraceRecorder trace(config.collect_trace);
  std::vector<cga::Individual> staged;
  staged.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    staged.emplace_back(sched::Schedule(etc), 0.0);
  }

  std::vector<support::Padded<ThreadStats>> stats(n_threads);
  std::atomic<bool> stop{false};
  std::uint64_t generation = 0;  // written by worker 0 between barriers
  support::Barrier barrier(n_threads);

  auto worker = [&](std::size_t tid) {
    ThreadStats& st = stats[tid].value;
    cga::Breeder breeder(etc, config);

    while (true) {
      // --- breed phase: strided static split of the cells (cell tid,
      // tid+T, ...). Deterministic attribution, no queue contention, and
      // results are still independent of the worker count because each
      // (cell, generation) pair carries its own RNG stream. The population
      // is read-only here (commits happen between barriers), so no locks.
      const std::uint64_t gen = generation;  // stable between barriers
      for (std::size_t cell = tid; cell < n; cell += n_threads) {
        support::Xoshiro256 rng = cell_stream(config.seed, cell, gen);
        breeder.breed_into(pop, cell, rng, staged[cell]);
        ++st.evaluations;
      }
      barrier.arrive_and_wait();  // all offspring staged

      if (tid == 0) {
        // --- commit phase: serial, one pass over the grid.
        for (std::size_t cell = 0; cell < n; ++cell) {
          const cga::Individual& child = staged[cell];
          best.observe(child);
          if (child.fitness < pop.at(cell).fitness) {  // replace if better
            cga::Breeder::replace(pop.at(cell), child);
          }
        }
        ++generation;
        ++st.generations;
        trace.sample(generation, termination.elapsed_seconds(), pop);
        // One counter for `max_evaluations` across all engines: the real
        // summed per-thread totals, not the generation * n proxy. The
        // barrier makes every worker's count from this generation visible.
        std::uint64_t total_evaluations = 0;
        for (const auto& s : stats) total_evaluations += s.value.evaluations;
        if (observer) {
          observer({generation, total_evaluations,
                    termination.elapsed_seconds(), best.fitness(), pop});
        }
        stop.store(termination.sweep_done(generation, total_evaluations),
                   std::memory_order_release);
      }
      barrier.arrive_and_wait();  // commit + decision visible
      if (stop.load(std::memory_order_acquire)) break;
    }
  };

  {
    support::ScopedThreads threads(n_threads, worker);
  }  // join

  best.finish(config.objective, config.lambda);
  cga::Individual winner = best.take();
  ParallelResult out{cga::Result{std::move(winner.schedule)}, {}};
  out.result.best_fitness = winner.fitness;
  out.result.elapsed_seconds = termination.elapsed_seconds();
  out.result.trace = trace.take();
  out.threads.reserve(n_threads);
  for (auto& s : stats) {
    out.threads.push_back(s.value);
    out.result.evaluations += s.value.evaluations;
  }
  // Generations are collective in this model; worker 0 kept the count.
  out.result.generations = stats[0].value.generations;
  for (auto& t : out.threads) t.generations = out.result.generations;
  return out;
}

}  // namespace pacga::par
