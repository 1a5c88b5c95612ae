#include "pacga/parallel_engine.hpp"

#include <atomic>
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "cga/breeder.hpp"
#include "cga/loop.hpp"
#include "cga/population.hpp"
#include "support/threading.hpp"
#include "support/timer.hpp"

namespace pacga::par {

std::uint64_t ParallelResult::total_evaluations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& t : threads) total += t.evaluations;
  return total;
}

namespace {

/// Everything a worker needs. Shared state is immutable (each worker copies
/// its RNG stream out of `rngs` on entry), atomic, touched only by thread 0,
/// or one cache-line-padded slot per thread (`stats`).
/// `pop` has one writer per cell: the worker whose block holds the cell,
/// and only through Population::publish. That worker reads its own block
/// directly; every other read of `pop` goes through read_fitness /
/// read_cell. `thread_best` slots are written once, at a worker's exit. A
/// worker's RNG stream, Breeder and BestTracker live in its own frame: a
/// step makes about 17 draws, and each stores the stream's state, so
/// streams packed side by side in one vector would bounce a cache line
/// between the cores.
struct Shared {
  const etc::EtcMatrix& etc;
  const cga::Config& config;
  cga::Population& pop;
  const std::vector<cga::Block>& blocks;
  const std::vector<support::Xoshiro256>& rngs;
  std::vector<support::Padded<ThreadStats>>& stats;
  std::vector<std::optional<cga::Individual>>& thread_best;
  const cga::Individual& initial_best;
  cga::TraceRecorder& trace;  ///< thread 0 only
  std::atomic<std::uint64_t>& global_evaluations;
  const cga::TerminationController& termination;
  const cga::GenerationObserver& observer;  ///< thread 0 only
};

/// Asynchronous worker — the paper's Algorithm 3: immediate replacement,
/// per-thread progress, termination checked once per block sweep. All loop
/// bookkeeping comes from the shared core; the Breeder makes the
/// steady-state step allocation-free.
void worker_async(Shared& sh, std::size_t tid) {
  const cga::Config& config = sh.config;
  support::Xoshiro256 rng = sh.rngs[tid + 1];  // thread-private copy
  const cga::Block block = sh.blocks[tid];
  ThreadStats& st = sh.stats[tid].value;
  cga::Breeder breeder(sh.etc, config);
  cga::Individual child(sched::Schedule(sh.etc), 0.0);
  cga::BestTracker best(sh.initial_best);

  support::Xoshiro256 order_rng(config.seed ^ (0xb10c0000 + tid));
  cga::SweepOrderCache order(config.sweep, block.size(), order_rng);

  cga::run_sweep_loop(
      order, order_rng,
      [&](std::size_t pos) {  // one breeding step
        const std::size_t idx = block.begin + pos;
        breeder.breed_shared_into(sh.pop, block, idx, rng, child);
        ++st.evaluations;
        best.observe(child);
        // --- asynchronous replace-if-better. This worker is the cell's
        // only writer, so the check reads it directly; only a replacement
        // runs the write protocol.
        if (child.fitness < sh.pop.at(idx).fitness) {
          sh.pop.publish(idx, child);
          ++st.replacements;
        }
        return false;  // budgets are checked per block sweep (paper)
      },
      [&] {  // end of block sweep
        ++st.generations;
        if (tid == 0) {
          sh.trace.sample(st.generations, sh.termination.elapsed_seconds(),
                          sh.pop);
        }
        const std::uint64_t evals_now =
            sh.global_evaluations.fetch_add(block.size(),
                                            std::memory_order_relaxed) +
            block.size();
        if (tid == 0 && sh.observer) {
          // Live population: the observer reads cells through
          // read_fitness / read_cell.
          sh.observer({st.generations, evals_now,
                       sh.termination.elapsed_seconds(), best.fitness(),
                       sh.pop});
        }
        return sh.termination.sweep_done(st.generations, evals_now);
      });
  sh.thread_best[tid] = best.take();
}

}  // namespace

ParallelResult run_parallel(const etc::EtcMatrix& etc,
                            const cga::Config& config,
                            const cga::GenerationObserver& observer,
                            const std::atomic<bool>* cancel) {
  config.validate();
  if (config.update == cga::UpdatePolicy::kSynchronous) {
    throw std::invalid_argument(
        "run_parallel: PA-CGA is asynchronous; the synchronous update runs "
        "on cga::run_sequential");
  }
  const std::size_t n_threads = config.threads;

  support::Xoshiro256 init_rng(config.seed);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(etc, grid, init_rng, config.seed_min_min,
                      config.objective, config.lambda);
  // Warm-seed injection BEFORE initial_best is taken: a seeded run is
  // never-worse-than-seed by construction (the tracker starts at or below
  // the seed's fitness), with no clamp needed downstream.
  cga::apply_warm_seed(pop, etc, config);
  const auto blocks = cga::partition_blocks(pop.size(), n_threads);
  // Thread streams are decorrelated from the init stream by construction
  // (SplitMix64 expansion of the same master seed).
  auto rngs = support::make_streams(config.seed, n_threads + 1);

  const cga::Individual initial_best = pop.at(pop.best_index());

  // Per-thread hot state is cache-line padded; results are collected after
  // the join, so workers never publish through shared memory.
  std::vector<support::Padded<ThreadStats>> stats(n_threads);
  std::vector<std::optional<cga::Individual>> thread_best(n_threads);

  cga::TerminationController termination(config.termination);
  termination.bind_stop_flag(cancel);
  cga::TraceRecorder trace(config.collect_trace);
  std::atomic<std::uint64_t> global_evaluations{0};

  Shared shared{etc,         config,       pop,
                blocks,      rngs,         stats,
                thread_best, initial_best, trace,
                global_evaluations,        termination,
                observer};

  {
    support::ScopedThreads threads(
        n_threads, [&](std::size_t tid) { worker_async(shared, tid); });
  }  // join

  // All workers joined: unsynchronized scans are safe again. The thread
  // bests go first, so on a fitness tie the earliest-found child wins over
  // a population cell, as in run_sequential.
  cga::BestTracker best(initial_best);
  for (auto& tb : thread_best) {
    if (tb) best.observe(*tb);
  }
  best.observe_population(pop);
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
    out.result.generations =
        std::max(out.result.generations, s.value.generations);
  }
  return out;
}

}  // namespace pacga::par
