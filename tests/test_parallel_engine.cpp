#include "pacga/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "support/stats.hpp"

#include "cga/engine.hpp"
#include "etc/braun.hpp"
#include "heuristics/minmin.hpp"
#include "sched/schedule.hpp"

namespace pacga::par {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 51) {
  etc::GenSpec spec;
  spec.tasks = 128;
  spec.machines = 16;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

cga::Config fast_config(std::size_t threads) {
  cga::Config c;
  c.width = 8;
  c.height = 8;
  c.threads = threads;
  c.termination = cga::Termination::after_generations(10);
  c.local_search.iterations = 2;
  return c;
}

TEST(ParallelEngine, SingleThreadMatchesContract) {
  const auto m = instance();
  const auto r = run_parallel(m, fast_config(1));
  ASSERT_EQ(r.threads.size(), 1u);
  EXPECT_EQ(r.threads[0].generations, 10u);
  EXPECT_EQ(r.total_evaluations(), 10u * 64u);
  EXPECT_EQ(r.result.evaluations, r.total_evaluations());
  EXPECT_TRUE(r.result.best.validate(1e-9));
}

TEST(ParallelEngine, RunsWithOneToFourThreads) {
  const auto m = instance();
  for (std::size_t t = 1; t <= 4; ++t) {
    const auto r = run_parallel(m, fast_config(t));
    ASSERT_EQ(r.threads.size(), t);
    for (const auto& st : r.threads) {
      EXPECT_GE(st.generations, 10u);
      EXPECT_GT(st.evaluations, 0u);
    }
    EXPECT_TRUE(r.result.best.validate(1e-9));
    EXPECT_DOUBLE_EQ(r.result.best.makespan(), r.result.best_fitness);
  }
}

TEST(ParallelEngine, EvaluationAccountingConsistent) {
  const auto m = instance();
  const auto r = run_parallel(m, fast_config(4));
  std::uint64_t sum = 0;
  for (const auto& st : r.threads) sum += st.evaluations;
  EXPECT_EQ(sum, r.result.evaluations);
}

TEST(ParallelEngine, GenerationsBoundPerThread) {
  const auto m = instance();
  auto c = fast_config(3);
  c.termination = cga::Termination::after_generations(7);
  const auto r = run_parallel(m, c);
  for (const auto& st : r.threads) {
    // Blocks of 64/3 individuals: 22+21+21. Each thread does exactly 7
    // sweeps of its own block.
    EXPECT_EQ(st.generations, 7u);
  }
  EXPECT_EQ(r.result.generations, 7u);
}

TEST(ParallelEngine, EvaluationBudgetStopsAllThreads) {
  const auto m = instance();
  auto c = fast_config(4);
  c.termination = cga::Termination::after_evaluations(200);
  const auto r = run_parallel(m, c);
  // Granularity is one block sweep per thread (16 cells each), so overshoot
  // is at most threads * block_size.
  EXPECT_GE(r.total_evaluations(), 200u);
  EXPECT_LE(r.total_evaluations(), 200u + 4 * 16);
}

TEST(ParallelEngine, WallClockTerminates) {
  const auto m = instance();
  auto c = fast_config(4);
  c.termination = cga::Termination::after_seconds(0.2);
  const auto r = run_parallel(m, c);
  EXPECT_GE(r.result.elapsed_seconds, 0.2);
  EXPECT_LT(r.result.elapsed_seconds, 5.0);
}

TEST(ParallelEngine, MinMinSeedGuaranteesQuality) {
  const auto m = instance();
  const auto r = run_parallel(m, fast_config(3));
  EXPECT_LE(r.result.best_fitness, heur::min_min(m).makespan() + 1e-9);
}

TEST(ParallelEngine, ImprovesOverInitialPopulation) {
  const auto m = instance();
  auto c = fast_config(3);
  c.seed_min_min = false;
  c.termination = cga::Termination::after_generations(30);
  const auto r = run_parallel(m, c);
  // Compare against mean random makespan: must be clearly better.
  support::Xoshiro256 rng(9);
  support::RunningStats random_ms;
  for (int i = 0; i < 20; ++i)
    random_ms.add(sched::Schedule::random(m, rng).makespan());
  EXPECT_LT(r.result.best_fitness, random_ms.mean());
}

TEST(ParallelEngine, TraceCollectedWhenEnabled) {
  const auto m = instance();
  auto c = fast_config(3);
  c.collect_trace = true;
  const auto r = run_parallel(m, c);
  ASSERT_FALSE(r.result.trace.empty());
  // Thread 0 samples once per its own generation.
  EXPECT_EQ(r.result.trace.size(), r.threads[0].generations);
  for (std::size_t i = 1; i < r.result.trace.size(); ++i) {
    EXPECT_LE(r.result.trace[i].best_fitness,
              r.result.trace[i - 1].best_fitness + 1e-9);
  }
}

TEST(ParallelEngine, ReplacementsNeverExceedEvaluations) {
  const auto m = instance();
  const auto r = run_parallel(m, fast_config(4));
  for (const auto& st : r.threads) {
    EXPECT_LE(st.replacements, st.evaluations);
  }
}

TEST(ParallelEngine, SameSeedSingleThreadIsDeterministic) {
  const auto m = instance();
  const auto c = fast_config(1);
  const auto r1 = run_parallel(m, c);
  const auto r2 = run_parallel(m, c);
  EXPECT_DOUBLE_EQ(r1.result.best_fitness, r2.result.best_fitness);
  EXPECT_EQ(r1.result.best.hamming_distance(r2.result.best), 0u);
}

TEST(ParallelEngine, BestFitnessNotWorseThanSequentialByMuch) {
  // Sanity: the parallel algorithm is the same search, not a broken one.
  // With equal generation budgets, multi-thread best should land in the
  // same quality ballpark as the single-thread best.
  const auto m = instance(53);
  auto c = fast_config(1);
  c.termination = cga::Termination::after_generations(20);
  const double single = run_parallel(m, c).result.best_fitness;
  c.threads = 4;
  const double quad = run_parallel(m, c).result.best_fitness;
  EXPECT_LT(quad, single * 1.25);
  EXPECT_LT(single, quad * 1.25);
}

/// Stress the locking: many threads, tiny blocks, long run; under TSan or
/// ASan this is the test that catches races.
TEST(ParallelEngine, LockStress) {
  const auto m = instance(59);
  cga::Config c;
  c.width = 4;
  c.height = 4;  // 16 cells
  c.threads = 8; // 2-cell blocks: every neighborhood crosses blocks
  c.local_search.iterations = 1;
  c.termination = cga::Termination::after_generations(50);
  const auto r = run_parallel(m, c);
  EXPECT_TRUE(r.result.best.validate(1e-9));
  for (const auto& st : r.threads) EXPECT_GE(st.generations, 50u);
}

class ThreadCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadCountTest, BlockPartitionMatchesThreadCount) {
  const auto m = instance();
  const auto r = run_parallel(m, fast_config(GetParam()));
  EXPECT_EQ(r.threads.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(OneToEight, ThreadCountTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(ParallelEngine, SynchronousUpdateThrows) {
  // PA-CGA is asynchronous; the synchronous update runs on run_sequential.
  const auto m = instance();
  auto c = fast_config(2);
  c.update = cga::UpdatePolicy::kSynchronous;
  EXPECT_THROW(run_parallel(m, c), std::invalid_argument);
}

std::vector<sched::MachineId> as_seed(const sched::Schedule& s) {
  return {s.assignment().begin(), s.assignment().end()};
}

/// run_parallel's exact single-thread layout, written out by hand: init
/// stream seeds the population, warm seed lands in the documented cell
/// BEFORE the initial best is taken, the worker breeds from stream
/// rngs[1] of make_streams(seed, 2), and the sweep order comes from the
/// per-thread order stream seed ^ 0xb10c0000. A seeded threads==1 run of
/// the real engine must match this loop gene for gene — this is the wall
/// that pins the seeding plumbing to the pre-existing trajectory
/// semantics.
cga::Result reference_single_thread(const etc::EtcMatrix& etc,
                                    const cga::Config& config) {
  config.validate();
  support::Xoshiro256 init_rng(config.seed);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(etc, grid, init_rng, config.seed_min_min,
                      config.objective, config.lambda);
  const std::size_t n = pop.size();
  if (!config.warm_seed.empty()) {
    const std::size_t cell = config.seed_min_min && n > 1 ? 1 : 0;
    pop.seed_cell(cell, etc, config.warm_seed, config.objective,
                  config.lambda);
  }
  auto rngs = support::make_streams(config.seed, 2);
  support::Xoshiro256& rng = rngs[1];
  cga::Individual best = pop.at(pop.best_index());

  support::Xoshiro256 order_rng(config.seed ^ 0xb10c0000);
  std::vector<std::size_t> order;
  cga::fill_sweep_order(config.sweep, n, order, order_rng);

  std::uint64_t evaluations = 0;
  std::uint64_t generations = 0;
  bool stop = false;
  while (!stop) {
    if (config.sweep == cga::SweepPolicy::kNewShuffle ||
        config.sweep == cga::SweepPolicy::kUniformChoice) {
      cga::fill_sweep_order(config.sweep, n, order, order_rng);
    }
    for (std::size_t idx : order) {
      cga::Individual child = cga::detail::breed(pop, idx, config, rng);
      ++evaluations;
      if (child.fitness < best.fitness) best = child;
      if (child.fitness < pop.at(idx).fitness) pop.at(idx) = std::move(child);
    }
    ++generations;
    // run_parallel checks budgets once per block sweep.
    stop = generations >= config.termination.max_generations ||
           evaluations >= config.termination.max_evaluations;
  }

  // The engine's post-join collection: thread-best merged with a full
  // population scan.
  for (std::size_t i = 0; i < n; ++i) {
    if (pop.at(i).fitness < best.fitness) best = pop.at(i);
  }
  cga::Result result{std::move(best.schedule)};
  result.best_fitness = best.fitness;
  result.evaluations = evaluations;
  result.generations = generations;
  return result;
}

TEST(ParallelEngineSeeded, SingleThreadMatchesSeededReferenceGeneForGene) {
  const auto m = instance();
  support::Xoshiro256 seed_rng(7);
  const auto warm = sched::Schedule::random(m, seed_rng);
  for (std::uint64_t seed : {2ull, 19ull, 101ull}) {
    auto c = fast_config(1);
    c.seed = seed;
    c.warm_seed = as_seed(warm);
    const auto engine = run_parallel(m, c);
    const auto reference = reference_single_thread(m, c);
    EXPECT_DOUBLE_EQ(engine.result.best_fitness, reference.best_fitness)
        << "seed " << seed;
    EXPECT_EQ(engine.result.best.hamming_distance(reference.best), 0u)
        << "seed " << seed;
    EXPECT_EQ(engine.result.evaluations, reference.evaluations);
    EXPECT_LE(engine.result.best_fitness, warm.makespan());
  }
}

TEST(ParallelEngineSeeded, NeverWorseThanSeedAcrossRandomShapes) {
  // Property over randomized shapes and seeds, including the degenerate
  // single-machine instance (where every schedule — hence the seed — is
  // already optimal): the seeded result is never worse than the seed, at
  // one and at several threads. No clamp performs
  // this; it holds by construction of the initial population.
  struct Shape {
    std::size_t tasks, machines;
  };
  const Shape shapes[] = {{48, 6}, {40, 1}, {33, 5}, {96, 12}};
  std::uint64_t stamp = 1000;
  for (const Shape& s : shapes) {
    etc::GenSpec spec;
    spec.tasks = s.tasks;
    spec.machines = s.machines;
    spec.consistency = etc::Consistency::kInconsistent;
    spec.seed = ++stamp;
    const auto m = etc::generate(spec);
    support::Xoshiro256 seed_rng(stamp * 31);
    const auto warm = sched::Schedule::random(m, seed_rng);
    for (std::size_t t : {std::size_t{1}, std::size_t{2}}) {
      cga::Config c;
      c.width = 4;
      c.height = 4;
      c.threads = t;
      c.seed = stamp;
      c.local_search.iterations = 1;
      c.termination = cga::Termination::after_generations(3);
      c.warm_seed = as_seed(warm);
      const auto r = run_parallel(m, c);
      EXPECT_LE(r.result.best_fitness, warm.makespan())
          << s.tasks << "x" << s.machines << " t=" << t;
      EXPECT_TRUE(r.result.best.validate(1e-9));
      if (s.machines == 1) {
        // seed == optimum: the run returns it bit-exactly.
        EXPECT_DOUBLE_EQ(r.result.best_fitness, warm.makespan());
        EXPECT_EQ(r.result.best.hamming_distance(warm), 0u);
      }
    }
  }
}

TEST(ParallelEngineSeeded, ReseedingWithOwnBestNeverRegresses) {
  // seed == (near-)optimum on a real shape: feed a finished run's best
  // back in as the warm seed under a different RNG seed; the second run
  // must end at or below it.
  const auto m = instance(71);
  auto c = fast_config(2);
  const auto first = run_parallel(m, c);
  c.seed = 999;
  c.warm_seed = as_seed(first.result.best);
  const auto second = run_parallel(m, c);
  EXPECT_LE(second.result.best_fitness, first.result.best_fitness);
}

}  // namespace
}  // namespace pacga::par
