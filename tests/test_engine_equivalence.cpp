// Engine-equivalence golden tests for the shared Breeder/loop core.
//
// The refactor's contract: rebasing the four evolution loops on the shared
// core changed ZERO observable behavior. These tests pin that contract —
//  * run_sequential (async and sync) reproduces a hand-rolled reference
//    loop written the way the engines were before the refactor (legacy
//    detail::breed + manual bookkeeping), gene for gene;
//  * the three engines are individually deterministic on a fixed seed and
//    cellwise is worker-count independent;
//  * Config::lambda reaches the evaluation (weighted objective with
//    lambda = 1 is numerically the makespan objective, so the whole
//    trajectory must match);
//  * the per-generation observer fires with consistent accounting in all
//    engines;
//  * warm seeding (Config::warm_seed) places the seed verbatim in the
//    documented cell of the initial population, perturbs nothing else, and
//    a seeded run reproduces the hand-rolled seeded reference gene for
//    gene.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cga/engine.hpp"
#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "pacga/cellwise_engine.hpp"
#include "pacga/parallel_engine.hpp"
#include "sched/schedule.hpp"
#include "support/timer.hpp"

namespace pacga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 31) {
  etc::GenSpec spec;
  spec.tasks = 128;
  spec.machines = 16;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

cga::Config fast_config() {
  cga::Config c;
  c.width = 8;
  c.height = 8;
  c.termination = cga::Termination::after_generations(8);
  c.local_search.iterations = 2;
  return c;
}

/// The sequential loop exactly as it was written before the shared core:
/// fresh allocations per step, manual best/termination/trace bookkeeping.
cga::Result reference_sequential(const etc::EtcMatrix& etc,
                                 const cga::Config& config) {
  config.validate();
  support::Xoshiro256 rng(config.seed);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(etc, grid, rng, config.seed_min_min, config.objective,
                      config.lambda);
  const std::size_t n = pop.size();
  if (!config.warm_seed.empty()) {
    // Hand-rolled warm injection, written out the way the engines document
    // it: cell 1 when Min-min holds cell 0, cell 0 otherwise — BEFORE the
    // initial best is taken.
    const std::size_t cell = config.seed_min_min && n > 1 ? 1 : 0;
    pop.seed_cell(cell, etc, config.warm_seed, config.objective,
                  config.lambda);
  }

  cga::Individual best = pop.at(pop.best_index());
  support::WallTimer timer;
  const support::Deadline deadline(config.termination.wall_seconds);

  std::vector<std::size_t> order;
  cga::fill_sweep_order(config.sweep, n, order, rng);
  std::vector<cga::Individual> staged;

  std::uint64_t evaluations = 0;
  std::uint64_t generations = 0;
  bool stop = false;

  while (!stop) {
    if (config.sweep == cga::SweepPolicy::kNewShuffle ||
        config.sweep == cga::SweepPolicy::kUniformChoice) {
      cga::fill_sweep_order(config.sweep, n, order, rng);
    }
    if (config.update == cga::UpdatePolicy::kSynchronous) staged.clear();

    for (std::size_t idx : order) {
      cga::Individual offspring = cga::detail::breed(pop, idx, config, rng);
      ++evaluations;
      if (offspring.fitness < best.fitness) best = offspring;
      if (config.update == cga::UpdatePolicy::kAsynchronous) {
        if (offspring.fitness < pop.at(idx).fitness) {
          pop.at(idx) = std::move(offspring);
        }
      } else {
        staged.push_back(std::move(offspring));
      }
      if (evaluations >= config.termination.max_evaluations) {
        stop = true;
        break;
      }
    }

    if (config.update == cga::UpdatePolicy::kSynchronous) {
      for (std::size_t k = 0; k < staged.size(); ++k) {
        const std::size_t idx = order[k];
        if (staged[k].fitness < pop.at(idx).fitness) {
          pop.at(idx) = std::move(staged[k]);
        }
      }
    }

    ++generations;
    if (deadline.expired()) stop = true;
    if (generations >= config.termination.max_generations) stop = true;
  }

  cga::Result result{std::move(best.schedule)};
  result.best_fitness = best.fitness;
  result.evaluations = evaluations;
  result.generations = generations;
  return result;
}

class UpdatePolicyEquivalence
    : public ::testing::TestWithParam<cga::UpdatePolicy> {};

TEST_P(UpdatePolicyEquivalence, RefactoredEngineMatchesLegacyLoop) {
  const auto m = instance();
  for (std::uint64_t seed : {1ull, 17ull, 131ull}) {
    cga::Config c = fast_config();
    c.update = GetParam();
    c.seed = seed;
    const auto refactored = cga::run_sequential(m, c);
    const auto legacy = reference_sequential(m, c);
    EXPECT_DOUBLE_EQ(refactored.best_fitness, legacy.best_fitness)
        << "seed " << seed;
    EXPECT_EQ(refactored.best.hamming_distance(legacy.best), 0u)
        << "seed " << seed;
    EXPECT_EQ(refactored.evaluations, legacy.evaluations);
    EXPECT_EQ(refactored.generations, legacy.generations);
  }
}

TEST_P(UpdatePolicyEquivalence, SeededRunMatchesLegacyLoopGeneForGene) {
  // Warm seeding must not change anything about the trajectory except the
  // contents of the seeded cell: a seeded engine run reproduces the seeded
  // legacy loop exactly, and the result is never worse than the seed.
  const auto m = instance();
  support::Xoshiro256 seed_rng(77);
  const auto warm = sched::Schedule::random(m, seed_rng);
  for (std::uint64_t seed : {5ull, 97ull}) {
    cga::Config c = fast_config();
    c.update = GetParam();
    c.seed = seed;
    c.warm_seed.assign(warm.assignment().begin(), warm.assignment().end());
    const auto refactored = cga::run_sequential(m, c);
    const auto legacy = reference_sequential(m, c);
    EXPECT_DOUBLE_EQ(refactored.best_fitness, legacy.best_fitness)
        << "seed " << seed;
    EXPECT_EQ(refactored.best.hamming_distance(legacy.best), 0u)
        << "seed " << seed;
    EXPECT_EQ(refactored.evaluations, legacy.evaluations);
    EXPECT_EQ(refactored.generations, legacy.generations);
    EXPECT_LE(refactored.best_fitness, warm.makespan());
  }
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, UpdatePolicyEquivalence,
                         ::testing::Values(cga::UpdatePolicy::kAsynchronous,
                                           cga::UpdatePolicy::kSynchronous),
                         [](const auto& info) {
                           return std::string(
                               info.param == cga::UpdatePolicy::kAsynchronous
                                   ? "async"
                                   : "sync");
                         });

TEST(EngineEquivalence, SweepPoliciesMatchLegacyLoop) {
  const auto m = instance();
  for (auto sweep :
       {cga::SweepPolicy::kReverseSweep, cga::SweepPolicy::kFixedShuffle,
        cga::SweepPolicy::kNewShuffle, cga::SweepPolicy::kUniformChoice}) {
    cga::Config c = fast_config();
    c.sweep = sweep;
    c.seed = 23;
    const auto refactored = cga::run_sequential(m, c);
    const auto legacy = reference_sequential(m, c);
    EXPECT_DOUBLE_EQ(refactored.best_fitness, legacy.best_fitness)
        << to_string(sweep);
    EXPECT_EQ(refactored.best.hamming_distance(legacy.best), 0u)
        << to_string(sweep);
  }
}

TEST(EngineEquivalence, MidSweepEvaluationBudgetMatchesLegacyLoop) {
  const auto m = instance();
  cga::Config c = fast_config();
  c.termination = cga::Termination::after_evaluations(100);  // mid-sweep
  const auto refactored = cga::run_sequential(m, c);
  const auto legacy = reference_sequential(m, c);
  EXPECT_EQ(refactored.evaluations, 100u);
  EXPECT_EQ(refactored.evaluations, legacy.evaluations);
  EXPECT_EQ(refactored.generations, legacy.generations);
  EXPECT_DOUBLE_EQ(refactored.best_fitness, legacy.best_fitness);
}

TEST(EngineEquivalence, ThreeEnginesPinnedOnFixedSeed) {
  // Each engine is deterministic on a fixed seed: run twice, compare
  // everything. (The engines use different RNG stream layouts by design,
  // so they are pinned individually, not against each other.)
  const auto m = instance(47);
  cga::Config c = fast_config();
  c.seed = 2026;
  c.threads = 1;

  const auto s1 = cga::run_sequential(m, c);
  const auto s2 = cga::run_sequential(m, c);
  EXPECT_DOUBLE_EQ(s1.best_fitness, s2.best_fitness);
  EXPECT_EQ(s1.best.hamming_distance(s2.best), 0u);

  const auto w1 = par::run_cellwise(m, c);
  const auto w2 = par::run_cellwise(m, c);
  EXPECT_DOUBLE_EQ(w1.result.best_fitness, w2.result.best_fitness);
  EXPECT_EQ(w1.result.best.hamming_distance(w2.result.best), 0u);

  const auto p1 = par::run_parallel(m, c);
  const auto p2 = par::run_parallel(m, c);
  EXPECT_DOUBLE_EQ(p1.result.best_fitness, p2.result.best_fitness);
  EXPECT_EQ(p1.result.best.hamming_distance(p2.result.best), 0u);

  // All three search the same landscape from the same Min-min seed; their
  // qualities must be in the same ballpark.
  EXPECT_LT(s1.best_fitness, w1.result.best_fitness * 1.25);
  EXPECT_LT(w1.result.best_fitness, s1.best_fitness * 1.25);
  EXPECT_LT(p1.result.best_fitness, s1.best_fitness * 1.25);
  EXPECT_LT(s1.best_fitness, p1.result.best_fitness * 1.25);
}

TEST(EngineEquivalence, LambdaReachesEvaluation) {
  // lambda = 1 makes the weighted objective numerically equal to makespan,
  // so the full search trajectory must coincide with a makespan run.
  const auto m = instance();
  cga::Config makespan = fast_config();
  makespan.objective = sched::Objective::kMakespan;
  cga::Config weighted = fast_config();
  weighted.objective = sched::Objective::kWeightedMakespanFlowtime;
  weighted.lambda = 1.0;
  const auto rm = cga::run_sequential(m, makespan);
  const auto rw = cga::run_sequential(m, weighted);
  EXPECT_DOUBLE_EQ(rm.best_fitness, rw.best_fitness);
  EXPECT_EQ(rm.best.hamming_distance(rw.best), 0u);

  // And different lambdas genuinely change the search.
  cga::Config half = fast_config();
  half.objective = sched::Objective::kWeightedMakespanFlowtime;
  half.lambda = 0.5;
  const auto rh = cga::run_sequential(m, half);
  EXPECT_NE(rh.best_fitness, rw.best_fitness);
}

TEST(EngineEquivalence, ObserverFiresPerGenerationInAllEngines) {
  const auto m = instance();
  cga::Config c = fast_config();
  c.threads = 2;

  std::uint64_t seq_calls = 0;
  std::uint64_t last_evals = 0;
  const auto rs = cga::run_sequential(m, c, [&](const cga::GenerationEvent& e) {
    ++seq_calls;
    EXPECT_EQ(e.generation, seq_calls);
    EXPECT_GT(e.evaluations, last_evals);
    last_evals = e.evaluations;
    EXPECT_GT(e.best_fitness, 0.0);
    EXPECT_EQ(e.population.size(), 64u);
  });
  EXPECT_EQ(seq_calls, rs.generations);
  EXPECT_EQ(last_evals, rs.evaluations);

  std::uint64_t cw_calls = 0;
  const auto rw = par::run_cellwise(m, c, [&](const cga::GenerationEvent& e) {
    ++cw_calls;
    EXPECT_EQ(e.generation, cw_calls);
  });
  EXPECT_EQ(cw_calls, rw.result.generations);

  std::uint64_t par_calls = 0;
  par::run_parallel(m, c, [&](const cga::GenerationEvent& e) {
    ++par_calls;
    EXPECT_GT(e.evaluations, 0u);
  });
  EXPECT_GT(par_calls, 0u);
}

TEST(EngineEquivalence, WarmSeedPresentVerbatimInInitialPopulation) {
  // apply_warm_seed is THE injection point every engine routes through:
  // the seed lands gene-for-gene in the documented cell, the Min-min
  // individual survives in cell 0, and an empty seed is a no-op.
  const auto m = instance();
  support::Xoshiro256 seed_rng(5);
  const auto warm = sched::Schedule::random(m, seed_rng);

  for (bool min_min : {true, false}) {
    cga::Config c = fast_config();
    c.seed_min_min = min_min;
    c.warm_seed.assign(warm.assignment().begin(), warm.assignment().end());
    support::Xoshiro256 init(c.seed);
    cga::Grid grid(c.width, c.height);
    cga::Population pop(m, grid, init, c.seed_min_min, c.objective,
                        c.lambda);
    const std::size_t cell = cga::apply_warm_seed(pop, m, c);
    EXPECT_EQ(cell, cga::warm_seed_cell(min_min, pop.size()));
    const cga::Individual& seeded = pop.at(cell);
    EXPECT_EQ(seeded.schedule.hamming_distance(warm), 0u);
    EXPECT_DOUBLE_EQ(seeded.fitness, warm.makespan());
    if (min_min) {
      // Both survive: the heuristic seed keeps cell 0.
      EXPECT_DOUBLE_EQ(pop.at(0).fitness, heur::min_min(m).makespan());
    }
  }

  cga::Config empty = fast_config();
  support::Xoshiro256 init(empty.seed);
  cga::Grid grid(empty.width, empty.height);
  cga::Population pop(m, grid, init, empty.seed_min_min, empty.objective,
                      empty.lambda);
  EXPECT_EQ(cga::apply_warm_seed(pop, m, empty), pop.size());
}

TEST(EngineEquivalence, MalformedWarmSeedThrows) {
  // A wrong-length or out-of-range seed must be rejected loudly (the
  // Schedule::adopt checks), not silently clamped or truncated.
  const auto m = instance();
  cga::Config short_seed = fast_config();
  short_seed.warm_seed.assign(m.tasks() - 1, sched::MachineId{0});
  EXPECT_THROW(cga::run_sequential(m, short_seed), std::invalid_argument);

  cga::Config bad_machine = fast_config();
  bad_machine.warm_seed.assign(
      m.tasks(), static_cast<sched::MachineId>(m.machines()));
  EXPECT_THROW(cga::run_sequential(m, bad_machine), std::invalid_argument);
}

TEST(EngineEquivalence, CellwiseEvaluationAccountingIsExact) {
  // The termination counter is the real summed per-thread totals, and the
  // reported total matches it: max_evaluations means the same thing in
  // every engine (granularity: one generation).
  const auto m = instance();
  cga::Config c = fast_config();
  c.threads = 3;
  c.termination = cga::Termination::after_evaluations(200);
  const auto r = par::run_cellwise(m, c);
  std::uint64_t sum = 0;
  for (const auto& t : r.threads) sum += t.evaluations;
  EXPECT_EQ(sum, r.result.evaluations);
  EXPECT_GE(r.result.evaluations, 200u);
  EXPECT_LE(r.result.evaluations, 200u + 64u);
  EXPECT_EQ(r.result.evaluations, r.result.generations * 64u);
}

}  // namespace
}  // namespace pacga
