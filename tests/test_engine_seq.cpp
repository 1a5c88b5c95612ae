#include "cga/engine.hpp"

#include <gtest/gtest.h>

#include "support/stats.hpp"

#include <algorithm>
#include <set>

#include "etc/braun.hpp"
#include "heuristics/minmin.hpp"

namespace pacga::cga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 41) {
  etc::GenSpec spec;
  spec.tasks = 128;
  spec.machines = 16;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

Config fast_config() {
  Config c;
  c.width = 8;
  c.height = 8;
  c.termination = Termination::after_generations(10);
  c.local_search.iterations = 2;
  c.collect_trace = true;
  return c;
}

TEST(FillSweepOrder, LineAndReverse) {
  support::Xoshiro256 rng(1);
  std::vector<std::size_t> order;
  fill_sweep_order(SweepPolicy::kLineSweep, 5, order, rng);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  fill_sweep_order(SweepPolicy::kReverseSweep, 5, order, rng);
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
}

TEST(FillSweepOrder, ShufflesArePermutations) {
  support::Xoshiro256 rng(2);
  std::vector<std::size_t> order;
  for (auto policy : {SweepPolicy::kFixedShuffle, SweepPolicy::kNewShuffle}) {
    fill_sweep_order(policy, 50, order, rng);
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(FillSweepOrder, UniformChoiceSamplesWithReplacement) {
  support::Xoshiro256 rng(3);
  std::vector<std::size_t> order;
  fill_sweep_order(SweepPolicy::kUniformChoice, 100, order, rng);
  EXPECT_EQ(order.size(), 100u);
  const std::set<std::size_t> unique(order.begin(), order.end());
  EXPECT_LT(unique.size(), 100u);  // collisions virtually certain
  for (std::size_t i : order) EXPECT_LT(i, 100u);
}

TEST(SequentialEngine, Deterministic) {
  const auto m = instance();
  Config c = fast_config();
  c.seed = 123;
  const auto r1 = run_sequential(m, c);
  const auto r2 = run_sequential(m, c);
  EXPECT_DOUBLE_EQ(r1.best_fitness, r2.best_fitness);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
  EXPECT_EQ(r1.best.hamming_distance(r2.best), 0u);
}

TEST(SequentialEngine, SeedChangesTrajectory) {
  const auto m = instance();
  Config c = fast_config();
  c.seed = 1;
  const auto r1 = run_sequential(m, c);
  c.seed = 2;
  const auto r2 = run_sequential(m, c);
  // Same instance, same budget, different search path.
  EXPECT_NE(r1.best.hamming_distance(r2.best), 0u);
}

TEST(SequentialEngine, GenerationAccounting) {
  const auto m = instance();
  Config c = fast_config();
  const auto r = run_sequential(m, c);
  EXPECT_EQ(r.generations, 10u);
  EXPECT_EQ(r.evaluations, 10u * c.population_size());
}

TEST(SequentialEngine, EvaluationBudgetRespected) {
  const auto m = instance();
  Config c = fast_config();
  c.termination = Termination::after_evaluations(100);
  const auto r = run_sequential(m, c);
  EXPECT_EQ(r.evaluations, 100u);
}

TEST(SequentialEngine, WallClockTerminates) {
  const auto m = instance();
  Config c = fast_config();
  c.termination = Termination::after_seconds(0.2);
  const auto r = run_sequential(m, c);
  // Coarse check (per-generation granularity): finished near the budget.
  EXPECT_GE(r.elapsed_seconds, 0.2);
  EXPECT_LT(r.elapsed_seconds, 5.0);
  EXPECT_GT(r.generations, 0u);
}

TEST(SequentialEngine, FitnessNeverDegradesWithReplaceIfBetter) {
  const auto m = instance();
  Config c = fast_config();
  c.termination = Termination::after_generations(20);
  const auto r = run_sequential(m, c);
  ASSERT_GT(r.trace.size(), 1u);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].best_fitness, r.trace[i - 1].best_fitness);
    EXPECT_LE(r.trace[i].mean_fitness, r.trace[i - 1].mean_fitness + 1e-9);
  }
}

TEST(SequentialEngine, ImprovesOverRandomInitialPopulation) {
  const auto m = instance();
  Config c = fast_config();
  c.seed_min_min = false;
  c.termination = Termination::after_generations(30);
  const auto r = run_sequential(m, c);
  ASSERT_FALSE(r.trace.empty());
  const double initial_best = r.trace.front().best_fitness;
  EXPECT_LT(r.best_fitness, initial_best);
}

TEST(SequentialEngine, MinMinSeedGuaranteesAtLeastMinMinQuality) {
  const auto m = instance();
  Config c = fast_config();
  c.seed_min_min = true;
  const auto r = run_sequential(m, c);
  const double minmin_ms = heur::min_min(m).makespan();
  EXPECT_LE(r.best_fitness, minmin_ms + 1e-9);
}

TEST(SequentialEngine, BestScheduleMatchesReportedFitness) {
  const auto m = instance();
  const auto r = run_sequential(m, fast_config());
  EXPECT_DOUBLE_EQ(r.best.makespan(), r.best_fitness);
  EXPECT_TRUE(r.best.validate(1e-9));
}

TEST(SequentialEngine, SynchronousModeRuns) {
  const auto m = instance();
  Config c = fast_config();
  c.update = UpdatePolicy::kSynchronous;
  const auto r = run_sequential(m, c);
  EXPECT_EQ(r.generations, 10u);
  EXPECT_TRUE(r.best.validate(1e-9));
}

TEST(SequentialEngine, AsyncConvergesAtLeastAsFastAsSyncOnAverage) {
  // The literature result the paper cites: asynchronous CGAs converge
  // faster. Check mean best fitness after a small fixed budget.
  const auto m = instance(43);
  support::RunningStats async_fit, sync_fit;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Config c = fast_config();
    c.termination = Termination::after_generations(15);
    c.seed = seed;
    c.seed_min_min = false;
    c.update = UpdatePolicy::kAsynchronous;
    async_fit.add(run_sequential(m, c).best_fitness);
    c.update = UpdatePolicy::kSynchronous;
    sync_fit.add(run_sequential(m, c).best_fitness);
  }
  EXPECT_LE(async_fit.mean(), sync_fit.mean() * 1.02);
}

TEST(SequentialEngine, TabuHopLocalSearchVariantRuns) {
  const auto m = instance();
  Config c = fast_config();
  c.ls_kind = LocalSearchKind::kTabuHop;
  c.tabu = {5, 4};
  const auto r = run_sequential(m, c);
  EXPECT_TRUE(r.best.validate(1e-9));
  EXPECT_EQ(r.generations, 10u);
}

TEST(SequentialEngine, ZeroIterationsDisablesEitherLocalSearch) {
  // local_search.iterations == 0 turns local search off whatever ls_kind
  // is, before the p_ls Bernoulli draw, so the two trajectories match.
  const auto m = instance();
  Config a = fast_config();
  a.local_search.iterations = 0;
  Config b = a;
  b.ls_kind = LocalSearchKind::kTabuHop;
  const auto ra = run_sequential(m, a);
  const auto rb = run_sequential(m, b);
  EXPECT_DOUBLE_EQ(ra.best_fitness, rb.best_fitness);
  EXPECT_EQ(ra.best, rb.best);
}

TEST(SequentialEngine, TraceDisabledByDefault) {
  const auto m = instance();
  Config c = fast_config();
  c.collect_trace = false;
  const auto r = run_sequential(m, c);
  EXPECT_TRUE(r.trace.empty());
}

class SweepPolicyTest : public ::testing::TestWithParam<SweepPolicy> {};

TEST_P(SweepPolicyTest, AllPoliciesReachBudgetAndImprove) {
  const auto m = instance();
  Config c = fast_config();
  c.sweep = GetParam();
  c.termination = Termination::after_generations(15);
  const auto r = run_sequential(m, c);
  EXPECT_EQ(r.generations, 15u);
  EXPECT_TRUE(r.best.validate(1e-9));
  ASSERT_FALSE(r.trace.empty());
  EXPECT_LE(r.best_fitness, r.trace.front().best_fitness);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SweepPolicyTest,
    ::testing::Values(SweepPolicy::kLineSweep, SweepPolicy::kReverseSweep,
                      SweepPolicy::kFixedShuffle, SweepPolicy::kNewShuffle,
                      SweepPolicy::kUniformChoice),
    [](const auto& info) {
      std::string n = to_string(info.param);
      for (char& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

}  // namespace
}  // namespace pacga::cga
