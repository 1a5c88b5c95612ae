#include "cga/config.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pacga::cga {
namespace {

TEST(Config, DefaultsMatchPaperTable1) {
  const Config c;
  // Table 1: population 16x16, best-2 selection, p_comb = 1.0, p_mut =
  // 1.0, H2LL with p_ser = 1.0, line sweep, Min-min seed, threads 1-4 (3
  // adopted). The L5 neighborhood, the move mutation and replace-if-better
  // are fixed, not configured.
  EXPECT_EQ(c.width, 16u);
  EXPECT_EQ(c.height, 16u);
  EXPECT_EQ(c.population_size(), 256u);
  EXPECT_EQ(c.selection, SelectionKind::kBestTwo);
  EXPECT_DOUBLE_EQ(c.p_comb, 1.0);
  EXPECT_DOUBLE_EQ(c.p_mut, 1.0);
  EXPECT_DOUBLE_EQ(c.p_ls, 1.0);
  EXPECT_EQ(c.ls_kind, LocalSearchKind::kH2LL);
  EXPECT_EQ(c.local_search.iterations, 10u);
  EXPECT_EQ(c.update, UpdatePolicy::kAsynchronous);
  EXPECT_EQ(c.sweep, SweepPolicy::kLineSweep);
  EXPECT_TRUE(c.seed_min_min);
  EXPECT_EQ(c.objective, sched::Objective::kMakespan);
  EXPECT_EQ(c.threads, 3u);
  // The paper adopts tpx after the Figure 5 study.
  EXPECT_EQ(c.crossover, CrossoverKind::kTwoPoint);
}

TEST(Config, ValidateAcceptsDefaults) {
  const Config c;
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, ValidateRejectsBadValues) {
  Config c;
  c.width = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = Config{};
  c.p_comb = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = Config{};
  c.p_mut = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = Config{};
  c.threads = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = Config{};
  c.threads = 1000;  // > 256 individuals
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = Config{};
  c.termination.wall_seconds = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Termination, FactoryHelpers) {
  const auto by_time = Termination::after_seconds(90.0);
  EXPECT_DOUBLE_EQ(by_time.wall_seconds, 90.0);
  EXPECT_EQ(by_time.max_generations, std::numeric_limits<std::uint64_t>::max());

  const auto by_gen = Termination::after_generations(50);
  EXPECT_EQ(by_gen.max_generations, 50u);
  EXPECT_TRUE(std::isinf(by_gen.wall_seconds));

  const auto by_eval = Termination::after_evaluations(1000);
  EXPECT_EQ(by_eval.max_evaluations, 1000u);
}

TEST(EnumNames, RoundTripStrings) {
  EXPECT_STREQ(to_string(SweepPolicy::kLineSweep), "line");
  EXPECT_STREQ(to_string(SweepPolicy::kUniformChoice), "uniform");
}

}  // namespace
}  // namespace pacga::cga
