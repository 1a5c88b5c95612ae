#include "sched/fitness.hpp"

#include <gtest/gtest.h>

#include "etc/braun.hpp"

namespace pacga::sched {
namespace {

etc::EtcMatrix instance() {
  etc::GenSpec spec;
  spec.tasks = 32;
  spec.machines = 4;
  spec.seed = 9;
  return etc::generate(spec);
}

TEST(Fitness, MakespanObjectiveMatchesSchedule) {
  const auto m = instance();
  support::Xoshiro256 rng(1);
  const Schedule s = Schedule::random(m, rng);
  EXPECT_DOUBLE_EQ(evaluate(s, Objective::kMakespan), s.makespan());
}

TEST(Fitness, FlowtimeObjectiveMatchesSchedule) {
  const auto m = instance();
  support::Xoshiro256 rng(2);
  const Schedule s = Schedule::random(m, rng);
  EXPECT_DOUBLE_EQ(evaluate(s, Objective::kFlowtime), s.flowtime());
}

TEST(Fitness, WeightedObjectiveInterpolates) {
  const auto m = instance();
  support::Xoshiro256 rng(3);
  const Schedule s = Schedule::random(m, rng);
  const double w1 = evaluate(s, Objective::kWeightedMakespanFlowtime, 1.0);
  EXPECT_DOUBLE_EQ(w1, s.makespan());
  const double w0 = evaluate(s, Objective::kWeightedMakespanFlowtime, 0.0);
  EXPECT_DOUBLE_EQ(w0, s.flowtime() / static_cast<double>(s.tasks()));
  const double mid = evaluate(s, Objective::kWeightedMakespanFlowtime, 0.5);
  EXPECT_DOUBLE_EQ(mid, 0.5 * w1 + 0.5 * w0);
}

TEST(Fitness, BetterIsStrictLess) {
  EXPECT_TRUE(better(1.0, 2.0));
  EXPECT_FALSE(better(2.0, 1.0));
  EXPECT_FALSE(better(1.0, 1.0));
}

}  // namespace
}  // namespace pacga::sched
