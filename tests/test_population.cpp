#include "cga/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "etc/braun.hpp"
#include "heuristics/minmin.hpp"

namespace pacga::cga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 91) {
  etc::GenSpec spec;
  spec.tasks = 64;
  spec.machines = 8;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

TEST(Population, SizeMatchesGrid) {
  const auto m = instance();
  support::Xoshiro256 rng(1);
  Population pop(m, Grid(8, 4), rng, false, sched::Objective::kMakespan);
  EXPECT_EQ(pop.size(), 32u);
  EXPECT_EQ(pop.grid().width(), 8u);
  EXPECT_EQ(pop.grid().height(), 4u);
}

TEST(Population, FitnessMatchesSchedules) {
  const auto m = instance();
  support::Xoshiro256 rng(2);
  Population pop(m, Grid(4, 4), rng, false, sched::Objective::kMakespan);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_DOUBLE_EQ(pop.at(i).fitness, pop.at(i).schedule.makespan());
    EXPECT_TRUE(pop.at(i).schedule.validate(1e-9));
  }
}

TEST(Population, NeighborTableMatchesNeighborhoodOf) {
  const auto m = instance();
  support::Xoshiro256 rng(5);
  const auto expect_table = [](const Population& pop) {
    for (std::size_t i = 0; i < pop.size(); ++i) {
      EXPECT_EQ(pop.neighbors(i), neighborhood_of(pop.grid(), i))
          << pop.grid().width() << "x" << pop.grid().height() << " cell "
          << i;
    }
  };
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {16, 16}};
  for (const auto& [w, h] : shapes) {
    const Population pop(m, Grid(w, h), rng, false,
                         sched::Objective::kMakespan);
    expect_table(pop);
  }
  // Move assignment carries the source's table along with its grid.
  Population moved(m, Grid(2, 2), rng, false, sched::Objective::kMakespan);
  moved = Population(m, Grid(3, 5), rng, false, sched::Objective::kMakespan);
  EXPECT_EQ(moved.grid().width(), 3u);
  expect_table(moved);
}

TEST(Population, MinMinSeedPlacedAtCellZero) {
  const auto m = instance();
  support::Xoshiro256 rng(3);
  Population pop(m, Grid(6, 6), rng, true, sched::Objective::kMakespan);
  const double minmin_ms = heur::min_min(m).makespan();
  EXPECT_DOUBLE_EQ(pop.at(0).fitness, minmin_ms);
  // The seed is (essentially always) the best initial individual.
  EXPECT_EQ(pop.best_index(), 0u);
}

TEST(Population, NoSeedMeansAllRandom) {
  const auto m = instance();
  support::Xoshiro256 rng(4);
  Population pop(m, Grid(6, 6), rng, false, sched::Objective::kMakespan);
  const double minmin_ms = heur::min_min(m).makespan();
  // A random 64-task assignment matching Min-min exactly is implausible.
  EXPECT_NE(pop.at(0).fitness, minmin_ms);
}

TEST(Population, BestIndexIsMinimal) {
  const auto m = instance();
  support::Xoshiro256 rng(5);
  Population pop(m, Grid(4, 4), rng, false, sched::Objective::kMakespan);
  const std::size_t best = pop.best_index();
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_LE(pop.at(best).fitness, pop.at(i).fitness);
  }
}

TEST(Population, ObjectiveControlsFitness) {
  const auto m = instance();
  support::Xoshiro256 rng(6);
  Population flow(m, Grid(3, 3), rng, false, sched::Objective::kFlowtime);
  for (std::size_t i = 0; i < flow.size(); ++i) {
    EXPECT_DOUBLE_EQ(flow.at(i).fitness, flow.at(i).schedule.flowtime());
  }
}

TEST(Population, DeterministicGivenRngState) {
  const auto m = instance();
  support::Xoshiro256 a(7), b(7);
  Population p1(m, Grid(4, 4), a, true, sched::Objective::kMakespan);
  Population p2(m, Grid(4, 4), b, true, sched::Objective::kMakespan);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1.at(i).schedule.hamming_distance(p2.at(i).schedule), 0u);
  }
}

TEST(Population, PublishedCellsReadBackWhole) {
  const auto m = instance();
  support::Xoshiro256 rng(8);
  Population pop(m, Grid(4, 4), rng, false, sched::Objective::kMakespan);
  const Individual src = Individual::evaluated(sched::Schedule::random(m, rng),
                                               sched::Objective::kMakespan);
  pop.publish(5, src);
  EXPECT_EQ(pop.at(5).schedule, src.schedule);
  EXPECT_EQ(pop.read_fitness(5), src.fitness);
  Individual out(sched::Schedule(m), 0.0);
  pop.read_cell(5, out);
  EXPECT_EQ(out.schedule, src.schedule);
  EXPECT_EQ(out.fitness, src.fitness);
  EXPECT_TRUE(out.schedule.validate(1e-9));
}

/// True when `got` is `want` in every word: genes, completions, fitness.
bool same_individual(const Individual& got, const Individual& want) {
  const auto a = got.schedule.completions();
  const auto b = want.schedule.completions();
  return got.schedule == want.schedule &&
         std::equal(a.begin(), a.end(), b.begin(), b.end()) &&
         got.fitness == want.fitness;
}

TEST(Population, ConcurrentReadsNeverSeeATornIndividual) {
  // One writer alternates two valid individuals in one cell through
  // publish(); two readers copy that cell with read_cell() and read its
  // fitness with read_fitness(). Every copy must be entirely A or
  // entirely B, and A and B are valid, so every copy passes validate().
  // The writer publishes in bursts, so publishes often land inside reads,
  // and then pauses for as long as the burst took, so reads also complete:
  // a writer that never pauses starves the readers, which is not the
  // engine's pattern (about 4% of its steps publish).
  etc::GenSpec spec;
  spec.tasks = 512;
  spec.machines = 16;
  spec.seed = 93;
  const auto m = etc::generate(spec);
  support::Xoshiro256 rng(10);
  Population pop(m, Grid(4, 4), rng, false, sched::Objective::kMakespan);
  const Individual a = Individual::evaluated(sched::Schedule::random(m, rng),
                                             sched::Objective::kMakespan);
  const Individual b = Individual::evaluated(sched::Schedule::random(m, rng),
                                             sched::Objective::kMakespan);
  ASSERT_NE(a.fitness, b.fitness);
  ASSERT_GT(a.schedule.hamming_distance(b.schedule), spec.tasks / 2);
  ASSERT_TRUE(a.schedule.validate(1e-9));
  ASSERT_TRUE(b.schedule.validate(1e-9));
  constexpr std::size_t kCell = 6;
  pop.publish(kCell, a);

  std::atomic<int> readers_left{2};
  std::uint64_t publishes = 0;
  std::thread writer([&] {
    using Clock = std::chrono::steady_clock;
    while (readers_left.load(std::memory_order_relaxed) > 0) {
      const Clock::time_point start = Clock::now();
      // An odd burst, so the pauses alternate between A and B.
      for (int burst = 0; burst < 7; ++burst) {
        pop.publish(kCell, publishes++ % 2 == 0 ? b : a);
      }
      const Clock::duration busy = Clock::now() - start;
      while (Clock::now() - start < 2 * busy) {
      }
    }
  });

  struct Tally {
    std::uint64_t seen_a = 0, seen_b = 0, torn = 0, invalid = 0,
                  bad_fitness = 0;
  };
  constexpr std::uint64_t kReads = 50000;
  auto reader = [&](Tally& t) {
    Individual out(sched::Schedule(m), 0.0);
    // Until both values were seen, with a cap for a starved writer.
    for (std::uint64_t i = 0;
         i < 50 * kReads && (i < kReads || t.seen_a == 0 || t.seen_b == 0);
         ++i) {
      pop.read_cell(kCell, out);
      if (same_individual(out, a)) {
        ++t.seen_a;
      } else if (same_individual(out, b)) {
        ++t.seen_b;
      } else {
        ++t.torn;
        if (!out.schedule.validate(1e-9)) ++t.invalid;
      }
      const double f = pop.read_fitness(kCell);
      if (f != a.fitness && f != b.fitness) ++t.bad_fitness;
    }
    readers_left.fetch_sub(1, std::memory_order_relaxed);
  };
  Tally t1, t2;
  std::thread r1(reader, std::ref(t1));
  std::thread r2(reader, std::ref(t2));
  r1.join();
  r2.join();
  writer.join();

  EXPECT_GT(publishes, 0u);
  for (const Tally* t : {&t1, &t2}) {
    EXPECT_EQ(t->torn, 0u);
    EXPECT_EQ(t->invalid, 0u);
    EXPECT_EQ(t->bad_fitness, 0u);
    EXPECT_GT(t->seen_a, 0u);
    EXPECT_GT(t->seen_b, 0u);
  }
}

}  // namespace
}  // namespace pacga::cga
