// Breeder correctness and the zero-allocation guarantee.
//
//  * every in-place operator path is cross-checked against
//    Schedule::validate() (full completion-time recomputation);
//  * Breeder::breed_into reproduces detail::breed exactly;
//  * a steady-state breeding step (select -> crossover -> mutate -> H2LL
//    -> evaluate -> replace) performs ZERO heap allocations after warm-up,
//    counted by overriding the global allocator in this binary.
#include "cga/breeder.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cga/engine.hpp"
#include "etc/suite.hpp"

// --- global allocation counter --------------------------------------------
// Counts every operator-new in the binary. gtest and the harness allocate
// too, so tests only ever compare deltas around code they fully control.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pacga::cga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 7) {
  etc::GenSpec spec;
  spec.tasks = 128;
  spec.machines = 16;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

Config small_config() {
  Config c;
  c.width = 8;
  c.height = 8;
  c.local_search.iterations = 2;
  return c;
}

TEST(AssignFrom, CopiesAssignmentAndCache) {
  const auto m = instance();
  support::Xoshiro256 rng(1);
  const auto src = sched::Schedule::random(m, rng);
  sched::Schedule dst(m);  // degenerate all-on-machine-0 schedule
  dst.assign_from(src);
  EXPECT_EQ(dst, src);
  EXPECT_TRUE(dst.validate(1e-12));
  EXPECT_DOUBLE_EQ(dst.makespan(), src.makespan());
}

TEST(AssignFrom, ReusesCapacityWithoutAllocating) {
  const auto m = instance();
  support::Xoshiro256 rng(2);
  const auto a = sched::Schedule::random(m, rng);
  const auto b = sched::Schedule::random(m, rng);
  sched::Schedule dst = a;  // same shape: capacity is already right
  const std::uint64_t before = g_allocations.load();
  dst.assign_from(b);
  dst.assign_from(a);
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(Breeder, MatchesLegacyBreed) {
  const auto m = instance();
  const Config config = small_config();
  support::Xoshiro256 init(5);
  Grid grid(config.width, config.height);
  Population pop(m, grid, init, true, config.objective);

  Breeder breeder(m, config);
  Individual out(sched::Schedule(m), 0.0);
  for (std::size_t cell = 0; cell < pop.size(); cell += 7) {
    support::Xoshiro256 r1(1000 + cell), r2(1000 + cell);
    const Individual legacy = detail::breed(pop, cell, config, r1);
    breeder.breed_into(pop, cell, r2, out);
    EXPECT_EQ(out.schedule, legacy.schedule) << "cell " << cell;
    EXPECT_DOUBLE_EQ(out.fitness, legacy.fitness) << "cell " << cell;
    EXPECT_TRUE(out.schedule.validate(1e-9));
  }
}

TEST(Breeder, SharedMatchesUnsynchronized) {
  // Single-threaded, so the shared variant sees identical state; the two
  // paths must produce the same offspring from the same stream, whichever
  // cells the caller owns: all of them (every read direct), none (every
  // read validated), or a block that splits the neighborhoods.
  const auto m = instance();
  const Config config = small_config();
  support::Xoshiro256 init(6);
  Grid grid(config.width, config.height);
  Population pop(m, grid, init, true, config.objective);

  Breeder breeder(m, config);
  Individual plain(sched::Schedule(m), 0.0);
  Individual shared(sched::Schedule(m), 0.0);
  const Block whole{0, pop.size()};
  const Block empty{0, 0};
  const Block half{0, pop.size() / 2};
  for (const Block& owned : {whole, empty, half}) {
    for (std::size_t cell : {0u, 9u, 31u, 63u}) {
      support::Xoshiro256 r1(77 + cell), r2(77 + cell);
      breeder.breed_into(pop, cell, r1, plain);
      breeder.breed_shared_into(pop, owned, cell, r2, shared);
      EXPECT_EQ(plain.schedule, shared.schedule)
          << "cell " << cell << ", owned [" << owned.begin << ", "
          << owned.end << ")";
      EXPECT_EQ(plain.fitness, shared.fitness);
      EXPECT_EQ(r1(), r2()) << "RNG streams diverged at cell " << cell;
    }
  }
}

TEST(Breeder, SteadyStateBreedingStepAllocatesNothing) {
  // THE acceptance property of the refactor: after warm-up, one breeding
  // step (select -> crossover -> mutate -> H2LL -> evaluate -> replace)
  // performs zero heap allocations, in both the unsynchronized and the
  // shared form (validated reads and publish included).
  const auto m = instance();
  Config config = small_config();
  config.local_search.iterations = 10;  // paper configuration
  support::Xoshiro256 init(8);
  Grid grid(config.width, config.height);
  Population pop(m, grid, init, true, config.objective);

  Breeder breeder(m, config);
  Individual out(sched::Schedule(m), 0.0);
  support::Xoshiro256 rng(9);

  // Owning nothing sends every read through the validated path.
  const Block none{0, 0};
  auto steps = [&](bool shared, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t cell = i % pop.size();
      if (shared) {
        breeder.breed_shared_into(pop, none, cell, rng, out);
      } else {
        breeder.breed_into(pop, cell, rng, out);
      }
      if (out.fitness < pop.at(cell).fitness) {
        if (shared) {
          pop.publish(cell, out);
        } else {
          Breeder::replace(pop.at(cell), out);
        }
      }
    }
  };

  steps(false, pop.size());  // warm-up: sizes every scratch buffer
  steps(true, pop.size());
  const std::uint64_t before = g_allocations.load();
  steps(false, 4 * pop.size());
  steps(true, 4 * pop.size());
  EXPECT_EQ(g_allocations.load(), before)
      << "steady-state breeding steps must not touch the heap";
}

TEST(Flowtime, AllocationFreeAfterWarmup) {
  // flowtime() groups per-machine ETCs with a counting sort into
  // thread-local scratch; once the scratch has seen the shape, repeated
  // evaluations must not touch the heap (it sits on the multi-objective
  // evaluation path).
  const auto m = instance();
  support::Xoshiro256 rng(13);
  const auto s = sched::Schedule::random(m, rng);
  const double first = s.flowtime();  // warm-up: sizes the scratch
  const std::uint64_t before = g_allocations.load();
  bool stable = true;
  for (int i = 0; i < 50; ++i) stable = stable && (s.flowtime() == first);
  EXPECT_EQ(g_allocations.load(), before)
      << "steady-state flowtime must not touch the heap";
  EXPECT_TRUE(stable) << "flowtime must be deterministic";
}

TEST(BestTracker, ObserveDoesNotAllocateAfterConstruction) {
  const auto m = instance();
  support::Xoshiro256 rng(11);
  BestTracker best(
      Individual::evaluated(sched::Schedule::random(m, rng),
                            sched::Objective::kMakespan));
  Individual candidate =
      Individual::evaluated(sched::Schedule::random(m, rng),
                            sched::Objective::kMakespan);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    candidate.fitness = best.fitness() - 1.0;  // always an improvement
    best.observe(candidate);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(BestTracker, FinishReportsFreshEvaluationNeverAboveSeed) {
  // A stale fitness (as an incrementally maintained cache can leave) is
  // replaced by a fresh evaluation; a candidate whose fresh value is worse
  // than the seed's gives way to the seed.
  const auto m = instance();
  support::Xoshiro256 rng(12);
  const Individual seed = Individual::evaluated(
      sched::Schedule::random(m, rng), sched::Objective::kMakespan);
  sched::Schedule other = sched::Schedule::random(m, rng);
  while (!(other.makespan() < seed.fitness)) {
    other = sched::Schedule::random(m, rng);
  }

  BestTracker better(seed);
  better.observe(Individual(other, other.makespan() - 1.0));
  better.finish(sched::Objective::kMakespan, 0.75);
  EXPECT_EQ(better.best().schedule, other);
  EXPECT_EQ(better.fitness(), other.makespan());

  sched::Schedule worse = sched::Schedule::random(m, rng);
  while (!(worse.makespan() > seed.fitness)) {
    worse = sched::Schedule::random(m, rng);
  }
  BestTracker regressed(seed);
  regressed.observe(Individual(worse, seed.fitness - 1.0));
  regressed.finish(sched::Objective::kMakespan, 0.75);
  EXPECT_EQ(regressed.best().schedule, seed.schedule);
  EXPECT_EQ(regressed.fitness(), seed.fitness);
}

}  // namespace
}  // namespace pacga::cga
