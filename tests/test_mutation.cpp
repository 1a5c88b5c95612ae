#include "cga/mutation.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "etc/braun.hpp"
#include "support/stats.hpp"

namespace pacga::cga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 21) {
  etc::GenSpec spec;
  spec.tasks = 64;
  spec.machines = 8;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

TEST(MoveMutation, ChangesAtMostOneGene) {
  const auto m = instance();
  support::Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const auto before = s;
    mutate(s, rng);
    EXPECT_LE(s.hamming_distance(before), 1u);
    EXPECT_TRUE(s.validate());
  }
}

TEST(RandomTaskOnMachine, UniformOverMachineTasks) {
  const auto m = instance();
  // Assignment with tasks 0..15 on machine 2.
  std::vector<sched::MachineId> assign(64, 0);
  for (std::size_t t = 0; t < 16; ++t) assign[t] = 2;
  const sched::Schedule s(m, assign);
  support::Xoshiro256 rng(4);
  std::map<std::size_t, int> counts;
  const int n = 16000;
  for (int i = 0; i < n; ++i) {
    const auto t = random_task_on_machine(s, 2, rng);
    ASSERT_LT(t, 16u);
    ++counts[t];
  }
  for (const auto& [task, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / n, 1.0 / 16, 0.01) << task;
  }
}

TEST(RandomTaskOnMachine, EmptyMachineReturnsSentinel) {
  const auto m = instance();
  const sched::Schedule s(m);  // everything on machine 0
  support::Xoshiro256 rng(5);
  EXPECT_EQ(random_task_on_machine(s, 3, rng), s.tasks());
}

TEST(RandomTaskOnMachine, SingleTask) {
  const auto m = instance();
  std::vector<sched::MachineId> assign(64, 0);
  assign[37] = 5;
  const sched::Schedule s(m, assign);
  support::Xoshiro256 rng(6);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(random_task_on_machine(s, 5, rng), 37u);
  }
}

/// The task pick written as a plain scan: count the machine's tasks, make
/// one draw, walk to the chosen one. The reference for
/// random_task_on_machine's choice and its RNG draws.
std::size_t single_draw_reference(const sched::Schedule& s,
                                  sched::MachineId m,
                                  support::Xoshiro256& rng) {
  std::size_t count = 0;
  for (std::size_t t = 0; t < s.tasks(); ++t) {
    if (s.machine_of(t) == m) ++count;
  }
  if (count == 0) return s.tasks();
  std::size_t k = rng.index(count);
  for (std::size_t t = 0; t < s.tasks(); ++t) {
    if (s.machine_of(t) != m) continue;
    if (k == 0) return t;
    --k;
  }
  return s.tasks();
}

TEST(RandomTaskOnMachine, MatchesSingleDrawReference) {
  // Same task and same draws as the scan reference: after each call the
  // next output of both generators must agree. Shapes straddle the 64-gene
  // mask words; machines cover empty ones and one holding every task.
  constexpr std::size_t kMachines = 8;
  support::Xoshiro256 gen(8);
  for (const std::size_t tasks :
       {1ul, 2ul, 31ul, 32ul, 33ul, 63ul, 64ul, 65ul, 127ul, 512ul, 4096ul}) {
    const etc::EtcMatrix m(tasks, kMachines,
                           std::vector<double>(tasks * kMachines, 1.0));
    // Uniform over all machines; skewed onto machines 0..2 (the rest
    // empty); every task on machine 5.
    std::vector<std::vector<sched::MachineId>> layouts(3);
    for (std::size_t t = 0; t < tasks; ++t) {
      layouts[0].push_back(static_cast<sched::MachineId>(gen.index(kMachines)));
      layouts[1].push_back(static_cast<sched::MachineId>(
          gen.index(4) == 0 ? gen.index(3) : 1));
      layouts[2].push_back(5);
    }
    for (std::size_t l = 0; l < layouts.size(); ++l) {
      const sched::Schedule s(m, layouts[l]);
      for (std::size_t machine = 0; machine < kMachines; ++machine) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
          SCOPED_TRACE("tasks=" + std::to_string(tasks) + " layout=" +
                       std::to_string(l) + " machine=" +
                       std::to_string(machine) + " seed=" +
                       std::to_string(seed));
          support::Xoshiro256 got_rng(seed * 7919 + tasks);
          support::Xoshiro256 ref_rng = got_rng;
          const auto id = static_cast<sched::MachineId>(machine);
          ASSERT_EQ(random_task_on_machine(s, id, got_rng),
                    single_draw_reference(s, id, ref_rng));
          ASSERT_EQ(got_rng(), ref_rng());
        }
      }
    }
  }
}

TEST(PickTask, OneDrawUniform) {
  // The matches are spread over 2 * count + 1 bits that straddle the
  // 64-bit mask word boundaries (bit 64 always lies inside the spread).
  for (const std::size_t count :
       {1ul, 2ul, 3ul, 33ul, 63ul, 64ul, 65ul, 512ul}) {
    SCOPED_TRACE("count=" + std::to_string(count));
    const std::size_t first = count < 64 ? 64 - count : 0;
    const std::size_t end = first + 2 * count + 1;
    std::vector<std::uint64_t> mask((end + 63) / 64, 0);
    std::vector<std::size_t> tasks;  // the matches, ascending
    support::Xoshiro256 layout(count);
    for (std::size_t t = first; t < end && tasks.size() < count; ++t) {
      // Take each bit with probability 1/2, or always once the remaining
      // bits are only just enough.
      if (end - t > count - tasks.size() && layout.index(2) == 0) continue;
      mask[t / 64] |= std::uint64_t{1} << (t % 64);
      tasks.push_back(t);
    }
    ASSERT_EQ(tasks.size(), count);

    // Draw contract: the generator advances by exactly one index(count).
    support::Xoshiro256 rng(count * 31 + 7);
    for (int i = 0; i < 50; ++i) {
      support::Xoshiro256 expected = rng;
      const std::size_t k = expected.index(count);
      ASSERT_EQ(pick_task(mask, count, rng), tasks[k]);
      ASSERT_EQ(rng(), expected());
    }

    // Uniformity: every match is chosen, and Pearson's chi-square over the
    // count cells stays below its 0.999 quantile.
    std::map<std::size_t, std::size_t> slot;
    for (std::size_t i = 0; i < count; ++i) slot[tasks[i]] = i;
    std::vector<double> hits(count, 0.0);
    const std::size_t picks = 200 * count;
    for (std::size_t i = 0; i < picks; ++i) {
      const std::size_t t = pick_task(mask, count, rng);
      ASSERT_EQ(slot.count(t), 1u) << t;
      hits[slot[t]] += 1.0;
    }
    double chi2 = 0.0;
    for (const double h : hits) {
      EXPECT_GT(h, 0.0);
      chi2 += (h - 200.0) * (h - 200.0) / 200.0;
    }
    // Below the 0.999 quantile with count - 1 degrees of freedom.
    if (count > 1) {
      EXPECT_GT(support::chi_squared_sf(chi2, static_cast<double>(count - 1)),
                0.001)
          << chi2;
    }
  }
}

TEST(Mutation, EmptyScheduleTolerated) {
  // Single-task, single-machine degenerate cases must not crash.
  etc::EtcMatrix m(1, 1, {1.0});
  auto s = sched::Schedule(m, {0});
  support::Xoshiro256 rng(7);
  mutate(s, rng);
  EXPECT_TRUE(s.validate());
}

}  // namespace
}  // namespace pacga::cga
