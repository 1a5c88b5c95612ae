#include "heuristics/listsched.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/sufferage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "support/stats.hpp"

#include "etc/suite.hpp"

namespace pacga::heur {
namespace {

etc::EtcMatrix tiny() {
  // 3 tasks x 2 machines. Machine 0 uniformly faster (consistent).
  return etc::EtcMatrix(3, 2, {1.0, 2.0, 2.0, 4.0, 3.0, 6.0});
}

TEST(MinMin, HandCheckedTiny) {
  const auto m = tiny();
  const auto s = min_min(m);
  // Round 1: best CTs are 1,2,3 on machine 0 -> task 0 to m0 (ct 1).
  // Round 2: task1 m0 ct=3 vs m1 ct=4 -> best 3; task2 m0 ct=4 vs m1 6 ->
  //          best 4; choose task1 on m0 (ct 3).
  // Round 3: task2 m0 ct=6, m1 ct=6 -> tie, first machine wins (m0).
  EXPECT_EQ(s.machine_of(0), 0);
  EXPECT_EQ(s.machine_of(1), 0);
  EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
  EXPECT_TRUE(s.validate());
}

TEST(MaxMin, HandCheckedTiny) {
  const auto m = tiny();
  const auto s = max_min(m);
  // Round 1: best-CTs: t0->1, t1->2, t2->3; Max-min picks t2 on m0.
  EXPECT_EQ(s.machine_of(2), 0);
  EXPECT_TRUE(s.validate());
}

TEST(Mct, ProcessesInOrder) {
  const auto m = tiny();
  const auto s = mct(m);
  // t0 -> m0 (1 vs 2). t1: m0=1+2=3, m1=4 -> m0. t2: m0=3+3=6, m1=6 -> m0.
  EXPECT_EQ(s.machine_of(0), 0);
  EXPECT_EQ(s.machine_of(1), 0);
  EXPECT_EQ(s.machine_of(2), 0);
  EXPECT_TRUE(s.validate());
}

TEST(Met, IgnoresLoad) {
  const auto m = tiny();
  const auto s = met(m);
  // Machine 0 has the minimum ETC for every task on this consistent matrix.
  for (std::size_t t = 0; t < 3; ++t) EXPECT_EQ(s.machine_of(t), 0);
}

TEST(Olb, BalancesByReadiness) {
  const auto m = tiny();
  const auto s = olb(m);
  // t0 -> m0 (both ready at 0, lowest index). t1 -> m1 (m0 busy 1).
  // t2 -> m0 (ready 1 < 4).
  EXPECT_EQ(s.machine_of(0), 0);
  EXPECT_EQ(s.machine_of(1), 1);
  EXPECT_EQ(s.machine_of(2), 0);
  EXPECT_TRUE(s.validate());
}

TEST(RandomSchedule, ValidAndSeedDependent) {
  const auto m = etc::generate_by_name("u_i_lolo.0");
  support::Xoshiro256 a(1), b(2);
  const auto sa = sched::Schedule::random(m, a);
  const auto sb = sched::Schedule::random(m, b);
  EXPECT_TRUE(sa.validate());
  EXPECT_GT(sa.hamming_distance(sb), 0u);
}

TEST(MinMin, RespectsReadyTimes) {
  // Machine 0 is fast but busy; ready times must steer work to machine 1.
  etc::EtcMatrix m(2, 2, {1.0, 2.0, 1.0, 2.0}, {100.0, 0.0});
  const auto s = min_min(m);
  EXPECT_EQ(s.machine_of(0), 1);
  EXPECT_EQ(s.machine_of(1), 1);
}

/// Property sweep over the whole Braun suite: heuristic quality ordering.
class HeuristicSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(HeuristicSuiteTest, MinMinBeatsRandomAndValidates) {
  const auto m = etc::generate_by_name(GetParam());
  const auto mm = min_min(m);
  const auto xm = max_min(m);
  const auto sf = sufferage(m);
  const auto ct = mct(m);
  const auto eb = met(m);
  const auto lb = olb(m);
  for (const auto* s : {&mm, &xm, &sf, &ct, &eb, &lb}) {
    EXPECT_TRUE(s->validate());
    EXPECT_GT(s->makespan(), 0.0);
  }
  support::Xoshiro256 rng(7);
  support::RunningStats random_ms;
  for (int i = 0; i < 10; ++i) {
    random_ms.add(sched::Schedule::random(m, rng).makespan());
  }
  // Min-min, MCT and Sufferage are far better than random assignment on
  // every Braun class (Braun et al. 2001).
  EXPECT_LT(mm.makespan(), random_ms.mean());
  EXPECT_LT(ct.makespan(), random_ms.mean());
  EXPECT_LT(sf.makespan(), random_ms.mean());
}

TEST_P(HeuristicSuiteTest, EveryTaskAssignedExactlyOnce) {
  const auto m = etc::generate_by_name(GetParam());
  const auto s = min_min(m);
  std::size_t total = 0;
  for (std::size_t k = 0; k < m.machines(); ++k) {
    total += s.tasks_on(static_cast<sched::MachineId>(k));
  }
  EXPECT_EQ(total, m.tasks());
}

INSTANTIATE_TEST_SUITE_P(BraunSuite, HeuristicSuiteTest,
                         ::testing::ValuesIn(etc::braun_suite_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

// ---- accelerated vs naive reference equivalence --------------------------
//
// The cached-best-machine rewrites of Min-min / Max-min / Sufferage must
// produce the EXACT schedule of the textbook loops — assignment for
// assignment, tie-break for tie-break — on every instance shape, including
// machine counts below/straddling the SIMD width and nonzero ready times.

void expect_identical(const sched::Schedule& a, const sched::Schedule& b,
                      const char* what) {
  ASSERT_EQ(a.tasks(), b.tasks());
  EXPECT_EQ(a.hamming_distance(b), 0u) << what;
}

etc::EtcMatrix random_instance(std::size_t tasks, std::size_t machines,
                               std::uint64_t seed, bool with_ready) {
  support::Xoshiro256 rng(seed);
  std::vector<double> data(tasks * machines);
  for (auto& v : data) v = rng.uniform(1.0, 1000.0);
  std::vector<double> ready;
  if (with_ready) {
    ready.resize(machines);
    for (auto& r : ready) r = rng.uniform(0.0, 500.0);
  }
  return etc::EtcMatrix(tasks, machines, std::move(data), std::move(ready));
}

TEST(AcceleratedHeuristics, MatchNaiveOnRandomShapes) {
  const std::size_t shapes[][2] = {{1, 1},  {3, 1},  {5, 2},   {17, 3},
                                   {32, 4}, {40, 5}, {64, 8},  {50, 9},
                                   {96, 16}, {70, 33}};
  for (const auto& shape : shapes) {
    for (const bool with_ready : {false, true}) {
      const auto m = random_instance(shape[0], shape[1],
                                     41 + shape[0] * 7 + with_ready, with_ready);
      expect_identical(min_min(m), detail::min_min_naive(m), "min_min");
      expect_identical(max_min(m), detail::max_min_naive(m), "max_min");
      expect_identical(sufferage(m), detail::sufferage_naive(m), "sufferage");
    }
  }
}

TEST(AcceleratedHeuristics, MatchNaiveWithExactTies) {
  // A matrix full of repeated values forces ties in every round; the
  // accelerated paths must reproduce the naive loops' lowest-index picks.
  const std::size_t tasks = 24, machines = 6;
  support::Xoshiro256 rng(5);
  std::vector<double> data(tasks * machines);
  for (auto& v : data) v = 1.0 + static_cast<double>(rng.index(3));
  const etc::EtcMatrix m(tasks, machines, std::move(data));
  expect_identical(min_min(m), detail::min_min_naive(m), "min_min ties");
  expect_identical(max_min(m), detail::max_min_naive(m), "max_min ties");
  expect_identical(sufferage(m), detail::sufferage_naive(m), "sufferage ties");
}

TEST(AcceleratedHeuristics, MatchNaiveOnBraunSuite) {
  for (const auto& name : etc::braun_suite_names()) {
    const auto m = etc::generate_by_name(name);
    expect_identical(min_min(m), detail::min_min_naive(m), name.c_str());
    expect_identical(sufferage(m), detail::sufferage_naive(m), name.c_str());
  }
}

TEST(Duplex, KeepsTheBetterDual) {
  for (const auto& name : {"u_c_hihi.0", "u_i_lolo.0", "u_s_hilo.0"}) {
    const auto m = etc::generate_by_name(name);
    const auto d = duplex(m);
    const auto mm = min_min(m);
    const auto mx = max_min(m);
    EXPECT_DOUBLE_EQ(d.makespan(), std::min(mm.makespan(), mx.makespan()));
    EXPECT_TRUE(d.validate());
  }
}

TEST(MetDegeneracy, PilesOnFastestMachineWhenConsistent) {
  const auto m = etc::generate_by_name("u_c_hihi.0");
  const auto s = met(m);
  // On a consistent matrix one machine dominates: MET sends everything
  // there, which is the textbook failure mode.
  EXPECT_EQ(s.tasks_on(s.machine_of(0)), m.tasks());
}

}  // namespace
}  // namespace pacga::heur
