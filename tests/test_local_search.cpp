#include "cga/local_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "etc/suite.hpp"
#include "support/kernels.hpp"
#include "support/stats.hpp"
#include "reference_checks.hpp"

namespace pacga::cga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 31) {
  etc::GenSpec spec;
  spec.tasks = 128;
  spec.machines = 16;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

TEST(H2LL, NeverWorsensMakespan) {
  const auto m = instance();
  support::Xoshiro256 rng(1);
  for (int i = 0; i < 50; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before = s.makespan();
    h2ll(s, {5, 0}, rng);
    EXPECT_LE(s.makespan(), before);
    EXPECT_TRUE(s.validate());
  }
}

TEST(H2LL, UsuallyImprovesRandomSchedules) {
  const auto m = instance();
  support::Xoshiro256 rng(2);
  int improved = 0;
  for (int i = 0; i < 50; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before = s.makespan();
    h2ll(s, {10, 0}, rng);
    improved += (s.makespan() < before);
  }
  // Random schedules are badly unbalanced; H2LL should fix most.
  EXPECT_GT(improved, 40);
}

TEST(H2LL, MoreIterationsNeverHurtOnAverage) {
  const auto m = instance();
  support::RunningStats few, many;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    support::Xoshiro256 r1(seed), r2(seed);
    auto s1 = sched::Schedule::random(m, r1);
    auto s2 = s1;
    h2ll(s1, {2, 0}, r1);
    h2ll(s2, {20, 0}, r2);
    few.add(s1.makespan());
    many.add(s2.makespan());
  }
  EXPECT_LE(many.mean(), few.mean());
}

TEST(H2LL, ZeroIterationsIsIdentity) {
  const auto m = instance();
  support::Xoshiro256 rng(3);
  auto s = sched::Schedule::random(m, rng);
  const auto before = s;
  h2ll(s, {0, 0}, rng);
  EXPECT_EQ(s.hamming_distance(before), 0u);
}

TEST(H2LL, MovesOnlyTasksFromMostLoadedMachine) {
  const auto m = instance();
  support::Xoshiro256 rng(4);
  auto s = sched::Schedule::random(m, rng);
  const auto loaded = s.argmax_machine();
  const auto before = s;
  h2ll(s, {1, 0}, rng);
  // Exactly zero or one gene changed, and if one, it left `loaded`.
  const auto d = s.hamming_distance(before);
  ASSERT_LE(d, 1u);
  if (d == 1) {
    for (std::size_t t = 0; t < s.tasks(); ++t) {
      if (s.machine_of(t) != before.machine_of(t)) {
        EXPECT_EQ(before.machine_of(t), loaded);
        EXPECT_NE(s.machine_of(t), loaded);
      }
    }
  }
}

TEST(H2LL, CandidateParameterRestrictsTargets) {
  const auto m = instance();
  support::Xoshiro256 rng(5);
  for (int i = 0; i < 20; ++i) {
    auto s = sched::Schedule::random(m, rng);
    // candidates = 1: the only candidate is the least loaded machine.
    const auto least = test_support::argmin_machine(s);
    const auto before = s;
    h2ll(s, {1, 1}, rng);
    if (s.hamming_distance(before) == 1) {
      for (std::size_t t = 0; t < s.tasks(); ++t) {
        if (s.machine_of(t) != before.machine_of(t)) {
          EXPECT_EQ(s.machine_of(t), least);
        }
      }
    }
  }
}

TEST(H2LL, SingleMachineNoOp) {
  etc::EtcMatrix m(4, 1, {1, 2, 3, 4});
  auto s = sched::Schedule(m, {0, 0, 0, 0});
  support::Xoshiro256 rng(6);
  h2ll(s, {10, 0}, rng);
  EXPECT_TRUE(s.validate());
}

TEST(H2LL, NewCompletionStaysBelowOldMakespan) {
  // The operator only moves when the target completion stays strictly
  // below the makespan, so the target machine can never become the new
  // argmax unless it was already.
  const auto m = instance(77);
  support::Xoshiro256 rng(7);
  for (int i = 0; i < 50; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before_ms = s.makespan();
    h2ll(s, {1, 0}, rng);
    EXPECT_LE(s.makespan(), before_ms);
  }
}

TEST(LocalTabuHop, NeverReturnsWorse) {
  const auto m = instance();
  support::Xoshiro256 rng(8);
  for (int i = 0; i < 30; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before = s.makespan();
    local_tabu_hop(s, {10, 4}, rng);
    EXPECT_LE(s.makespan(), before + 1e-9);
    EXPECT_TRUE(s.validate());
  }
}

TEST(LocalTabuHop, ImprovesRandomSchedules) {
  const auto m = instance();
  support::Xoshiro256 rng(9);
  int improved = 0;
  for (int i = 0; i < 30; ++i) {
    auto s = sched::Schedule::random(m, rng);
    const double before = s.makespan();
    local_tabu_hop(s, {20, 4}, rng);
    improved += (s.makespan() < before);
  }
  EXPECT_GT(improved, 25);
}

TEST(LocalTabuHop, ZeroIterationsIdentity) {
  const auto m = instance();
  support::Xoshiro256 rng(10);
  auto s = sched::Schedule::random(m, rng);
  const auto before = s;
  local_tabu_hop(s, {0, 4}, rng);
  EXPECT_EQ(s.hamming_distance(before), 0u);
}

// ---- sorted-candidate references -------------------------------------------
//
// The operator as it was written before the lightest-machines mask: an
// nth_element selection of the candidate machines, sorted by index, then a
// plain loop over them, with every pass recomputing the loaded machine, the
// task pick and the candidates. Kept verbatim apart from the task pick,
// which makes the library's single draw; the library must make the same
// moves and the same draws.

namespace reference {

namespace kernels = support::kernels;

/// The task pick written out in full: the matching tasks, one draw, the
/// chosen one. The reference H2LL shares no pick code, and no kernel, with
/// the operator under test.
std::size_t random_task_on_machine(const sched::Schedule& s,
                                   sched::MachineId m,
                                   support::Xoshiro256& rng) {
  std::vector<std::size_t> matches;
  for (std::size_t t = 0; t < s.tasks(); ++t) {
    if (s.machine_of(t) == m) matches.push_back(t);
  }
  if (matches.empty()) return s.tasks();
  // One draw; the pick-th match (0-based, ascending) is the chosen task.
  return matches[rng.index(matches.size())];
}

void least_loaded(const sched::Schedule& s, std::size_t k,
                  std::vector<std::uint32_t>& cand) {
  const std::size_t machines = s.machines();
  cand.resize(machines);
  std::iota(cand.begin(), cand.end(), std::uint32_t{0});
  const auto lighter = [&](std::uint32_t a, std::uint32_t b) {
    const double ca = s.completion(a);
    const double cb = s.completion(b);
    return ca < cb || (ca == cb && a < b);
  };
  if (k < machines) {
    std::nth_element(cand.begin(),
                     cand.begin() + static_cast<std::ptrdiff_t>(k), cand.end(),
                     lighter);
  }
  std::sort(cand.begin(), cand.begin() + static_cast<std::ptrdiff_t>(k));
}

void h2ll(sched::Schedule& s, const H2LLParams& params,
          support::Xoshiro256& rng) {
  const std::size_t machines = s.machines();
  if (machines < 2 || s.tasks() == 0) return;
  const std::size_t n_candidates =
      params.candidates == 0
          ? machines / 2
          : std::min(params.candidates, machines - 1);
  std::vector<std::uint32_t> cand;
  for (std::size_t it = 0; it < params.iterations; ++it) {
    const std::size_t most_loaded =
        kernels::argmax(s.completions().data(), machines);
    const std::size_t task = random_task_on_machine(
        s, static_cast<sched::MachineId>(most_loaded), rng);
    if (task == s.tasks()) continue;
    least_loaded(s, n_candidates, cand);
    double best_score = s.completion(most_loaded);
    std::size_t best_mac = machines;
    for (std::size_t c = 0; c < n_candidates; ++c) {
      const std::size_t mac = cand[c];
      if (mac == most_loaded) continue;
      const double new_score = s.completion(mac) + s.etc()(task, mac);
      if (new_score < best_score) {
        best_score = new_score;
        best_mac = mac;
      }
    }
    if (best_mac != machines) {
      s.move_task(task, static_cast<sched::MachineId>(best_mac));
    }
  }
}

}  // namespace reference

/// Tie-heavy instances for the reference walls: every task costs the same
/// on every machine ("flat"), small integer ETCs with zero ready times
/// ("integer"), a generated inconsistent instance ("braun"), and small
/// integer ETCs plus one machine whose ready time exceeds any schedule's
/// load ("ready"): H2LL empties it, then finds it loaded with no task.
std::vector<etc::EtcMatrix> tie_heavy_instances(std::size_t machines,
                                                std::uint64_t seed) {
  const std::size_t tasks = 3 * machines + 5;
  support::Xoshiro256 rng(seed);
  std::vector<double> flat(tasks * machines);
  for (std::size_t t = 0; t < tasks; ++t) {
    const auto v = static_cast<double>(1 + rng.index(4));
    std::fill_n(flat.begin() + static_cast<std::ptrdiff_t>(t * machines),
                machines, v);
  }
  std::vector<double> integer(tasks * machines);
  for (auto& v : integer) v = static_cast<double>(1 + rng.index(3));
  etc::GenSpec spec;
  spec.tasks = tasks;
  spec.machines = machines;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  std::vector<etc::EtcMatrix> out;
  out.emplace_back(tasks, machines, std::move(flat));
  out.emplace_back(tasks, machines, integer);
  out.push_back(etc::generate(spec));
  std::vector<double> ready(machines, 0.0);
  ready[machines / 2] = 1e6;
  out.emplace_back(tasks, machines, std::move(integer), std::move(ready));
  return out;
}

constexpr std::size_t kWallMachines[] = {2, 3, 4, 8, 16, 17, 63, 64, 65, 128};

/// The walls' equality: the genes, every completion time bit for bit, and
/// the RNG state. Schedule::operator== compares the genes only.
void expect_identical(const sched::Schedule& lib, const sched::Schedule& ref,
                      const support::Xoshiro256& r_lib,
                      const support::Xoshiro256& r_ref) {
  EXPECT_TRUE(lib == ref);
  for (std::size_t m = 0; m < lib.machines(); ++m) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lib.completion(m)),
              std::bit_cast<std::uint64_t>(ref.completion(m)))
        << "machine " << m;
  }
  EXPECT_TRUE(r_lib == r_ref);
}

/// Both operators, 20 passes from a random schedule.
void check_from_random(const etc::EtcMatrix& m, std::uint64_t seed,
                       std::size_t cands) {
  support::Xoshiro256 start(seed);
  const auto base = sched::Schedule::random(m, start);
  support::Xoshiro256 r_lib(seed + 7), r_ref(seed + 7);
  auto lib = base;
  auto ref = base;
  h2ll(lib, {20, cands}, r_lib);
  reference::h2ll(ref, {20, cands}, r_ref);
  expect_identical(lib, ref, r_lib, r_ref);
}

/// Late-run schedules, where most passes move nothing and the operator
/// keeps its pass state across them: start where the reference has already
/// run 200 passes, then run a few more on both. The reference is stepped
/// one pass at a time to count the passes that move nothing.
void check_from_optimum(const etc::EtcMatrix& m, std::uint64_t seed,
                        std::size_t cands, std::size_t& passes,
                        std::size_t& still) {
  support::Xoshiro256 rng(seed);
  auto converged = sched::Schedule::random(m, rng);
  reference::h2ll(converged, {200, cands}, rng);
  for (const std::size_t more : {1, 2, 10, 40}) {
    SCOPED_TRACE("passes=" + std::to_string(more));
    support::Xoshiro256 r_lib = rng;
    support::Xoshiro256 r_ref = rng;
    auto lib = converged;
    auto ref = converged;
    h2ll(lib, {more, cands}, r_lib);
    for (std::size_t p = 0; p < more; ++p) {
      const auto before = ref;
      reference::h2ll(ref, {1, cands}, r_ref);
      ++passes;
      still += ref == before;
    }
    expect_identical(lib, ref, r_lib, r_ref);
  }
}

/// The hot shape: the 12 Braun 512x16 classes the benchmark runs.
const std::vector<etc::EtcMatrix>& braun_512x16() {
  static const std::vector<etc::EtcMatrix> suite = [] {
    std::vector<etc::EtcMatrix> out;
    for (const auto& name : etc::braun_suite_names()) {
      out.push_back(etc::generate_by_name(name));
    }
    return out;
  }();
  return suite;
}

TEST(H2LL, MatchesSortedCandidateReference) {
  for (const std::size_t machines : kWallMachines) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      const auto instances = tie_heavy_instances(machines, 100 + seed);
      for (std::size_t i = 0; i < instances.size(); ++i) {
        for (const std::size_t cands : {std::size_t{0}, std::size_t{1},
                                        machines - 1}) {
          SCOPED_TRACE("machines=" + std::to_string(machines) +
                       " seed=" + std::to_string(seed) + " instance=" +
                       std::to_string(i) + " candidates=" +
                       std::to_string(cands));
          check_from_random(instances[i], seed, cands);
        }
      }
    }
  }
  for (std::size_t i = 0; i < braun_512x16().size(); ++i) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      for (const std::size_t cands : {0, 1, 15}) {
        SCOPED_TRACE("braun " + etc::braun_suite_names()[i] + " seed=" +
                     std::to_string(seed) + " candidates=" +
                     std::to_string(cands));
        check_from_random(braun_512x16()[i], seed, cands);
      }
    }
  }
}

TEST(H2LL, MatchesReferenceFromLocalOptimum) {
  std::size_t passes = 0;
  std::size_t still = 0;
  for (const std::size_t machines : kWallMachines) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      const auto instances = tie_heavy_instances(machines, 300 + seed);
      for (std::size_t i = 0; i < instances.size(); ++i) {
        for (const std::size_t cands : {std::size_t{0}, std::size_t{1},
                                        machines - 1}) {
          SCOPED_TRACE("machines=" + std::to_string(machines) +
                       " seed=" + std::to_string(seed) + " instance=" +
                       std::to_string(i) + " candidates=" +
                       std::to_string(cands));
          check_from_optimum(instances[i], seed, cands, passes, still);
        }
      }
    }
  }
  std::size_t hot_passes = 0;
  std::size_t hot_still = 0;
  for (std::size_t i = 0; i < braun_512x16().size(); ++i) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      for (const std::size_t cands : {0, 1, 15}) {
        SCOPED_TRACE("braun " + etc::braun_suite_names()[i] + " seed=" +
                     std::to_string(seed) + " candidates=" +
                     std::to_string(cands));
        check_from_optimum(braun_512x16()[i], seed, cands, hot_passes,
                           hot_still);
      }
    }
  }
  // The wall is only a wall if most of its passes reuse kept state.
  EXPECT_GT(2 * still, passes);
  EXPECT_GT(2 * hot_still, hot_passes);
}

/// Property sweep over the Braun suite: H2LL respects its contract on all
/// twelve instance classes.
class H2llSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(H2llSuiteTest, MonotoneAndCoherentOnSuite) {
  const auto m = etc::generate_by_name(GetParam());
  support::Xoshiro256 rng(support::seed_from_string(GetParam().c_str()));
  auto s = sched::Schedule::random(m, rng);
  const double before = s.makespan();
  h2ll(s, {10, 0}, rng);
  EXPECT_LE(s.makespan(), before);
  EXPECT_TRUE(s.validate(1e-9));
}

INSTANTIATE_TEST_SUITE_P(BraunSuite, H2llSuiteTest,
                         ::testing::ValuesIn(etc::braun_suite_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace pacga::cga
