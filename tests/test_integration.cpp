// End-to-end integration tests: the full paper pipeline at reduced scale —
// generate a Braun instance, run every algorithm family, compare outcomes.
#include <gtest/gtest.h>

#include "support/stats.hpp"

#include "baselines/cma_lth.hpp"
#include "baselines/struggle_ga.hpp"
#include "cga/engine.hpp"
#include "etc/io.hpp"
#include "etc/suite.hpp"
#include "heuristics/listsched.hpp"
#include "heuristics/minmin.hpp"
#include "pacga/parallel_engine.hpp"

#include <filesystem>
#include <fstream>

#include "reference_checks.hpp"

namespace pacga {
namespace {

TEST(Integration, FullPipelineOnRealInstanceShape) {
  // The actual paper shape: 512 tasks x 16 machines, 16x16 population —
  // run a few generations of each algorithm and verify the quality chain
  // random < heuristic <= metaheuristic.
  const auto m = etc::generate_by_name("u_i_hihi.0");

  support::Xoshiro256 rng(1);
  const double random_ms = sched::Schedule::random(m, rng).makespan();
  const double minmin_ms = heur::min_min(m).makespan();

  cga::Config c;
  c.termination = cga::Termination::after_generations(5);
  c.threads = 3;
  const auto pa = par::run_parallel(m, c);

  EXPECT_LT(minmin_ms, random_ms);
  EXPECT_LE(pa.result.best_fitness, minmin_ms + 1e-9);
  EXPECT_TRUE(pa.result.best.validate(1e-9));
}

TEST(Integration, AllAlgorithmsBeatRandomOnEqualEvalBudget) {
  const auto m = etc::generate_by_name("u_s_hilo.0");
  constexpr std::uint64_t kBudget = 2000;

  support::Xoshiro256 rng(2);
  support::RunningStats random_ms;
  for (int i = 0; i < 30; ++i)
    random_ms.add(sched::Schedule::random(m, rng).makespan());

  cga::Config pc;
  pc.termination = cga::Termination::after_evaluations(kBudget);
  pc.seed_min_min = false;
  const double pa = par::run_parallel(m, pc).result.best_fitness;

  baseline::StruggleConfig sc;
  sc.seed_min_min = false;
  sc.termination = cga::Termination::after_evaluations(kBudget);
  const double sg = baseline::run_struggle_ga(m, sc).best_fitness;

  baseline::CmaLthConfig cc;
  cc.seed_min_min = false;
  cc.tabu.iterations = 5;
  cc.termination = cga::Termination::after_evaluations(kBudget);
  const double cm = baseline::run_cma_lth(m, cc).best_fitness;

  EXPECT_LT(pa, random_ms.mean());
  EXPECT_LT(sg, random_ms.mean());
  EXPECT_LT(cm, random_ms.mean());
}

TEST(Integration, PaCgaWithH2llBeatsPaCgaWithout) {
  // The paper's core claim in miniature: H2LL-equipped PA-CGA finds better
  // schedules for the same generation budget.
  const auto m = etc::generate_by_name("u_i_lohi.0");
  support::RunningStats with_ls, without_ls;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    cga::Config c;
    c.seed = seed;
    c.seed_min_min = false;
    c.threads = 3;
    c.termination = cga::Termination::after_generations(8);
    c.local_search.iterations = 10;
    with_ls.add(par::run_parallel(m, c).result.best_fitness);
    c.local_search.iterations = 0;
    without_ls.add(par::run_parallel(m, c).result.best_fitness);
  }
  EXPECT_LT(with_ls.mean(), without_ls.mean());
}

TEST(Integration, InstanceFileRoundTripPreservesAlgorithmBehaviour) {
  const auto m = etc::generate_by_name("u_c_lolo.0");
  const auto path =
      (std::filesystem::temp_directory_path() / "pacga_integ.etc").string();
  std::ofstream(path) << test_support::braun_text(m, /*header=*/true);
  const auto loaded = etc::read_braun_file(path);
  std::filesystem::remove(path);

  cga::Config c;
  c.termination = cga::Termination::after_generations(3);
  c.threads = 2;
  // Identical instances + identical seeds -> single-thread determinism per
  // instance copy; multi-thread runs must at least produce valid results of
  // similar quality.
  c.threads = 1;
  const auto r1 = par::run_parallel(m, c);
  const auto r2 = par::run_parallel(loaded, c);
  EXPECT_DOUBLE_EQ(r1.result.best_fitness, r2.result.best_fitness);
}

TEST(Integration, TpxTenBeatsOpxFiveOnAggregate) {
  // Figure 5's headline: tpx/10 statistically beats opx/5. At test scale we
  // check the aggregate means over a few seeds and instances.
  support::RunningStats tpx10, opx5;
  for (const char* name : {"u_i_hihi.0", "u_s_lohi.0"}) {
    const auto m = etc::generate_by_name(name);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      cga::Config c;
      c.seed = seed;
      c.threads = 3;
      c.seed_min_min = false;
      c.termination = cga::Termination::after_generations(6);
      c.crossover = cga::CrossoverKind::kTwoPoint;
      c.local_search.iterations = 10;
      tpx10.add(par::run_parallel(m, c).result.best_fitness /
                heur::min_min(m).makespan());
      c.crossover = cga::CrossoverKind::kOnePoint;
      c.local_search.iterations = 5;
      opx5.add(par::run_parallel(m, c).result.best_fitness /
               heur::min_min(m).makespan());
    }
  }
  EXPECT_LE(tpx10.mean(), opx5.mean() * 1.02);
}

TEST(Integration, LongerBudgetNeverHurts) {
  // The sequential engine is deterministic for a seed, so the 20-generation
  // run replays the 3-generation one before going on; its best-so-far can
  // only improve. (Two async run_parallel runs need not share a prefix.)
  const auto m = etc::generate_by_name("u_c_hilo.0");
  cga::Config c;
  c.seed = 3;
  c.termination = cga::Termination::after_generations(3);
  const double short_run = cga::run_sequential(m, c).best_fitness;
  c.termination = cga::Termination::after_generations(20);
  const double long_run = cga::run_sequential(m, c).best_fitness;
  EXPECT_LE(long_run, short_run + 1e-9);
}

/// Paper-scale smoke (disabled by default: 90 s wall time). Run with
///   ./test_integration --gtest_also_run_disabled_tests --gtest_filter='*FullPaperBudget*'
TEST(Integration, DISABLED_FullPaperBudget) {
  const auto m = etc::generate_by_name("u_c_hihi.0");
  cga::Config c;  // Table 1 defaults: tpx, H2LL(10), 3 threads
  c.termination = cga::Termination::after_seconds(90.0);
  const auto r = par::run_parallel(m, c);
  EXPECT_TRUE(r.result.best.validate(1e-9));
  // The paper's 90 s mean for this instance is ~7.44e6 on 2007 hardware;
  // on anything modern the run should land clearly below Min-min.
  EXPECT_LT(r.result.best_fitness, heur::min_min(m).makespan());
}

/// Property sweep: PA-CGA honors its contracts on every instance of the
/// paper's benchmark suite at full 512x16 scale.
class SuiteWideTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteWideTest, PaCgaValidOnEveryInstance) {
  const auto m = etc::generate_by_name(GetParam());
  cga::Config c;
  c.threads = 3;
  c.seed = support::seed_from_string(GetParam().c_str());
  c.termination = cga::Termination::after_generations(3);
  const auto r = par::run_parallel(m, c);
  EXPECT_TRUE(r.result.best.validate(1e-9));
  EXPECT_DOUBLE_EQ(r.result.best.makespan(), r.result.best_fitness);
  EXPECT_LE(r.result.best_fitness, heur::min_min(m).makespan() + 1e-9);
  EXPECT_GT(r.result.evaluations, 0u);
}

INSTANTIATE_TEST_SUITE_P(BraunSuite, SuiteWideTest,
                         ::testing::ValuesIn(etc::braun_suite_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '.') ch = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace pacga
