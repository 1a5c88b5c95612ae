// Quickstart: the smallest complete use of the library.
//
//   1. Generate a Braun benchmark instance (512 tasks x 16 machines).
//   2. Run the Min-min heuristic for a baseline schedule.
//   3. Run PA-CGA for one second on 3 threads.
//   4. Print both makespans and the machine loads of the GA schedule.
//
// Build & run:  ./build/quickstart
#include <cstdio>

#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "pacga/parallel_engine.hpp"

int main() {
  using namespace pacga;

  // 1. Instance: inconsistent ETC matrix with high task and machine
  //    heterogeneity — the hardest Braun class, where the paper's
  //    algorithm shines.
  const etc::EtcMatrix instance = etc::generate_by_name("u_i_hihi.0");
  std::printf("instance u_i_hihi.0: %zu tasks, %zu machines, ETC in [%.2f, %.2f]\n",
              instance.tasks(), instance.machines(), instance.min_etc(),
              instance.max_etc());

  // 2. Constructive baseline.
  const sched::Schedule minmin = heur::min_min(instance);
  std::printf("Min-min makespan:  %.1f\n", minmin.makespan());

  // 3. PA-CGA with the paper's adopted configuration (Table 1: tpx
  //    crossover, 10 H2LL iterations, 3 threads) for a 1 s budget.
  cga::Config config;  // defaults = paper Table 1
  config.termination = cga::Termination::after_seconds(1.0);
  const par::ParallelResult result = par::run_parallel(instance, config);

  std::printf("PA-CGA makespan:   %.1f  (%.2f%% better than Min-min)\n",
              result.result.best_fitness,
              100.0 * (1.0 - result.result.best_fitness / minmin.makespan()));
  std::printf("evaluations: %llu across %zu threads, %llu generations\n",
              static_cast<unsigned long long>(result.total_evaluations()),
              result.threads.size(),
              static_cast<unsigned long long>(result.result.generations));

  // 4. Where did the work land?
  std::printf("machine loads (completion times):\n");
  for (std::size_t m = 0; m < instance.machines(); ++m) {
    std::printf("  machine %2zu: %10.1f  (%zu tasks)\n", m,
                result.result.best.completion(m),
                result.result.best.tasks_on(static_cast<sched::MachineId>(m)));
  }
  return 0;
}
