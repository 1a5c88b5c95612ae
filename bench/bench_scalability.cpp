// Scalability study — the paper's stated future work ("apply future
// parallel models on bigger benchmark instances"). Scales the instance
// (tasks x machines) beyond the 512x16 evaluation and reports, per size
// and thread count: evaluations/second (throughput), best makespan
// normalized to Min-min (quality), and the Min-min seed cost itself
// (which grows O(T^2 M) and starts to matter at large sizes).
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "heuristics/minmin.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/timer.hpp"

namespace {

using namespace pacga;

int run(int argc, char** argv) {
  bench::CampaignOptions opts;
  opts.wall_ms = 400.0;
  opts.runs = 2;
  std::size_t threads = 3;
  support::Cli cli(
      "bench_scalability — PA-CGA on growing instance sizes (paper future "
      "work: bigger instances)");
  cli.option("wall-ms", &opts.wall_ms, "budget per run in ms")
      .option("runs", &opts.runs, "independent runs per point")
      .option("seed", &opts.seed, "master seed")
      .option("threads", &threads, "PA-CGA threads")
      .flag("full", &opts.full, "paper-scale protocol: 90 s x 100 runs")
      .flag("csv", &opts.csv, "CSV output");
  if (!cli.parse(argc, argv)) return 0;
  opts.finalize();

  struct Size {
    std::size_t tasks;
    std::size_t machines;
  };
  const Size sizes[] = {{512, 16}, {1024, 32}, {2048, 32}, {4096, 64}};

  std::printf("# scalability: %.0f ms x %zu runs, %zu threads\n", opts.wall_ms,
              opts.runs, threads);
  support::ConsoleTable table({"tasks", "machines", "minmin_ms",
                               "minmin_cost_s", "pacga/minmin",
                               "pacga_evals/s"});

  for (const Size& size : sizes) {
    etc::GenSpec spec;
    spec.tasks = size.tasks;
    spec.machines = size.machines;
    spec.consistency = etc::Consistency::kInconsistent;
    spec.seed = support::seed_from_string(
        ("scale_" + std::to_string(size.tasks)).c_str());
    const auto m = etc::generate(spec);

    const support::WallTimer minmin_timer;
    const double minmin_ms = heur::min_min(m).makespan();
    const double minmin_cost = minmin_timer.elapsed_seconds();

    support::RunningStats pa_quality, pa_throughput;
    for (std::size_t r = 0; r < opts.runs; ++r) {
      cga::Config pc;
      pc.threads = threads;
      pc.seed = opts.seed + r;
      pc.termination = cga::Termination::after_seconds(opts.wall_seconds());
      const auto pa = par::run_parallel(m, pc);
      pa_quality.add(pa.result.best_fitness / minmin_ms);
      pa_throughput.add(static_cast<double>(pa.total_evaluations()) /
                        pa.result.elapsed_seconds);
    }

    table.add_row({std::to_string(size.tasks), std::to_string(size.machines),
                   support::format_number(minmin_ms),
                   support::format_number(minmin_cost, 3),
                   support::format_number(pa_quality.mean(), 5),
                   support::format_number(pa_throughput.mean(), 5)});
  }

  if (opts.csv) table.print_csv(std::cout);
  else table.print(std::cout);
  std::printf(
      "\n# pacga/minmin is best makespan / Min-min makespan (< 1 means "
      "PA-CGA beat the seed). Larger instances need more budget "
      "to pull away from Min-min — the motivation for more parallelism.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
