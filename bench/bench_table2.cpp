// Table 2 reproduction: mean makespan of PA-CGA vs the literature.
//
// Columns (paper): Struggle GA [19], cMA+LTH [20], PA-CGA at ~1/9 of the
// budget, PA-CGA at the full budget — over the twelve Braun instances.
//
// Substitutions: the literature numbers come from our
// reimplementations of Struggle GA and cMA+LTH run on our regenerated
// instances (original code and instance files are unavailable), and the
// paper's machine-ratio protocol (TSCP benchmark ratio 9 between the AMD
// K6 450 MHz of [20] and the authors' Xeon) is kept as a budget ratio:
// the "PA-CGA short" column gets budget/ratio. Expected shape: PA-CGA wins
// on inconsistent and hi-hi instances, roughly ties on consistent ones,
// and the short-budget column already lands close to the baselines.
#include <cstdio>
#include <iostream>

#include "baselines/cma_lth.hpp"
#include "baselines/struggle_ga.hpp"
#include "common.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"

namespace {

using namespace pacga;

int run(int argc, char** argv) {
  bench::CampaignOptions opts;
  opts.wall_ms = 600.0;
  opts.runs = 3;
  double ratio = 9.0;
  std::size_t threads = 3;
  std::string only;
  support::Cli cli(
      "bench_table2 — reproduces paper Table 2 (mean makespan vs Struggle "
      "GA and cMA+LTH over the Braun suite)");
  cli.option("wall-ms", &opts.wall_ms, "full PA-CGA budget per run in ms")
      .option("runs", &opts.runs, "independent runs per cell")
      .option("seed", &opts.seed, "master seed")
      .option("threads", &threads, "PA-CGA threads (paper: 3)")
      .option("ratio", &ratio,
              "machine performance ratio for the short-budget column "
              "(paper: 9, measured with TSCP)")
      .option("instance", &only, "run a single instance (default: all 12)")
      .flag("full", &opts.full, "paper protocol: 90 s x 100 runs")
      .flag("csv", &opts.csv, "CSV output");
  if (!cli.parse(argc, argv)) return 0;
  opts.finalize();

  std::printf(
      "# Table 2: mean makespan, %.0f ms full budget (short = /%.1f), "
      "%zu runs\n",
      opts.wall_ms, ratio, opts.runs);

  support::ConsoleTable table({"instance", "StruggleGA", "cMA+LTH",
                               "PA-CGA short", "PA-CGA full", "best"});
  int pa_wins = 0, total = 0;
  std::vector<std::vector<double>> rank_blocks;  // Friedman input

  for (const auto& inst : etc::braun_suite()) {
    if (!only.empty() && inst.name != only) continue;
    const auto etc_matrix = etc::generate(inst.spec);

    support::RunningStats struggle, cma, pa_short, pa_full;
    for (std::size_t r = 0; r < opts.runs; ++r) {
      baseline::StruggleConfig sc;
      sc.seed = opts.seed + r;
      sc.termination =
          cga::Termination::after_seconds(opts.wall_seconds());
      struggle.add(baseline::run_struggle_ga(etc_matrix, sc).best_fitness);

      baseline::CmaLthConfig cc;
      cc.seed = opts.seed + r;
      cc.termination =
          cga::Termination::after_seconds(opts.wall_seconds());
      cma.add(baseline::run_cma_lth(etc_matrix, cc).best_fitness);

      cga::Config pc;
      pc.threads = threads;
      pc.seed = opts.seed + r;
      pc.termination =
          cga::Termination::after_seconds(opts.wall_seconds() / ratio);
      pa_short.add(par::run_parallel(etc_matrix, pc).result.best_fitness);

      pc.termination =
          cga::Termination::after_seconds(opts.wall_seconds());
      pa_full.add(par::run_parallel(etc_matrix, pc).result.best_fitness);
    }

    const double vals[] = {struggle.mean(), cma.mean(), pa_short.mean(),
                           pa_full.mean()};
    const char* names[] = {"StruggleGA", "cMA+LTH", "PA-CGA short",
                           "PA-CGA full"};
    std::size_t best = 0;
    for (std::size_t k = 1; k < 4; ++k) {
      if (vals[k] < vals[best]) best = k;
    }
    ++total;
    if (best >= 2) ++pa_wins;
    rank_blocks.push_back({vals[0], vals[1], vals[2], vals[3]});
    table.add_row({inst.name, support::format_number(vals[0]),
                   support::format_number(vals[1]),
                   support::format_number(vals[2]),
                   support::format_number(vals[3]), names[best]});
  }

  if (opts.csv) table.print_csv(std::cout);
  else table.print(std::cout);
  std::printf(
      "\n# PA-CGA best on %d/%d instances (paper: best on inconsistent and "
      "hi-hi instances; ties on consistent/homogeneous ones)\n",
      pa_wins, total);
  if (rank_blocks.size() >= 2) {
    const auto fr = support::friedman_test(rank_blocks);
    std::printf(
        "# Friedman over %zu instances: chi2 = %.3f, p = %.4f; mean ranks: "
        "Struggle %.2f, cMA+LTH %.2f, PA-CGA short %.2f, PA-CGA full %.2f\n",
        rank_blocks.size(), fr.statistic, fr.p_value, fr.mean_ranks[0],
        fr.mean_ranks[1], fr.mean_ranks[2], fr.mean_ranks[3]);
  }
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
