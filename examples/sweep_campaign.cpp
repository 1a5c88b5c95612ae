// sweep_campaign — parameter-study driver over the PA-CGA configuration
// space: vary one axis (threads, local-search iterations, neighborhood,
// crossover, selection, sweep policy, replacement) while holding the rest
// at the paper's defaults, and report mean +/- 95 % CI of the best
// makespan plus throughput. This is the repo's one-axis ablation tool,
// and a template for running your own studies with the library.
//
// Examples:
//   sweep_campaign --axis ls-iters
//   sweep_campaign --axis neighborhood --instance u_s_lohi.0 --runs 10
#include <cstdio>
#include <functional>
#include <iostream>
#include <vector>

#include "etc/suite.hpp"
#include "pacga/parallel_engine.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/stats.hpp"

namespace {

using namespace pacga;

struct AxisPoint {
  std::string label;
  std::function<void(cga::Config&)> apply;
};

std::vector<AxisPoint> make_axis(const std::string& axis) {
  std::vector<AxisPoint> points;
  if (axis == "threads") {
    for (std::size_t t : {1, 2, 3, 4}) {
      points.push_back({"threads=" + std::to_string(t),
                        [t](cga::Config& c) { c.threads = t; }});
    }
  } else if (axis == "ls-iters") {
    for (std::size_t i : {0, 1, 5, 10, 20}) {
      points.push_back({"iters=" + std::to_string(i), [i](cga::Config& c) {
                          c.local_search.iterations = i;
                        }});
    }
  } else if (axis == "neighborhood") {
    for (auto s : {cga::NeighborhoodShape::kLinear5,
                   cga::NeighborhoodShape::kCompact9,
                   cga::NeighborhoodShape::kLinear9,
                   cga::NeighborhoodShape::kCompact13}) {
      points.push_back({cga::to_string(s),
                        [s](cga::Config& c) { c.neighborhood = s; }});
    }
  } else if (axis == "crossover") {
    for (auto x : {cga::CrossoverKind::kOnePoint, cga::CrossoverKind::kTwoPoint,
                   cga::CrossoverKind::kUniform}) {
      points.push_back(
          {cga::to_string(x), [x](cga::Config& c) { c.crossover = x; }});
    }
  } else if (axis == "selection") {
    for (auto s : {cga::SelectionKind::kBestTwo, cga::SelectionKind::kTournament,
                   cga::SelectionKind::kRoulette, cga::SelectionKind::kRandomTwo}) {
      points.push_back(
          {cga::to_string(s), [s](cga::Config& c) { c.selection = s; }});
    }
  } else if (axis == "sweep") {
    for (auto s : {cga::SweepPolicy::kLineSweep, cga::SweepPolicy::kReverseSweep,
                   cga::SweepPolicy::kFixedShuffle, cga::SweepPolicy::kNewShuffle,
                   cga::SweepPolicy::kUniformChoice}) {
      points.push_back({cga::to_string(s), [s](cga::Config& c) { c.sweep = s; }});
    }
  } else if (axis == "replacement") {
    for (auto r : {cga::ReplacementPolicy::kReplaceIfBetter,
                   cga::ReplacementPolicy::kAlways}) {
      points.push_back(
          {cga::to_string(r), [r](cga::Config& c) { c.replacement = r; }});
    }
  } else if (axis == "mutation") {
    for (auto mk : {cga::MutationKind::kMove, cga::MutationKind::kSwap,
                    cga::MutationKind::kRebalance}) {
      points.push_back(
          {cga::to_string(mk), [mk](cga::Config& c) { c.mutation = mk; }});
    }
  } else if (axis == "ls-kind") {
    for (auto k : {cga::LocalSearchKind::kH2LL,
                   cga::LocalSearchKind::kH2LLSteepest,
                   cga::LocalSearchKind::kTabuHop,
                   cga::LocalSearchKind::kNone}) {
      points.push_back(
          {cga::to_string(k), [k](cga::Config& c) { c.ls_kind = k; }});
    }
  } else if (axis == "objective") {
    for (auto o : {sched::Objective::kMakespan, sched::Objective::kFlowtime,
                   sched::Objective::kWeightedMakespanFlowtime}) {
      points.push_back(
          {sched::to_string(o), [o](cga::Config& c) { c.objective = o; }});
    }
  } else if (axis == "update") {
    for (auto u : {cga::UpdatePolicy::kAsynchronous,
                   cga::UpdatePolicy::kSynchronous}) {
      points.push_back(
          {cga::to_string(u), [u](cga::Config& c) { c.update = u; }});
    }
  } else {
    throw std::runtime_error(
        "unknown axis: " + axis +
        " (use threads, ls-iters, neighborhood, crossover, selection, "
        "sweep, replacement, mutation, objective, update, ls-kind)");
  }
  return points;
}

int run(int argc, char** argv) {
  std::string axis = "ls-iters";
  std::string instance = "u_i_hihi.0";
  double wall_ms = 300.0;
  std::size_t runs = 5;
  std::uint64_t seed = 1;
  bool csv = false;

  support::Cli cli(
      "sweep_campaign — one-axis ablation study around the paper's default "
      "PA-CGA configuration");
  cli.option("axis", &axis,
             "threads | ls-iters | neighborhood | crossover | selection | "
             "sweep | replacement | mutation | objective | update | ls-kind")
      .option("instance", &instance, "Braun instance name")
      .option("wall-ms", &wall_ms, "budget per run in ms")
      .option("runs", &runs, "independent runs per point")
      .option("seed", &seed, "master seed")
      .flag("csv", &csv, "CSV output");
  if (!cli.parse(argc, argv)) return 0;

  const auto m = etc::generate_by_name(instance);
  const auto points = make_axis(axis);

  std::printf("# sweep over %s on %s, %.0f ms x %zu runs\n", axis.c_str(),
              instance.c_str(), wall_ms, runs);
  support::ConsoleTable table(
      {"config", "mean_makespan", "ci95", "best", "mean_evals"});

  for (const auto& point : points) {
    support::RunningStats makespans, evals;
    for (std::size_t r = 0; r < runs; ++r) {
      cga::Config c;
      c.seed = seed + r;
      c.termination = cga::Termination::after_seconds(wall_ms / 1000.0);
      point.apply(c);
      const auto result = par::run_parallel(m, c);
      makespans.add(result.result.best_fitness);
      evals.add(static_cast<double>(result.total_evaluations()));
    }
    table.add_row({point.label, support::format_number(makespans.mean()),
                   support::format_number(support::ci95_halfwidth(makespans), 3),
                   support::format_number(makespans.min()),
                   support::format_number(evals.mean(), 5)});
  }

  if (csv) table.print_csv(std::cout);
  else table.print(std::cout);
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
