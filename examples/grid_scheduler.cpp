// grid_scheduler — a complete command-line batch scheduler built on the
// library's public API: load or generate an ETC instance, pick an
// algorithm, and emit the resulting schedule as CSV (task,machine) plus a
// load summary. This is the "downstream user" application: the paper's
// motivating scenario of a grid broker allocating a batch of independent
// tasks (parameter sweeps, Monte-Carlo campaigns).
//
// Examples:
//   grid_scheduler --instance u_i_hihi.0 --algo pa-cga --wall-ms 500
//   grid_scheduler --etc-file my.etc --algo minmin --schedule-out plan.csv
//   grid_scheduler --instance u_c_lolo.0 --algo cma-lth --objective flowtime
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "baselines/cma_lth.hpp"
#include "baselines/struggle_ga.hpp"
#include "cga/engine.hpp"
#include "etc/io.hpp"
#include "etc/suite.hpp"
#include "heuristics/listsched.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/sufferage.hpp"
#include "pacga/cellwise_engine.hpp"
#include "pacga/parallel_engine.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"

namespace {

using namespace pacga;

sched::Objective parse_objective(const std::string& name) {
  if (name == "makespan") return sched::Objective::kMakespan;
  if (name == "flowtime") return sched::Objective::kFlowtime;
  if (name == "weighted") return sched::Objective::kWeightedMakespanFlowtime;
  throw std::runtime_error("unknown objective: " + name);
}

int run(int argc, char** argv) {
  std::string instance = "u_i_hihi.0";
  std::string etc_file;
  std::string algo = "pa-cga";
  std::string objective_name = "makespan";
  std::string schedule_out;
  double wall_ms = 500.0;
  std::size_t threads = 3;
  std::uint64_t seed = 1;

  support::Cli cli(
      "grid_scheduler — schedule a batch of independent tasks on "
      "heterogeneous machines (ETC model).\n"
      "Algorithms: pa-cga, cga-seq, cellwise, struggle, cma-lth, minmin, "
      "maxmin, sufferage, mct, met, olb");
  cli.option("instance", &instance, "Braun instance name to generate")
      .option("etc-file", &etc_file,
              "load the ETC matrix from a file instead of generating")
      .option("algo", &algo, "scheduling algorithm")
      .option("objective", &objective_name, "makespan | flowtime | weighted")
      .option("wall-ms", &wall_ms, "budget for the metaheuristics, in ms")
      .option("threads", &threads, "PA-CGA threads")
      .option("seed", &seed, "random seed")
      .option("schedule-out", &schedule_out,
              "write the schedule as CSV (task,machine) to this path");
  if (!cli.parse(argc, argv)) return 0;

  const etc::EtcMatrix m = etc_file.empty()
                               ? etc::generate_by_name(instance)
                               : etc::read_braun_file(etc_file);
  const auto objective = parse_objective(objective_name);
  const auto budget = cga::Termination::after_seconds(wall_ms / 1000.0);

  std::optional<sched::Schedule> schedule;
  if (algo == "pa-cga") {
    cga::Config c;
    c.threads = threads;
    c.seed = seed;
    c.objective = objective;
    c.termination = budget;
    schedule = par::run_parallel(m, c).result.best;
  } else if (algo == "cga-seq") {
    cga::Config c;
    c.seed = seed;
    c.objective = objective;
    c.termination = budget;
    schedule = cga::run_sequential(m, c).best;
  } else if (algo == "cellwise") {
    // GPU-style cell-parallel model (paper future work): deterministic for
    // any thread count.
    cga::Config c;
    c.threads = threads;
    c.seed = seed;
    c.objective = objective;
    c.termination = budget;
    schedule = par::run_cellwise(m, c).result.best;
  } else if (algo == "struggle") {
    baseline::StruggleConfig c;
    c.seed = seed;
    c.objective = objective;
    c.termination = budget;
    schedule = baseline::run_struggle_ga(m, c).best;
  } else if (algo == "cma-lth") {
    baseline::CmaLthConfig c;
    c.seed = seed;
    c.objective = objective;
    c.termination = budget;
    schedule = baseline::run_cma_lth(m, c).best;
  } else if (algo == "minmin") {
    schedule = heur::min_min(m);
  } else if (algo == "maxmin") {
    schedule = heur::max_min(m);
  } else if (algo == "sufferage") {
    schedule = heur::sufferage(m);
  } else if (algo == "mct") {
    schedule = heur::mct(m);
  } else if (algo == "met") {
    schedule = heur::met(m);
  } else if (algo == "olb") {
    schedule = heur::olb(m);
  } else {
    throw std::runtime_error("unknown algorithm: " + algo);
  }

  std::printf("algorithm:  %s\n", algo.c_str());
  std::printf("instance:   %s (%zu tasks x %zu machines)\n",
              etc_file.empty() ? instance.c_str() : etc_file.c_str(),
              m.tasks(), m.machines());
  std::printf("makespan:   %.2f\n", schedule->makespan());
  std::printf("flowtime:   %.2f\n", schedule->flowtime());

  support::ConsoleTable loads({"machine", "completion", "tasks"});
  for (std::size_t k = 0; k < m.machines(); ++k) {
    loads.add_row({std::to_string(k),
                   support::format_number(schedule->completion(k)),
                   std::to_string(schedule->tasks_on(
                       static_cast<sched::MachineId>(k)))});
  }
  loads.print(std::cout);

  if (!schedule_out.empty()) {
    std::ofstream out(schedule_out);
    if (!out) throw std::runtime_error("cannot open " + schedule_out);
    support::CsvWriter w(out);
    w.row({"task", "machine", "etc"});
    for (std::size_t t = 0; t < m.tasks(); ++t) {
      const auto mac = schedule->machine_of(t);
      w.row({std::to_string(t), std::to_string(mac),
             support::CsvWriter::field(m(t, mac))});
    }
    std::printf("schedule written to %s\n", schedule_out.c_str());
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
