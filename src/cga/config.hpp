// Algorithm configuration (paper Table 1) and run results.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cga/crossover.hpp"
#include "cga/local_search.hpp"
#include "cga/selection.hpp"
#include "sched/fitness.hpp"

namespace pacga::cga {

/// Cell visiting order within a block/population.
enum class SweepPolicy {
  kLineSweep,      ///< fixed ascending order (paper default)
  kReverseSweep,   ///< fixed descending order
  kFixedShuffle,   ///< one random permutation, fixed for the whole run
  kNewShuffle,     ///< fresh permutation every generation
  kUniformChoice,  ///< each step picks a uniformly random cell
};

/// Synchronous (auxiliary population, generational commit) vs
/// asynchronous (immediate replacement) update (paper §3.1). PA-CGA is
/// asynchronous; the synchronous update is cMA+LTH's, on run_sequential.
enum class UpdatePolicy { kAsynchronous, kSynchronous };

const char* to_string(SweepPolicy p) noexcept;

/// Stop conditions; whichever triggers first ends the run. Defaults are
/// "never" so callers enable exactly the criteria they need.
struct Termination {
  double wall_seconds = std::numeric_limits<double>::infinity();
  std::uint64_t max_generations =
      std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_evaluations =
      std::numeric_limits<std::uint64_t>::max();

  static Termination after_seconds(double s) {
    Termination t;
    t.wall_seconds = s;
    return t;
  }
  static Termination after_generations(std::uint64_t g) {
    Termination t;
    t.max_generations = g;
    return t;
  }
  static Termination after_evaluations(std::uint64_t e) {
    Termination t;
    t.max_evaluations = e;
    return t;
  }
};

/// Full PA-CGA parameterization. Defaults reproduce paper Table 1 with the
/// configuration the paper adopts after its studies: tpx, 10 H2LL
/// iterations, 3 threads. The rest of Table 1 is fixed: the linear-5
/// neighborhood (cga/neighborhood.hpp), the move mutation (cga::mutate) and
/// replace-if-better (an offspring enters only when strictly fitter).
struct Config {
  std::size_t width = 16;
  std::size_t height = 16;
  SelectionKind selection = SelectionKind::kBestTwo;
  CrossoverKind crossover = CrossoverKind::kTwoPoint;
  double p_comb = 1.0;  ///< recombination probability
  double p_mut = 1.0;   ///< mutation probability
  double p_ls = 1.0;    ///< local-search probability (paper's p_ser)
  /// Which local search the engine applies to offspring.
  LocalSearchKind ls_kind = LocalSearchKind::kH2LL;
  /// H2LL passes; 0 disables local search of either kind (the Figure 4
  /// "0 iteration" arm).
  H2LLParams local_search{10, 0};
  /// Parameters for ls_kind == kTabuHop only.
  TabuHopParams tabu{10, 8};
  UpdatePolicy update = UpdatePolicy::kAsynchronous;
  SweepPolicy sweep = SweepPolicy::kLineSweep;
  bool seed_min_min = true;  ///< one Min-min individual in the initial pop
  sched::Objective objective = sched::Objective::kMakespan;
  /// Weight of makespan in kWeightedMakespanFlowtime (ignored otherwise);
  /// 0.75 is the common choice in the cMA literature.
  double lambda = 0.75;
  Termination termination = Termination::after_generations(100);
  /// Optional warm seed: when non-empty, one designated cell of the
  /// initial population adopts this assignment in place
  /// (Population::seed_cell) before evolution starts, so the engine can
  /// only improve on it — the dynamic-rescheduling injection point,
  /// honored by every engine. The seed lands in cell 1 when Min-min
  /// seeding occupies cell 0 (both survive), cell 0 otherwise
  /// (cga::warm_seed_cell). Length must equal the instance's task count
  /// and every id must be a valid machine (Schedule::adopt throws
  /// std::invalid_argument otherwise).
  std::vector<sched::MachineId> warm_seed;
  std::uint64_t seed = 1;
  std::size_t threads = 3;  ///< used by the parallel engine only
  /// Record a TracePoint per generation (Figure 6 raw data). Off by
  /// default: sampling scans the whole population (through validated
  /// reads in the parallel engine), which would perturb contention
  /// measurements.
  bool collect_trace = false;

  std::size_t population_size() const noexcept { return width * height; }

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

/// One sampled point of the evolution trace (Figure 6 raw data).
struct TracePoint {
  std::uint64_t generation = 0;  ///< sampling thread's generation count
  double elapsed_seconds = 0.0;
  double best_fitness = 0.0;     ///< best cell fitness at sample time
  double mean_fitness = 0.0;     ///< population mean at sample time
};

/// Outcome of a run.
struct Result {
  explicit Result(sched::Schedule best_schedule)
      : best(std::move(best_schedule)) {}

  sched::Schedule best;          ///< best schedule ever observed
  /// Fresh evaluation of `best` (BestTracker::finish): a warm seed made
  /// from `best` re-enters a run with exactly this fitness.
  double best_fitness = 0.0;
  std::uint64_t evaluations = 0; ///< offspring evaluations (excludes init)
  std::uint64_t generations = 0; ///< full sweeps (max over threads)
  double elapsed_seconds = 0.0;
  std::vector<TracePoint> trace;
};

}  // namespace pacga::cga
