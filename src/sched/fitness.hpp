// Fitness functions over schedules. The paper optimizes makespan only
// (single objective); flowtime and the weighted combination are provided
// as the natural extensions the grid-scheduling literature uses (and the
// paper cites as alternative criteria).
#pragma once

#include "sched/schedule.hpp"

namespace pacga::sched {

/// Lower-is-better fitness value.
using Fitness = double;

/// Objective selector for engines and harnesses.
enum class Objective {
  kMakespan,          ///< max machine completion time (the paper's criterion)
  kFlowtime,          ///< sum of task finishing times, shortest-first order
  kWeightedMakespanFlowtime,  ///< lambda*makespan + (1-lambda)*flowtime/tasks
};

/// Evaluates `objective` on `s`. `lambda` only matters for the weighted
/// objective (default 0.75, the common choice in the cMA literature).
Fitness evaluate(const Schedule& s, Objective objective, double lambda = 0.75);

/// True when fitness `a` is strictly better (smaller) than `b`.
inline bool better(Fitness a, Fitness b) noexcept { return a < b; }

}  // namespace pacga::sched
