// Recombination operators on assignment strings (paper §4.1: one-point
// "opx" and two-point "tpx").
//
// Both operators keep the offspring's completion-time cache up to date
// incrementally via Schedule::copy_segment — no full re-evaluation (paper
// §3.3).
#pragma once

#include "sched/schedule.hpp"
#include "support/rng.hpp"

namespace pacga::cga {

enum class CrossoverKind {
  kOnePoint,  ///< opx — prefix from parent a, suffix from parent b
  kTwoPoint,  ///< tpx — middle segment from parent b
};

/// Recombines in place, into a preallocated offspring buffer: `child` must
/// already hold a copy of parent a (assign_from); the call applies `b`'s
/// contribution with incremental cache updates and no allocation.
///   * kOnePoint: one draw, cut in [1, tasks-1]; offspring = a[0:cut) +
///     b[cut:).
///   * kTwoPoint: two draws lo, hi in [0, tasks); offspring = a with the
///     segment [min, max) replaced by b's genes (one gene when they are
///     equal).
void crossover_into(CrossoverKind kind, sched::Schedule& child,
                    const sched::Schedule& b, support::Xoshiro256& rng);

}  // namespace pacga::cga
