// Min-min and Max-min (Ibarra & Kim 1977; Braun et al. 2001).
//
// Min-min seeds one individual of the PA-CGA population (paper Table 1) and
// is the strongest of the simple constructive heuristics on consistent
// instances; Max-min is its pessimistic dual.
//
// Both run the cached-best-machine rewrite: each unassigned task caches its
// (best machine, best completion) pair, and a round only rescans tasks whose
// cached best machine just changed load — machine loads are monotone
// increasing, so every other cache entry is provably still exact. Typical
// cost drops from O(tasks^2 * machines) to ~O(tasks * machines + tasks^2 +
// machines * rescans), with rescans and the per-round argmin/argmax going
// through the SIMD kernel layer. The schedules are IDENTICAL to the naive
// textbook loops, tie-break for tie-break (test_heuristics proves it
// against the detail:: references below).
#pragma once

#include "sched/schedule.hpp"

namespace pacga::heur {

/// Min-min: repeatedly pick the (task, machine) pair whose completion time
/// is globally minimal among unassigned tasks and assign it.
sched::Schedule min_min(const etc::EtcMatrix& etc);

/// Max-min: pick the task whose best completion time is LARGEST, assign it
/// to its best machine. Tends to balance long tasks first.
sched::Schedule max_min(const etc::EtcMatrix& etc);

/// Duplex (Braun et al. 2001): run both Min-min and Max-min and keep the
/// schedule with the lower makespan — cheap insurance against the classes
/// where one of the duals degenerates.
sched::Schedule duplex(const etc::EtcMatrix& etc);

namespace detail {

/// The textbook O(tasks^2 * machines) loops — the semantic reference the
/// accelerated paths must match schedule-for-schedule. Called directly by
/// test_heuristics and bench_kernels; the public entry points never route
/// here.
sched::Schedule min_min_naive(const etc::EtcMatrix& etc);
sched::Schedule max_min_naive(const etc::EtcMatrix& etc);

}  // namespace detail

}  // namespace pacga::heur
