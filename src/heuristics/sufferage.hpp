// Sufferage heuristic (Maheswaran et al.; evaluated in Braun et al. 2001):
// prioritize the task that would "suffer" most if denied its best machine.
//
// Runs the cached-best-machine rewrite: each unassigned task caches its
// (best, second-best) machines and the sufferage value; a round only
// rescans tasks whose cached best or second machine just took load (loads
// are monotone increasing, so every other cache entry is provably still
// exact). Schedules are identical to the naive O(tasks^2 * machines) loop
// (test_heuristics proves it against detail::sufferage_naive).
#pragma once

#include "sched/schedule.hpp"

namespace pacga::heur {

/// Each round: for every unassigned task compute the completion times of
/// its best and second-best machines; commit the task with the largest
/// sufferage (second_best - best) to its best machine.
sched::Schedule sufferage(const etc::EtcMatrix& etc);

namespace detail {

/// The textbook reference loop (see minmin.hpp's detail:: references).
sched::Schedule sufferage_naive(const etc::EtcMatrix& etc);

}  // namespace detail

}  // namespace pacga::heur
