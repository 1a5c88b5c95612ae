// Single-pass list-scheduling heuristics from Braun et al. 2001. Tasks are
// processed in index order (arrival order in the batch model).
#pragma once

#include "sched/schedule.hpp"

namespace pacga::heur {

/// MCT — Minimum Completion Time: each task goes to the machine minimizing
/// its completion time given current loads. O(tasks * machines).
sched::Schedule mct(const etc::EtcMatrix& etc);

/// MET — Minimum Execution Time: each task goes to the machine with the
/// smallest raw ETC, ignoring loads. Degenerates badly on consistent
/// instances (everything piles on the globally fastest machine).
sched::Schedule met(const etc::EtcMatrix& etc);

/// OLB — Opportunistic Load Balancing: each task goes to the machine that
/// becomes ready soonest, ignoring ETC.
sched::Schedule olb(const etc::EtcMatrix& etc);

}  // namespace pacga::heur
