// Local search operators.
//
//  * H2LL ("Highest To Least Loaded") — the paper's new operator
//    (Algorithm 4): move a random task off the most loaded machine to the
//    candidate among the least-loaded half minimizing its new completion
//    time, never above the current makespan. Monotone: makespan never
//    increases (tested as an invariant).
//  * Local Tabu Hop — a compact tabu search over task moves, standing in
//    for the LTH operator of the cMA+LTH baseline (Xhafa, Alba,
//    Dorronsoro, Duran 2008).
#pragma once

#include <cstddef>

#include "sched/schedule.hpp"
#include "support/rng.hpp"

namespace pacga::cga {

/// Which local-search operator the engines apply to offspring. Neither
/// runs when Config::local_search.iterations is 0 (Figure 4's "0
/// iteration" arm).
enum class LocalSearchKind {
  kH2LL,     ///< the paper's operator (random task off the loaded machine)
  kTabuHop,  ///< the cMA+LTH baseline's operator
};

/// H2LL parameterization (paper Table 1: iter = 5 or 10; candidates =
/// machines/2 per Algorithm 4, override-able per the "N is a parameter"
/// remark).
struct H2LLParams {
  std::size_t iterations = 5;
  /// Number of least-loaded candidate machines; 0 means machines/2.
  std::size_t candidates = 0;
};

/// Applies H2LL in place: `params.iterations` passes, each drawing a task
/// off the most loaded machine and moving it to the candidate machine that
/// minimizes its new completion time, when that undercuts the makespan.
/// The whole call is one kernels::h2ll run over the schedule's gene and
/// completion arrays (lent by Schedule::edit_arrays; see
/// kernels::Dispatch::h2ll for the pass and its tie-breaks). With up to 16
/// machines the vector tiers keep the completions in registers for the
/// whole call. The pass state (the most loaded machine, the mask of its
/// tasks, the candidates) is recomputed only on entry and after a move,
/// and a move that keeps the most loaded machine only clears the moved
/// task's bit; either way the kept state is what a recompute would return,
/// so the draws and moves, and every trajectory, are those of recomputing
/// it every pass, on every kernel tier.
void h2ll(sched::Schedule& s, const H2LLParams& params,
          support::Xoshiro256& rng);

/// Tabu-search parameterization for the cMA+LTH baseline.
struct TabuHopParams {
  std::size_t iterations = 10;
  std::size_t tenure = 8;  ///< moves a task stays tabu after being moved
};

/// Local Tabu Hop: per iteration, the best (possibly worsening) move of a
/// non-tabu task off the most loaded machine is applied and the task made
/// tabu; the best schedule seen is restored at the end. Never returns a
/// schedule worse than the input.
void local_tabu_hop(sched::Schedule& s, const TabuHopParams& params,
                    support::Xoshiro256& rng);

}  // namespace pacga::cga
