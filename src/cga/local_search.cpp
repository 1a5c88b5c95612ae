#include "cga/local_search.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "support/kernels.hpp"

namespace pacga::cga {

namespace kernels = support::kernels;

void h2ll(sched::Schedule& s, const H2LLParams& params,
          support::Xoshiro256& rng) {
  static_assert(std::is_same_v<sched::MachineId, std::uint16_t>,
                "the H2LL kernel edits 16-bit genes");
  const std::size_t machines = s.machines();
  if (machines < 2 || s.tasks() == 0) return;
  const std::size_t n_candidates =
      params.candidates == 0
          ? machines / 2
          : std::min(params.candidates, machines - 1);
  s.edit_arrays([&](sched::MachineId* genes, double* completions) {
    kernels::h2ll(completions, genes, s.etc().task_major().data(), s.tasks(),
                  machines, n_candidates, params.iterations, rng);
  });
}

void local_tabu_hop(sched::Schedule& s, const TabuHopParams& params,
                    support::Xoshiro256& rng) {
  const std::size_t machines = s.machines();
  const std::size_t tasks = s.tasks();
  if (machines < 2 || tasks == 0) return;

  // Expiry iteration per task; iteration counter starts at tenure so the
  // initial zeros are all expired.
  std::vector<std::size_t> tabu_until(tasks, 0);
  sched::Schedule best = s;
  double best_makespan = best.makespan();

  for (std::size_t it = 1; it <= params.iterations; ++it) {
    const std::size_t loaded_idx = s.argmax_machine();
    const auto loaded = static_cast<sched::MachineId>(loaded_idx);
    // Best move of any non-tabu task currently on the makespan machine:
    // minimize the resulting pair (new target completion) — classic
    // steepest-descent step, accepted even if worsening (tabu search).
    // Per-task inner loop is one fused skip-scan over (completions, ETC
    // row); the skip-scan's lowest-index tie-break matches the old loop.
    std::size_t move_task_id = tasks;
    std::size_t move_target = machines;
    double move_score = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < tasks; ++t) {
      if (s.machine_of(t) != loaded) continue;
      if (tabu_until[t] > it) continue;
      const auto cand = kernels::min_completion_index_skip(
          s.completions().data(), s.etc().of_task(t).data(), machines,
          loaded_idx);
      if (cand.value < move_score) {
        move_score = cand.value;
        move_task_id = t;
        move_target = cand.index;
      }
    }
    if (move_task_id == tasks) {
      // Everything on the loaded machine is tabu: diversify with a random
      // kick so the search does not stall.
      const std::size_t t = rng.index(tasks);
      s.move_task(t, static_cast<sched::MachineId>(rng.index(machines)));
      tabu_until[t] = it + params.tenure;
    } else {
      s.move_task(move_task_id, static_cast<sched::MachineId>(move_target));
      tabu_until[move_task_id] = it + params.tenure;
    }
    const double ms = s.makespan();
    if (ms < best_makespan) {
      best_makespan = ms;
      best = s;
    }
  }
  if (best_makespan < s.makespan()) s = best;
}

}  // namespace pacga::cga
