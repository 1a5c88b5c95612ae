#include "heuristics/minmin.hpp"

#include <limits>
#include <vector>

#include "support/kernels.hpp"

namespace pacga::heur {

namespace kernels = support::kernels;

namespace {

/// Shared skeleton of Min-min / Max-min: each round, compute for every
/// unassigned task its best (machine, completion time); then commit the
/// task chosen by `pick_max` (false = Min-min, true = Max-min). Naive
/// reference: rescans every unassigned task every round.
sched::Schedule min_max_min_naive(const etc::EtcMatrix& etc, bool pick_max) {
  const std::size_t tasks = etc.tasks();
  const std::size_t machines = etc.machines();
  std::vector<double> ct(machines);
  for (std::size_t m = 0; m < machines; ++m) ct[m] = etc.ready(m);
  std::vector<sched::MachineId> assignment(tasks, 0);
  std::vector<bool> done(tasks, false);

  for (std::size_t round = 0; round < tasks; ++round) {
    std::size_t chosen_task = tasks;
    std::size_t chosen_machine = 0;
    double chosen_ct = pick_max ? -1.0 : std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < tasks; ++t) {
      if (done[t]) continue;
      // Best machine for task t under current loads.
      std::size_t best_m = 0;
      double best_ct = std::numeric_limits<double>::infinity();
      const auto row = etc.of_task(t);
      for (std::size_t m = 0; m < machines; ++m) {
        const double c = ct[m] + row[m];
        if (c < best_ct) {
          best_ct = c;
          best_m = m;
        }
      }
      const bool take = pick_max ? best_ct > chosen_ct : best_ct < chosen_ct;
      if (take || chosen_task == tasks) {
        chosen_task = t;
        chosen_machine = best_m;
        chosen_ct = best_ct;
      }
    }
    done[chosen_task] = true;
    assignment[chosen_task] = static_cast<sched::MachineId>(chosen_machine);
    ct[chosen_machine] = chosen_ct;
  }
  return sched::Schedule(etc, std::move(assignment));
}

/// Accelerated skeleton: cached best machine per task + invalidation.
///
/// NOTE: this exactness invariant is implemented three times, shaped by
/// each site's data layout — here (dense key arrays, +/-inf parking),
/// sufferage.cpp's sufferage_fast (adds a cached second slot), and the
/// dynamic repairer's reassign_orphans (erase-based orphan list). If you
/// touch the invalidation condition or a tie-break in one, audit the
/// other two; each copy is pinned schedule-for-schedule to its own naive
/// reference (test_heuristics, test_dynamic).
///
/// Why the cache stays exact: committing a task strictly RAISES its
/// machine's completion (ETC entries are positive) and touches nothing
/// else. For any task whose cached best machine is a different machine,
/// both the minimal value and its lowest achieving index are therefore
/// unchanged — the one machine that moved only got worse. Only tasks whose
/// cached best machine just took load are rescanned, through the fused
/// SIMD min-scan; the per-round winner is one argmin/argmax kernel scan
/// over the dense key array (finished tasks parked at +/-infinity, which
/// no live completion time can reach). Strict comparisons everywhere keep
/// the naive loop's lowest-index tie-breaks.
sched::Schedule min_max_min_fast(const etc::EtcMatrix& etc, bool pick_max) {
  const std::size_t tasks = etc.tasks();
  const std::size_t machines = etc.machines();
  std::vector<double> ct(machines);
  for (std::size_t m = 0; m < machines; ++m) ct[m] = etc.ready(m);
  std::vector<sched::MachineId> assignment(tasks, 0);

  const double parked = pick_max ? -std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::infinity();
  std::vector<double> key(tasks);          // task's best completion time
  std::vector<std::uint32_t> best_m(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    const auto r =
        kernels::min_completion_index(ct.data(), etc.of_task(t).data(), machines);
    key[t] = r.value;
    best_m[t] = static_cast<std::uint32_t>(r.index);
  }

  for (std::size_t round = 0; round < tasks; ++round) {
    const std::size_t chosen = pick_max ? kernels::argmax(key.data(), tasks)
                                        : kernels::argmin(key.data(), tasks);
    const std::uint32_t machine = best_m[chosen];
    assignment[chosen] = static_cast<sched::MachineId>(machine);
    ct[machine] = key[chosen];
    key[chosen] = parked;
    if (round + 1 == tasks) break;
    for (std::size_t t = 0; t < tasks; ++t) {
      if (best_m[t] != machine || key[t] == parked) continue;
      const auto r = kernels::min_completion_index(
          ct.data(), etc.of_task(t).data(), machines);
      key[t] = r.value;
      best_m[t] = static_cast<std::uint32_t>(r.index);
    }
  }
  return sched::Schedule(etc, std::move(assignment));
}

}  // namespace

namespace detail {

sched::Schedule min_min_naive(const etc::EtcMatrix& etc) {
  return min_max_min_naive(etc, /*pick_max=*/false);
}

sched::Schedule max_min_naive(const etc::EtcMatrix& etc) {
  return min_max_min_naive(etc, /*pick_max=*/true);
}

}  // namespace detail

sched::Schedule min_min(const etc::EtcMatrix& etc) {
  return min_max_min_fast(etc, /*pick_max=*/false);
}

sched::Schedule max_min(const etc::EtcMatrix& etc) {
  return min_max_min_fast(etc, /*pick_max=*/true);
}

sched::Schedule duplex(const etc::EtcMatrix& etc) {
  // Two plain returns so the winner is implicitly MOVED out; the former
  // `cond ? a : b` ternary yielded an lvalue and copied the winner —
  // one whole-schedule allocation per call for nothing.
  sched::Schedule a = min_min(etc);
  sched::Schedule b = max_min(etc);
  if (a.makespan() <= b.makespan()) return a;
  return b;
}

}  // namespace pacga::heur
