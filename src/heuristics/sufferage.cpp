#include "heuristics/sufferage.hpp"

#include <limits>
#include <vector>

#include "support/kernels.hpp"

namespace pacga::heur {

namespace kernels = support::kernels;

namespace detail {

sched::Schedule sufferage_naive(const etc::EtcMatrix& etc) {
  const std::size_t tasks = etc.tasks();
  const std::size_t machines = etc.machines();
  std::vector<double> ct(machines);
  for (std::size_t m = 0; m < machines; ++m) ct[m] = etc.ready(m);
  std::vector<sched::MachineId> assignment(tasks, 0);
  std::vector<bool> done(tasks, false);

  for (std::size_t round = 0; round < tasks; ++round) {
    std::size_t chosen_task = tasks;
    std::size_t chosen_machine = 0;
    double chosen_ct = 0.0;
    double chosen_sufferage = -1.0;
    for (std::size_t t = 0; t < tasks; ++t) {
      if (done[t]) continue;
      double best = std::numeric_limits<double>::infinity();
      double second = std::numeric_limits<double>::infinity();
      std::size_t best_m = 0;
      const auto row = etc.of_task(t);
      for (std::size_t m = 0; m < machines; ++m) {
        const double c = ct[m] + row[m];
        if (c < best) {
          second = best;
          best = c;
          best_m = m;
        } else if (c < second) {
          second = c;
        }
      }
      // With one machine, sufferage degenerates to 0 for every task.
      const double suff = machines > 1 ? second - best : 0.0;
      if (suff > chosen_sufferage || chosen_task == tasks) {
        chosen_task = t;
        chosen_machine = best_m;
        chosen_ct = best;
        chosen_sufferage = suff;
      }
    }
    done[chosen_task] = true;
    assignment[chosen_task] = static_cast<sched::MachineId>(chosen_machine);
    ct[chosen_machine] = chosen_ct;
  }
  return sched::Schedule(etc, std::move(assignment));
}

}  // namespace detail

namespace {

/// Accelerated Sufferage: cached (best, second) per task + invalidation.
/// (One of three sites sharing the monotone-load exactness invariant —
/// see the note on min_max_min_fast in minmin.cpp.)
///
/// A committed machine's completion strictly increases and nothing else
/// moves, so a task's cached best AND second stay exact unless the moved
/// machine holds one of the two cached slots — the moved machine's old
/// candidate value was >= the cached second (or it would have held a slot),
/// and it only went up. The two-slot scan is a fused SIMD min-scan for the
/// best plus a skip-scan for the runner-up; the one-pass naive loop's
/// `second` equals the minimum over all machines other than the best, which
/// is exactly what the skip-scan computes. The per-round winner is one
/// argmax kernel scan over the dense sufferage array (assigned tasks parked
/// at -infinity; live sufferages are >= 0, so parked tasks never win while
/// work remains, and ties keep the naive loop's lowest-task-index break).
sched::Schedule sufferage_fast(const etc::EtcMatrix& etc) {
  const std::size_t tasks = etc.tasks();
  const std::size_t machines = etc.machines();
  std::vector<double> ct(machines);
  for (std::size_t m = 0; m < machines; ++m) ct[m] = etc.ready(m);
  std::vector<sched::MachineId> assignment(tasks, 0);

  constexpr double kParked = -std::numeric_limits<double>::infinity();
  std::vector<double> suff(tasks);
  std::vector<double> best_ct(tasks);
  std::vector<std::uint32_t> best_m(tasks);
  std::vector<std::uint32_t> second_m(tasks);

  const auto rescan = [&](std::size_t t) {
    const double* row = etc.of_task(t).data();
    const auto b = kernels::min_completion_index(ct.data(), row, machines);
    best_ct[t] = b.value;
    best_m[t] = static_cast<std::uint32_t>(b.index);
    if (machines > 1) {
      const auto s =
          kernels::min_completion_index_skip(ct.data(), row, machines, b.index);
      suff[t] = s.value - b.value;
      second_m[t] = static_cast<std::uint32_t>(s.index);
    } else {
      suff[t] = 0.0;
      second_m[t] = 0;
    }
  };

  for (std::size_t t = 0; t < tasks; ++t) rescan(t);

  for (std::size_t round = 0; round < tasks; ++round) {
    const std::size_t chosen = kernels::argmax(suff.data(), tasks);
    const std::uint32_t machine = best_m[chosen];
    assignment[chosen] = static_cast<sched::MachineId>(machine);
    ct[machine] = best_ct[chosen];
    suff[chosen] = kParked;
    if (round + 1 == tasks) break;
    for (std::size_t t = 0; t < tasks; ++t) {
      if (suff[t] == kParked) continue;
      if (best_m[t] == machine || second_m[t] == machine) rescan(t);
    }
  }
  return sched::Schedule(etc, std::move(assignment));
}

}  // namespace

sched::Schedule sufferage(const etc::EtcMatrix& etc) {
  return sufferage_fast(etc);
}

}  // namespace pacga::heur
