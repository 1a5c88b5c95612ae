#include "heuristics/listsched.hpp"

#include <vector>

#include "support/kernels.hpp"

namespace pacga::heur {

namespace kernels = support::kernels;

sched::Schedule mct(const etc::EtcMatrix& etc) {
  const std::size_t machines = etc.machines();
  std::vector<double> ct(machines);
  for (std::size_t m = 0; m < machines; ++m) ct[m] = etc.ready(m);
  std::vector<sched::MachineId> assignment(etc.tasks(), 0);
  for (std::size_t t = 0; t < etc.tasks(); ++t) {
    // Fused completion scan: min over machines of ct[m] + etc(t, m),
    // lowest index on ties — the same answer the scalar loop produced.
    const auto best = kernels::min_completion_index(
        ct.data(), etc.of_task(t).data(), machines);
    assignment[t] = static_cast<sched::MachineId>(best.index);
    ct[best.index] = best.value;
  }
  return sched::Schedule(etc, std::move(assignment));
}

sched::Schedule met(const etc::EtcMatrix& etc) {
  std::vector<sched::MachineId> assignment(etc.tasks(), 0);
  for (std::size_t t = 0; t < etc.tasks(); ++t) {
    const auto row = etc.of_task(t);
    assignment[t] = static_cast<sched::MachineId>(
        kernels::argmin(row.data(), row.size()));
  }
  return sched::Schedule(etc, std::move(assignment));
}

sched::Schedule olb(const etc::EtcMatrix& etc) {
  const std::size_t machines = etc.machines();
  std::vector<double> ct(machines);
  for (std::size_t m = 0; m < machines; ++m) ct[m] = etc.ready(m);
  std::vector<sched::MachineId> assignment(etc.tasks(), 0);
  for (std::size_t t = 0; t < etc.tasks(); ++t) {
    const std::size_t best_m = kernels::argmin(ct.data(), machines);
    assignment[t] = static_cast<sched::MachineId>(best_m);
    ct[best_m] += etc(t, best_m);
  }
  return sched::Schedule(etc, std::move(assignment));
}

}  // namespace pacga::heur
