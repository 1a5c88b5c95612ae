#include "batch/workload.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "support/rng.hpp"

namespace pacga::batch {

void validate(const WorkloadSpec& spec) {
  // Each degenerate parameter gets its own message: a spec assembled from
  // user input (the service daemon, sweep scripts) must fail with a clear
  // diagnosis instead of silently producing inf/NaN arrival times or
  // division-by-zero ETC entries downstream.
  if (spec.tasks == 0)
    throw std::invalid_argument("WorkloadSpec: tasks must be > 0");
  if (spec.machines == 0)
    throw std::invalid_argument("WorkloadSpec: machines must be > 0");
  if (!(spec.arrival_rate > 0.0) || !std::isfinite(spec.arrival_rate))
    throw std::invalid_argument(
        "WorkloadSpec: arrival_rate must be positive and finite (got " +
        std::to_string(spec.arrival_rate) + ")");
  if (!(spec.workload_lo > 0.0) || !std::isfinite(spec.workload_lo))
    throw std::invalid_argument("WorkloadSpec: workload_lo must be positive");
  if (!(spec.workload_hi >= spec.workload_lo) ||
      !std::isfinite(spec.workload_hi))
    throw std::invalid_argument(
        "WorkloadSpec: workload_hi must be finite and >= workload_lo");
  if (!(spec.mips_lo > 0.0) || !std::isfinite(spec.mips_lo))
    throw std::invalid_argument("WorkloadSpec: mips_lo must be positive");
  if (!(spec.mips_hi >= spec.mips_lo) || !std::isfinite(spec.mips_hi))
    throw std::invalid_argument(
        "WorkloadSpec: mips_hi must be finite and >= mips_lo");
  if (!(spec.inconsistency >= 0.0) || !std::isfinite(spec.inconsistency))
    throw std::invalid_argument(
        "WorkloadSpec: inconsistency must be >= 0 and finite");
}

Workload generate_workload(const WorkloadSpec& spec) {
  validate(spec);

  support::Xoshiro256 rng(spec.seed);
  Workload w;
  w.tasks.reserve(spec.tasks);
  double t = 0.0;
  for (std::size_t i = 0; i < spec.tasks; ++i) {
    // Exponential inter-arrival gap.
    const double u = 1.0 - rng.uniform();  // (0, 1]
    t += -std::log(u) / spec.arrival_rate;
    w.tasks.push_back({t, rng.uniform(spec.workload_lo, spec.workload_hi)});
  }
  w.machines.reserve(spec.machines);
  for (std::size_t m = 0; m < spec.machines; ++m) {
    w.machines.push_back({rng.uniform(spec.mips_lo, spec.mips_hi)});
  }
  return w;
}

double etc_noise(std::uint64_t seed, double inconsistency,
                 std::uint64_t task_uid, std::uint64_t machine_uid) {
  support::SplitMix64 hash(seed ^ (task_uid * 0x9e3779b97f4a7c15ULL) ^
                           (machine_uid * 0xc2b2ae3d27d4eb4fULL));
  const double unit =
      static_cast<double>(hash.next() >> 11) * 0x1.0p-53;  // [0,1)
  return 1.0 + inconsistency * unit;
}

etc::EtcMatrix make_workload_etc(const WorkloadSpec& spec) {
  const Workload w = generate_workload(spec);
  const std::size_t machines = w.machines.size();
  std::vector<double> data(w.tasks.size() * machines);
  for (std::size_t t = 0; t < w.tasks.size(); ++t) {
    for (std::size_t m = 0; m < machines; ++m) {
      data[t * machines + m] = w.tasks[t].workload / w.machines[m].mips *
                               etc_noise(spec.seed, spec.inconsistency, t, m);
    }
  }
  return etc::EtcMatrix(w.tasks.size(), machines, std::move(data));
}

}  // namespace pacga::batch
