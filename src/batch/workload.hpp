// Dynamic-grid workload model.
//
// The paper's problem statement (§2.1) is richer than a single static ETC
// matrix: tasks originate from users over time (parameter sweeps,
// Monte-Carlo campaigns), machines have ready times from earlier work, and
// resources join/drop dynamically. This module generates that scenario
// from first principles — task workloads in millions of instructions,
// machine capacities in mips (the quantities §2.1 lists) — and derives the
// ETC matrix the scheduler consumes:
//     ETC[t][m] = workload_t / mips_m * noise(t, m)
// with multiplicative noise controlling the consistency class (zero noise
// gives a perfectly consistent matrix; larger noise makes machines
// incomparable, i.e. inconsistent).
#pragma once

#include <cstdint>
#include <vector>

#include "etc/etc_matrix.hpp"

namespace pacga::batch {

/// One submitted task.
struct Task {
  double arrival = 0.0;   ///< submission time
  double workload = 0.0;  ///< millions of instructions
};

/// One grid resource.
struct Machine {
  double mips = 0.0;  ///< computing capacity
};

/// Workload generation parameters.
struct WorkloadSpec {
  std::size_t tasks = 1024;
  std::size_t machines = 16;
  /// Poisson arrival rate (tasks per unit of simulated time). Arrival
  /// times are the cumulative sum of Exp(rate) gaps.
  double arrival_rate = 10.0;
  /// Task workloads ~ U(workload_lo, workload_hi).
  double workload_lo = 1.0;
  double workload_hi = 3000.0;
  /// Machine capacities ~ U(mips_lo, mips_hi).
  double mips_lo = 1.0;
  double mips_hi = 10.0;
  /// Per-(task, machine) multiplicative noise: factor ~ U(1, 1 + w).
  /// 0 = consistent ETCs; >= ~1 produces inconsistent matrices.
  double inconsistency = 0.5;
  std::uint64_t seed = 1;
};

/// A generated scenario: tasks sorted by arrival plus the machine park.
struct Workload {
  std::vector<Task> tasks;
  std::vector<Machine> machines;
};

/// Throws std::invalid_argument naming the offending parameter when `spec`
/// is degenerate (zero tasks/machines, non-positive or non-finite rate,
/// inverted workload/mips ranges, negative inconsistency) — the guard that
/// keeps inf/NaN arrival times and ETC entries out of the service and the
/// dynamic session.
void validate(const WorkloadSpec& spec);

/// Generates a workload per `spec`. Deterministic in the seed. Validates
/// `spec` first.
Workload generate_workload(const WorkloadSpec& spec);

/// Builds the ETC matrix of the ENTIRE workload as one batch on idle
/// machines (zero ready times) — the instance behind the daemon's WORKLOAD
/// jobs and the starting matrix of a DYNAMIC session. Task and machine
/// uids are their indices. Deterministic in spec.seed.
etc::EtcMatrix make_workload_etc(const WorkloadSpec& spec);

/// The multiplicative noise factor in [1, 1 + inconsistency) of one
/// (task, machine) pair: a deterministic hash of (seed, task uid, machine
/// uid). Keyed on stable uids, so a task keeps its execution profile on
/// every machine through any churn around it (dynamic::EtcMutator).
double etc_noise(std::uint64_t seed, double inconsistency,
                 std::uint64_t task_uid, std::uint64_t machine_uid);

}  // namespace pacga::batch
