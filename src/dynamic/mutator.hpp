// EtcMutator — applies grid events to a live ETC matrix.
//
// The mutator owns both the generative model (per-task workloads in MI,
// per-machine capacities in mips plus an accumulated slowdown factor —
// the §2.1 quantities, same formula as batch::make_workload_etc) and the
// materialized EtcMatrix the solvers consume:
//
//     ETC[t][m] = workload_t * slow_m / mips_m * noise(task_uid, machine_uid)
//
// with the deterministic per-(task, machine) hash noise of
// batch::etc_noise, so a task keeps its execution profile across
// arbitrary churn.
//
// Ready times: each machine additionally carries a ready time (when it can
// take new work — the §2.1 ready_m), materialized into the EtcMatrix so
// every downstream consumer (repair, heuristics, CGA completion seeding)
// accounts for work already underway. Ready times enter through machines
// that return still draining (GridEvent::ready on kMachineUp) and through
// commit_epoch(), which feeds an epoch's completed/in-flight assignments
// back into the model.
//
// Cost model: MachineSlowdown is the only shape-preserving event and is
// applied IN PLACE (EtcMatrix::scale_machine — no reallocation). The four
// shape-changing events (down/up/arrival/cancel) rebuild the matrix from
// the model, so reallocation happens exactly when the task or machine
// count changes — never on the steady slowdown/recovery stream.
//
// Every apply() returns an Outcome describing the index shift it caused;
// dynamic::ScheduleRepairer consumes it to patch an existing schedule
// instead of re-solving from scratch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "batch/workload.hpp"
#include "dynamic/events.hpp"
#include "etc/etc_matrix.hpp"
#include "sched/schedule.hpp"

namespace pacga::dynamic {

class EtcMutator {
 public:
  /// Grid invariants the mutator enforces (throwing std::domain_error
  /// rather than materializing an unsolvable or overflowing instance).
  static constexpr std::size_t kMinMachines = 1;
  static constexpr std::size_t kMinTasks = 1;
  /// Accumulated slowdown clamp — PART OF THE API CONTRACT, not an
  /// internal detail: a machine's accumulated slowdown factor is clamped
  /// to [1/kMaxSlowdown, kMaxSlowdown] = [1/64, 64] (|log2(slow)| <= 6),
  /// so ETC entries stay finite under arbitrarily long slowdown streams.
  /// A kMachineSlowdown event whose factor would push the accumulated
  /// value past either edge is PARTIALLY applied: Outcome::factor reports
  /// the factor actually realized (exactly 1.0 once a machine sits pinned
  /// at an edge and the event pushes further outward), and model and
  /// matrix stay in lockstep at the clamped value. Recovery events
  /// (factor < 1) move a pinned machine back off the edge normally.
  /// test_dynamic pins this behavior at both edges.
  static constexpr double kMaxSlowdown = 64.0;

  /// Adopts a generated workload as the initial grid (all tasks one
  /// batch, idle machines — the make_workload_etc regime). Deterministic
  /// in spec.seed. Validates the spec.
  explicit EtcMutator(const batch::WorkloadSpec& spec);

  /// What one event did to the instance; everything the schedule
  /// repairer needs to remap an assignment built on the PRE-event shape.
  struct Outcome {
    EventKind kind = EventKind::kTaskArrival;
    bool shape_changed = false;
    /// kMachineDown: removed index (pre-shift; indices above it moved
    /// down by one). kMachineUp: the new machine's index (= machines-1).
    /// kMachineSlowdown: the scaled machine.
    std::size_t machine = SIZE_MAX;
    /// kTaskCancel: removed index (pre-shift). kTaskArrival: the new
    /// task's index (= tasks-1).
    std::size_t task = SIZE_MAX;
    /// kMachineSlowdown: the factor actually applied (after the
    /// accumulated-slowdown clamp; 1.0 when the clamp swallowed it).
    double factor = 1.0;
    /// kTaskCancel: the cancelled task's ETC row (one entry per
    /// PRE-event machine), copied from the matrix before the rebuild so
    /// the repairer can decrement its machine's completion time exactly.
    std::vector<double> removed_task_etc;
  };

  /// Applies one event. Throws std::invalid_argument on out-of-range
  /// indices / non-positive parameters and std::domain_error on events
  /// that would violate a grid invariant (down to zero machines, cancel
  /// of the last task). The instance is unchanged on throw. kEpochCommit
  /// events cannot be applied here (they need the current assignment) —
  /// use commit_epoch(), or RescheduleSession::apply which routes them.
  Outcome apply(const GridEvent& e);

  /// What one epoch commit did to the instance. Everything the repairer
  /// needs to patch a schedule of the pre-commit shape: which tasks left
  /// the batch, the exact ETC each contributed to its machine, and the
  /// per-machine ready times on both sides of the boundary.
  struct CommitOutcome {
    std::size_t completed = 0;  ///< removed tasks that finished in the window
    std::size_t in_flight = 0;  ///< removed tasks still running at the edge
    /// Removed (committed) tasks, ascending PRE-commit indices.
    std::vector<std::size_t> removed_tasks;
    /// Parallel to removed_tasks: etc(t, machine_of(t)) copied from the
    /// pre-commit matrix, so the repairer's completion decrement is exact.
    std::vector<double> removed_etc;
    /// Pre-commit ready time of every machine (the matrix now holds the
    /// post-commit values).
    std::vector<double> old_ready;
  };

  /// Epoch boundary: `elapsed` time units pass while the grid executes
  /// `assignment` (one machine id per current task; each machine runs its
  /// tasks in ascending task order after draining its ready time). Tasks
  /// that STARTED inside the window are committed — completed ones and
  /// the in-flight remainder leave the batch, and each machine's new
  /// ready time is whatever committed work is still running at the
  /// boundary (non-preemptive, so an in-flight task is no longer
  /// reschedulable). Unstarted tasks stay in the batch. Throws
  /// std::invalid_argument on a malformed assignment / non-positive
  /// elapsed and std::domain_error when the commit would empty the batch
  /// (kMinTasks); the instance is unchanged on throw.
  CommitOutcome commit_epoch(std::span<const sched::MachineId> assignment,
                             double elapsed);

  /// The live instance. The reference is stable across apply() calls
  /// (the matrix object is reassigned in place), but its CONTENT and
  /// shape change with every event — snapshot() for anything that must
  /// outlive the next apply (e.g. a service job).
  const etc::EtcMatrix& etc() const noexcept { return etc_; }

  /// Deep copy of the current instance.
  etc::EtcMatrix snapshot() const { return etc_; }

  /// From-scratch materialization from the model — the property tests
  /// cross-check it against the incrementally maintained matrix.
  etc::EtcMatrix rebuild() const { return materialize(); }

  std::size_t tasks() const noexcept { return tasks_.size(); }
  std::size_t machines() const noexcept { return machines_.size(); }
  std::uint64_t events_applied() const noexcept { return events_applied_; }

 private:
  struct DynTask {
    std::uint64_t uid = 0;  ///< stable identity for the noise hash
    double workload = 0.0;
  };
  struct DynMachine {
    std::uint64_t uid = 0;
    double mips = 0.0;
    double slow = 1.0;   ///< accumulated slowdown (1 = nominal speed)
    double ready = 0.0;  ///< time until the machine can take new work
  };

  EtcMutator(const batch::WorkloadSpec& spec, const batch::Workload& w);

  double entry(const DynTask& t, const DynMachine& m) const;
  etc::EtcMatrix materialize() const;

  std::vector<DynTask> tasks_;
  std::vector<DynMachine> machines_;
  double inconsistency_;
  std::uint64_t noise_seed_;
  std::uint64_t next_task_uid_;
  std::uint64_t next_machine_uid_;
  std::uint64_t events_applied_ = 0;
  etc::EtcMatrix etc_;
};

}  // namespace pacga::dynamic
