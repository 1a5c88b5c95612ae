// ScheduleRepairer — warm schedule repair after a grid event.
//
// Re-solving from scratch after every event throws away almost everything
// the solver knew: one machine drop orphans only the tasks that sat on
// it, a task arrival adds exactly one decision. The repairer therefore
// patches the EXISTING schedule:
//
//   1. remap the assignment across the index shift the event caused
//      (EtcMutator::Outcome knows it);
//   2. patch the completion-time cache incrementally — O(1) per machine
//      touched, never a full O(tasks) rebuild (slowdown scales one entry,
//      cancel subtracts one ETC, down drops one machine's entry, up
//      appends a zero);
//   3. reassign ONLY the orphaned/new tasks, inserting each onto the
//      machine minimizing its completion time, in Min-min order (cheapest
//      insertion first) or Sufferage order (most-penalized-if-denied
//      first) — the same constructive logic that seeds the GA, restricted
//      to the orphan set, with the same cached-best-machine + invalidation
//      rewrite the heuristics run (loads only grow, so a cached best stays
//      exact until its machine takes load): ~O(|orphans| * machines +
//      |orphans|^2 + machines * rescans), scans SIMD-dispatched;
//   4. hand assignment + cache to Schedule::adopt_with_completions (no
//      recompute; debug builds cross-validate).
//
// The repaired schedule is a feasible, good solution in microseconds; the
// service then re-optimizes it as the CGA warm start under whatever
// deadline remains (SchedulerService::submit_reschedule).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dynamic/mutator.hpp"
#include "sched/schedule.hpp"

namespace pacga::dynamic {

/// Which constructive order reassigns the orphan set.
enum class RepairPolicy {
  kMinMin,     ///< cheapest (task, machine) completion first
  kSufferage,  ///< largest best-vs-second-best penalty first
};

struct RepairStats {
  EventKind kind = EventKind::kTaskArrival;
  std::size_t orphaned = 0;    ///< tasks that lost (or never had) a machine
  std::size_t reassigned = 0;  ///< orphans placed (== orphaned on success)
  std::size_t committed = 0;   ///< kEpochCommit: tasks that left the batch
  bool shape_changed = false;
};

/// Stateless policy plus reusable scratch; one repairer per dynamic
/// session (NOT thread-safe, same discipline as WarmSolver).
class ScheduleRepairer {
 public:
  explicit ScheduleRepairer(RepairPolicy policy = RepairPolicy::kMinMin)
      : policy_(policy) {}

  RepairPolicy policy() const noexcept { return policy_; }

  /// Patches `schedule` — currently a valid schedule of the PRE-event
  /// instance — into a valid schedule of `etc` (the post-event instance,
  /// i.e. mutator.etc() after the apply that produced `outcome`).
  /// `schedule`'s completion-time cache is maintained incrementally, not
  /// recomputed. Throws std::invalid_argument when `schedule`'s shape is
  /// inconsistent with what `outcome` says the pre-event shape was.
  RepairStats repair(const EtcMutator::Outcome& outcome,
                     const etc::EtcMatrix& etc, sched::Schedule& schedule);

  /// Epoch-commit counterpart of repair(): patches `schedule` (valid for
  /// the pre-commit instance) into a valid schedule of the post-commit
  /// `etc` — committed tasks drop out of the assignment, and every
  /// machine's completion is re-based from its old ready time onto its
  /// new one (commits never orphan anything, so this is pure O(machines +
  /// |removed|) cache patching, no reassignment). Throws
  /// std::invalid_argument on shape inconsistencies, leaving `schedule`
  /// untouched.
  RepairStats commit(const EtcMutator::CommitOutcome& outcome,
                     const etc::EtcMatrix& etc, sched::Schedule& schedule);

 private:
  void reassign_orphans(const etc::EtcMatrix& etc);

  RepairPolicy policy_;
  // Scratch reused across repairs (grows to the high-water shape).
  std::vector<sched::MachineId> assignment_;
  std::vector<double> completion_;
  std::vector<std::size_t> orphans_;
  // Per-orphan cached scan results (parallel to orphans_).
  std::vector<double> key_;  // best completion (Min-min) / sufferage
  std::vector<std::uint32_t> best_m_;
  std::vector<std::uint32_t> second_m_;
};

}  // namespace pacga::dynamic
