#include "dynamic/repair.hpp"

#include <limits>
#include <stdexcept>

#include "support/algo.hpp"
#include "support/kernels.hpp"

namespace pacga::dynamic {

namespace {

constexpr sched::MachineId kUnassigned =
    std::numeric_limits<sched::MachineId>::max();

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("ScheduleRepairer: ") + what);
}

}  // namespace

RepairStats ScheduleRepairer::repair(const EtcMutator::Outcome& outcome,
                                     const etc::EtcMatrix& etc,
                                     sched::Schedule& schedule) {
  RepairStats stats;
  stats.kind = outcome.kind;
  stats.shape_changed = outcome.shape_changed;

  // Work on scratch copies of the pre-event state; the schedule is only
  // overwritten once the repair is complete, so a thrown validation
  // leaves it untouched.
  const auto old_assignment = schedule.assignment();
  const auto old_completion = schedule.completions();
  assignment_.assign(old_assignment.begin(), old_assignment.end());
  completion_.assign(old_completion.begin(), old_completion.end());
  orphans_.clear();

  switch (outcome.kind) {
    case EventKind::kMachineSlowdown: {
      require(assignment_.size() == etc.tasks() &&
                  completion_.size() == etc.machines(),
              "slowdown repair: shape mismatch");
      require(outcome.machine < completion_.size(),
              "slowdown repair: machine out of range");
      // The machine's load (completion minus ready) scaled with its ETCs;
      // one multiply keeps the cache consistent with the scaled column.
      const double ready = etc.ready(outcome.machine);
      completion_[outcome.machine] =
          ready + outcome.factor * (completion_[outcome.machine] - ready);
      break;
    }
    case EventKind::kMachineDown: {
      require(assignment_.size() == etc.tasks() &&
                  completion_.size() == etc.machines() + 1,
              "down repair: shape mismatch");
      require(outcome.machine < completion_.size(),
              "down repair: machine out of range");
      const auto down = static_cast<sched::MachineId>(outcome.machine);
      for (std::size_t t = 0; t < assignment_.size(); ++t) {
        if (assignment_[t] == down) {
          assignment_[t] = kUnassigned;  // orphaned: machine is gone
          orphans_.push_back(t);
        } else if (assignment_[t] > down) {
          --assignment_[t];  // dense matrices: indices above shift down
        }
      }
      completion_.erase(completion_.begin() +
                        static_cast<std::ptrdiff_t>(outcome.machine));
      break;
    }
    case EventKind::kMachineUp: {
      require(assignment_.size() == etc.tasks() &&
                  completion_.size() + 1 == etc.machines(),
              "up repair: shape mismatch");
      // The newcomer starts empty; re-optimization (not repair) decides
      // what migrates onto it.
      completion_.push_back(etc.ready(etc.machines() - 1));
      break;
    }
    case EventKind::kTaskArrival: {
      require(assignment_.size() + 1 == etc.tasks() &&
                  completion_.size() == etc.machines(),
              "arrival repair: shape mismatch");
      assignment_.push_back(kUnassigned);
      orphans_.push_back(assignment_.size() - 1);
      break;
    }
    case EventKind::kTaskCancel: {
      require(assignment_.size() == etc.tasks() + 1 &&
                  completion_.size() == etc.machines(),
              "cancel repair: shape mismatch");
      require(outcome.task < assignment_.size(),
              "cancel repair: task out of range");
      require(outcome.removed_task_etc.size() == completion_.size(),
              "cancel repair: removed-row size mismatch");
      const sched::MachineId m = assignment_[outcome.task];
      // Exact decrement: the row was copied from the pre-event matrix,
      // the same values the completion sum accumulated.
      completion_[m] -= outcome.removed_task_etc[m];
      assignment_.erase(assignment_.begin() +
                        static_cast<std::ptrdiff_t>(outcome.task));
      break;
    }
    case EventKind::kEpochCommit:
      // Commits carry a CommitOutcome, not an Outcome — see commit().
      require(false, "commit outcomes go through commit()");
      break;
  }

  stats.orphaned = orphans_.size();
  reassign_orphans(etc);
  stats.reassigned = stats.orphaned;

  schedule.adopt_with_completions(etc, assignment_, completion_);
  return stats;
}

RepairStats ScheduleRepairer::commit(const EtcMutator::CommitOutcome& outcome,
                                     const etc::EtcMatrix& etc,
                                     sched::Schedule& schedule) {
  RepairStats stats;
  stats.kind = EventKind::kEpochCommit;
  stats.committed = outcome.removed_tasks.size();
  stats.shape_changed = !outcome.removed_tasks.empty();

  const std::size_t removed = outcome.removed_tasks.size();
  require(schedule.tasks() == etc.tasks() + removed,
          "commit: task count mismatch");
  require(schedule.machines() == etc.machines() &&
              outcome.old_ready.size() == etc.machines(),
          "commit: machine count mismatch");
  require(outcome.removed_etc.size() == removed,
          "commit: removed-etc size mismatch");

  const auto old_assignment = schedule.assignment();
  const auto old_completion = schedule.completions();
  assignment_.assign(old_assignment.begin(), old_assignment.end());
  completion_.assign(old_completion.begin(), old_completion.end());

  // Re-base every machine's completion from its old ready time onto the
  // post-commit one, then subtract the exact ETC each committed task was
  // contributing (copied from the pre-commit matrix). O(machines +
  // removed); no task moves, so the CT cache stays incremental.
  for (std::size_t m = 0; m < completion_.size(); ++m) {
    completion_[m] += etc.ready(m) - outcome.old_ready[m];
  }
  for (std::size_t i = 0; i < removed; ++i) {
    const std::size_t t = outcome.removed_tasks[i];
    require(t < assignment_.size(), "commit: removed task out of range");
    completion_[assignment_[t]] -= outcome.removed_etc[i];
  }
  support::erase_sorted_indices(assignment_, outcome.removed_tasks);

  schedule.adopt_with_completions(etc, assignment_, completion_);
  return stats;
}

void ScheduleRepairer::reassign_orphans(const etc::EtcMatrix& etc) {
  // The constructive heuristics, restricted to the orphan set against the
  // CURRENT machine loads, in the cached-best-machine form: every orphan
  // caches its fused-scan result and is rescanned only when the machine
  // that just took load holds one of its cached slots (loads are monotone
  // increasing, so every other cache entry is provably still exact). Ties
  // break toward the lower orphan position and lower machine index
  // (strict comparisons, in-order/kernel scans), so the repair remains a
  // pure function of its inputs — the golden tests depend on that, and
  // test_dynamic pins this loop pick-for-pick against the naive
  // exhaustive-rescan reference. (One of three sites sharing the
  // monotone-load exactness invariant — see min_max_min_fast in
  // heuristics/minmin.cpp.)
  const std::size_t machines = etc.machines();
  const std::size_t n = orphans_.size();
  key_.resize(n);
  best_m_.resize(n);
  second_m_.resize(n);

  const auto rescan = [&](std::size_t i) {
    const double* row = etc.of_task(orphans_[i]).data();
    const auto b = support::kernels::min_completion_index(completion_.data(),
                                                          row, machines);
    best_m_[i] = static_cast<std::uint32_t>(b.index);
    if (policy_ == RepairPolicy::kMinMin) {
      key_[i] = b.value;
      second_m_[i] = static_cast<std::uint32_t>(b.index);
    } else if (machines > 1) {
      const auto s = support::kernels::min_completion_index_skip(
          completion_.data(), row, machines, b.index);
      // One machine: no second choice, sufferage degenerates to 0 and the
      // first orphan in order wins (handled by the else branch below).
      key_[i] = s.value - b.value;
      second_m_[i] = static_cast<std::uint32_t>(s.index);
    } else {
      key_[i] = 0.0;
      second_m_[i] = 0;
    }
  };
  for (std::size_t i = 0; i < n; ++i) rescan(i);

  while (!orphans_.empty()) {
    // Min-min: smallest insertion completion wins; Sufferage: largest
    // penalty wins. Both tie-break to the first orphan in order, matching
    // the former exhaustive rescan loop pick for pick.
    const std::size_t count = orphans_.size();
    const std::size_t pick_pos =
        policy_ == RepairPolicy::kMinMin
            ? support::kernels::argmin(key_.data(), count)
            : support::kernels::argmax(key_.data(), count);
    const std::size_t task = orphans_[pick_pos];
    const auto pick_machine = static_cast<sched::MachineId>(best_m_[pick_pos]);
    assignment_[task] = pick_machine;
    completion_[pick_machine] += etc(task, pick_machine);

    const auto erase_at = [&](auto& v) {
      v.erase(v.begin() + static_cast<std::ptrdiff_t>(pick_pos));
    };
    erase_at(orphans_);
    erase_at(key_);
    erase_at(best_m_);
    erase_at(second_m_);

    for (std::size_t i = 0; i < orphans_.size(); ++i) {
      // second_m_ is only meaningful under kSufferage (kMinMin's rescan
      // fills it with best_m_ as a placeholder — never read it there).
      const bool second_hit = policy_ == RepairPolicy::kSufferage &&
                              second_m_[i] == pick_machine;
      if (best_m_[i] == pick_machine || second_hit) rescan(i);
    }
  }
}

}  // namespace pacga::dynamic
