#include "dynamic/mutator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/algo.hpp"

namespace pacga::dynamic {

namespace {

void require_positive_finite(double v, const char* what) {
  if (!(v > 0.0) || !std::isfinite(v))
    throw std::invalid_argument(std::string("EtcMutator: ") + what +
                                " must be positive finite");
}

}  // namespace

EtcMutator::EtcMutator(const batch::WorkloadSpec& spec)
    : EtcMutator(spec, batch::generate_workload(spec)) {}

EtcMutator::EtcMutator(const batch::WorkloadSpec& spec,
                       const batch::Workload& w)
    : tasks_([&] {
        std::vector<DynTask> tasks;
        tasks.reserve(w.tasks.size());
        for (std::size_t i = 0; i < w.tasks.size(); ++i) {
          tasks.push_back({i, w.tasks[i].workload});
        }
        return tasks;
      }()),
      machines_([&] {
        std::vector<DynMachine> machines;
        machines.reserve(w.machines.size());
        for (std::size_t m = 0; m < w.machines.size(); ++m) {
          machines.push_back({m, w.machines[m].mips, 1.0});
        }
        return machines;
      }()),
      inconsistency_(spec.inconsistency),
      noise_seed_(spec.seed),
      next_task_uid_(spec.tasks),
      next_machine_uid_(spec.machines),
      // Initial uids equal initial indices and every slowdown is 1.0, so
      // the starting matrix is bit-identical to batch::make_workload_etc(
      // spec) — a dynamic session warm-starts from exactly the instance
      // the static service path would have solved.
      etc_(materialize()) {}

double EtcMutator::entry(const DynTask& t, const DynMachine& m) const {
  // The noise of batch::make_workload_etc, keyed on STABLE uids: a task's
  // execution profile survives any amount of churn around it.
  return t.workload * m.slow / m.mips *
         batch::etc_noise(noise_seed_, inconsistency_, t.uid, m.uid);
}

etc::EtcMatrix EtcMutator::materialize() const {
  std::vector<double> data(tasks_.size() * machines_.size());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      data[t * machines_.size() + m] = entry(tasks_[t], machines_[m]);
    }
  }
  std::vector<double> ready(machines_.size());
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    ready[m] = machines_[m].ready;
  }
  return etc::EtcMatrix(tasks_.size(), machines_.size(), std::move(data),
                        std::move(ready));
}

EtcMutator::Outcome EtcMutator::apply(const GridEvent& e) {
  Outcome out;
  out.kind = e.kind;
  switch (e.kind) {
    case EventKind::kMachineSlowdown: {
      if (e.machine >= machines_.size())
        throw std::invalid_argument("EtcMutator: slowdown machine out of range");
      require_positive_finite(e.factor, "slowdown factor");
      DynMachine& m = machines_[e.machine];
      // Clamp the ACCUMULATED slowdown, then apply whatever factor
      // realizes the clamped value — model and matrix stay in lockstep
      // and entries stay finite under arbitrarily long event streams.
      const double target =
          std::clamp(m.slow * e.factor, 1.0 / kMaxSlowdown, kMaxSlowdown);
      const double applied = target / m.slow;
      etc_.scale_machine(e.machine, applied);  // in place, no reallocation
      m.slow = target;
      out.machine = e.machine;
      out.factor = applied;
      break;
    }
    case EventKind::kMachineDown: {
      if (e.machine >= machines_.size())
        throw std::invalid_argument("EtcMutator: down machine out of range");
      if (machines_.size() <= kMinMachines)
        throw std::domain_error("EtcMutator: cannot drop the last machine");
      machines_.erase(machines_.begin() +
                      static_cast<std::ptrdiff_t>(e.machine));
      etc_ = materialize();
      out.shape_changed = true;
      out.machine = e.machine;
      break;
    }
    case EventKind::kMachineUp: {
      require_positive_finite(e.value, "joining machine mips");
      if (!(e.ready >= 0.0) || !std::isfinite(e.ready))
        throw std::invalid_argument(
            "EtcMutator: joining machine ready time must be >= 0 and finite");
      machines_.push_back({next_machine_uid_++, e.value, 1.0, e.ready});
      etc_ = materialize();
      out.shape_changed = true;
      out.machine = machines_.size() - 1;
      break;
    }
    case EventKind::kTaskArrival: {
      require_positive_finite(e.value, "arriving task workload");
      tasks_.push_back({next_task_uid_++, e.value});
      etc_ = materialize();
      out.shape_changed = true;
      out.task = tasks_.size() - 1;
      break;
    }
    case EventKind::kTaskCancel: {
      if (e.task >= tasks_.size())
        throw std::invalid_argument("EtcMutator: cancel task out of range");
      if (tasks_.size() <= kMinTasks)
        throw std::domain_error("EtcMutator: cannot cancel the last task");
      // Copy the row from the MATRIX (not the model): the repairer
      // subtracts these from completion times that were accumulated from
      // matrix entries, so the decrement must be exact.
      const auto row = etc_.of_task(e.task);
      out.removed_task_etc.assign(row.begin(), row.end());
      tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(e.task));
      etc_ = materialize();
      out.shape_changed = true;
      out.task = e.task;
      break;
    }
    case EventKind::kEpochCommit:
      // A commit depends on the schedule being executed, which the mutator
      // does not know. RescheduleSession::apply routes commit events to
      // commit_epoch() with its current assignment.
      throw std::invalid_argument(
          "EtcMutator: commit events need an assignment — use commit_epoch()");
  }
  ++events_applied_;
  return out;
}

EtcMutator::CommitOutcome EtcMutator::commit_epoch(
    std::span<const sched::MachineId> assignment, double elapsed) {
  require_positive_finite(elapsed, "commit elapsed");
  if (assignment.size() != tasks_.size())
    throw std::invalid_argument("EtcMutator: commit assignment size mismatch");
  for (const sched::MachineId m : assignment) {
    if (m >= machines_.size())
      throw std::invalid_argument(
          "EtcMutator: commit assignment machine out of range");
  }

  CommitOutcome out;
  out.old_ready.resize(machines_.size());
  std::vector<double> new_ready(machines_.size());

  // Per machine, replay its timeline for the window: it drains its ready
  // time first, then runs its assigned tasks in ascending task order (the
  // deterministic service order every consumer shares). A task whose start
  // lies strictly inside the window is committed; once one task fails to
  // start, every later task on that machine is unstarted too.
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    out.old_ready[m] = machines_[m].ready;
    new_ready[m] = std::max(0.0, machines_[m].ready - elapsed);
  }
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const sched::MachineId m = assignment[t];
    // old_ready is reused as the machine's running busy-through time while
    // scanning (restored below); committed work accumulates onto it.
    double& busy = out.old_ready[m];
    if (busy >= elapsed) continue;  // machine full for the window: unstarted
    const double cost = etc_(t, m);
    const double finish = busy + cost;
    out.removed_tasks.push_back(t);
    out.removed_etc.push_back(cost);
    if (finish <= elapsed) {
      ++out.completed;
    } else {
      ++out.in_flight;
    }
    busy = finish;
    new_ready[m] = std::max(0.0, finish - elapsed);
  }
  // Restore the pre-commit ready times the scan borrowed.
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    out.old_ready[m] = machines_[m].ready;
  }

  if (tasks_.size() - out.removed_tasks.size() < kMinTasks)
    throw std::domain_error("EtcMutator: commit would empty the batch");

  // Mutate: new ready times, committed tasks leave the model, rebuild.
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    machines_[m].ready = new_ready[m];
  }
  support::erase_sorted_indices(tasks_, out.removed_tasks);
  etc_ = materialize();
  ++events_applied_;
  return out;
}

}  // namespace pacga::dynamic
