// Solution representation (paper §3.3, Figure 3):
//   * S  — assignment array, S[t] = machine of task t;
//   * CT — cached completion time per machine, maintained INCREMENTALLY by
//          every operator (add/remove one ETC entry), so evaluate() is just
//          a max-scan over machines instead of an O(tasks) rebuild.
//
// The cache is the core performance idea of the representation; tests
// cross-check it against full recomputation after every operator
// (Schedule::validate()).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "etc/etc_matrix.hpp"
#include "support/rng.hpp"

namespace pacga::sched {

using MachineId = std::uint16_t;
using TaskId = std::uint32_t;

/// A complete assignment of every task to one machine, with cached
/// per-machine completion times. Copyable (copies are how GA individuals
/// breed); the referenced ETC matrix must outlive all schedules.
class Schedule {
 public:
  /// Builds from an explicit assignment; computes CT in O(tasks).
  Schedule(const etc::EtcMatrix& etc, std::vector<MachineId> assignment);

  /// All tasks on machine 0 (useful as a degenerate baseline in tests).
  explicit Schedule(const etc::EtcMatrix& etc);

  /// Uniformly random assignment.
  static Schedule random(const etc::EtcMatrix& etc, support::Xoshiro256& rng);

  /// Becomes a copy of `src` without releasing storage: both vectors are
  /// overwritten in place, so when this schedule already has the capacity
  /// (same instance shape — the steady state of every engine) the call
  /// performs zero heap allocations. The completion-time cache is taken
  /// from `src` wholesale, which is exactly the incremental discipline:
  /// the cache travels with the assignment instead of being rebuilt.
  /// Debug builds assert the shapes match (the zero-allocation contract
  /// every engine relies on); release builds trust the caller.
  void assign_from(const Schedule& src);

  /// assign_from for schedules that another thread may access at the same
  /// time, one std::atomic_ref access per word (support::load_acquire /
  /// store_release), same shape and instance required, zero allocations.
  /// release_store_from overwrites this schedule from the private `src`;
  /// acquire_load_from copies the shared `src` into this private one.
  /// They do not keep a copy consistent by themselves: cga::Population's
  /// per-cell sequence counter brackets them (see population.hpp).
  void release_store_from(const Schedule& src) noexcept;
  void acquire_load_from(const Schedule& src) noexcept;

  /// Rebinds to `etc` (which must have this schedule's tasks x machines
  /// shape) and overwrites the assignment with a fresh uniformly random
  /// one, in place — zero heap allocations. This is how the service's warm
  /// solver arenas recycle population storage across jobs of the same
  /// shape. Throws std::invalid_argument on a shape mismatch.
  void randomize_from(const etc::EtcMatrix& etc, support::Xoshiro256& rng);

  /// Rebinds to `etc` (same shape required) and adopts `assignment`
  /// verbatim, recomputing the completion-time cache — in place, zero
  /// allocations. Used to replay cached solutions and seed schedules into
  /// recycled storage. Throws std::invalid_argument on shape or machine-id
  /// range violations.
  void adopt(const etc::EtcMatrix& etc, std::span<const MachineId> assignment);

  /// Rebinds to `etc` (possibly a DIFFERENT shape — storage is resized),
  /// adopting `assignment` AND the caller-maintained completion-time cache
  /// verbatim, with no O(tasks) recompute. This is the dynamic repairer's
  /// handoff: it patches the cache incrementally across grid events and
  /// hands both halves over together. The cache is trusted in release
  /// builds and assert-validated (full recomputation) in debug builds.
  /// Throws std::invalid_argument on size/machine-id range violations.
  void adopt_with_completions(const etc::EtcMatrix& etc,
                              std::span<const MachineId> assignment,
                              std::span<const double> completion);

  std::size_t tasks() const noexcept { return assignment_.size(); }
  std::size_t machines() const noexcept { return completion_.size(); }
  const etc::EtcMatrix& etc() const noexcept { return *etc_; }

  MachineId machine_of(std::size_t t) const noexcept { return assignment_[t]; }
  std::span<const MachineId> assignment() const noexcept { return assignment_; }

  /// Completion time of machine m (ready time + assigned ETCs).
  double completion(std::size_t m) const noexcept { return completion_[m]; }
  std::span<const double> completions() const noexcept { return completion_; }

  /// Moves task t to machine m; O(1) completion-time update. No-op when t
  /// is already on m.
  void move_task(std::size_t t, MachineId m) noexcept;

  /// Reassigns the whole task range [begin, end) from `source`'s assignment
  /// — the incremental form of crossover segment copy. A difference-mask
  /// kernel (kernels::ne_mask_u16) finds the genes where the two differ,
  /// and only those are moved, in ascending order: exactly the moves, and
  /// the completion arithmetic, of move_task over every gene of the range,
  /// since move_task on an equal gene is a no-op. O(end - begin) compares
  /// plus O(1) per differing gene.
  void copy_segment(const Schedule& source, std::size_t begin, std::size_t end) noexcept;

  /// Lends `f(MachineId* genes, double* completions)` the assignment and
  /// completion arrays for one in-place edit, which must leave them as a
  /// sequence of move_task calls would (kernels::h2ll is the one user).
  template <class F>
  void edit_arrays(F&& f) {
    f(assignment_.data(), completion_.data());
  }

  /// Makespan: max completion time (paper eq. (3)). One SIMD-dispatched
  /// max-scan of the cache (support::kernels) — this IS the paper's
  /// evaluate().
  double makespan() const noexcept;

  /// Index of the most loaded machine (lowest index on ties — pinned,
  /// dispatch-independent).
  std::size_t argmax_machine() const noexcept;

  /// Flowtime: sum of task finishing times assuming each machine runs its
  /// tasks shortest-first (the order minimizing flowtime; the convention of
  /// Xhafa et al.). O(tasks log tasks); allocation-free in the steady
  /// state (thread-local counting-sort scratch).
  double flowtime() const;

  /// Number of tasks currently assigned to machine m. O(tasks).
  std::size_t tasks_on(MachineId m) const noexcept;

  /// Recomputes the completion-time cache from scratch. O(tasks).
  void recompute() noexcept;

  /// True when the cached completion times match a from-scratch
  /// recomputation within `tol` (relative to magnitude). Test/debug hook.
  bool validate(double tol = 1e-6) const noexcept;

  bool operator==(const Schedule& other) const noexcept {
    return assignment_ == other.assignment_;
  }

  /// Hamming distance between assignments (used by struggle replacement):
  /// the popcount of the same difference mask copy_segment walks.
  std::size_t hamming_distance(const Schedule& other) const noexcept;

 private:
  const etc::EtcMatrix* etc_;
  std::vector<MachineId> assignment_;
  std::vector<double> completion_;
};

}  // namespace pacga::sched
