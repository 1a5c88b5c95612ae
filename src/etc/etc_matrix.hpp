// Expected Time to Compute (ETC) matrix — the instance model of Braun et
// al. for independent task scheduling on heterogeneous machines.
//
// The matrix is stored twice. Task-major rows serve the hot path: the H2LL
// kernel streams a task's row over every machine, and every element read
// (operator(), so each move_task of crossover and mutation, the completion
// recompute, the seeds, repair and list scheduling) lands in that same
// row. Machine-major columns serve the per-machine summaries behind
// fingerprint, min_etc and max_etc, and scale_machine.
//
// The paper stores the transposed (machine-major) matrix for a reported
// 5-10 % gain, on the argument that successive tasks on one machine sit in
// consecutive memory. That argument does not fit this code's access
// pattern: no hot loop walks a machine's column. H2LL scans a task over
// all machines, and a move reads one task on two machines, so both read
// one 128-byte task row at 16 machines. bench_micro's layout ablation
// times both streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pacga::etc {

/// Dense tasks x machines matrix of expected execution times, plus machine
/// ready times. Effectively immutable: every algorithm shares one instance
/// by const reference across threads. The single mutation point,
/// scale_machine(), exists for the dynamic subsystem's in-place grid
/// events; the owner (dynamic::EtcMutator) must guarantee no solver reads
/// the matrix concurrently with a mutation.
class EtcMatrix {
 public:
  /// Builds from task-major data: `task_major[t * machines + m]` is the
  /// expected time of task t on machine m. `ready` may be empty (all zeros)
  /// or have one entry per machine.
  EtcMatrix(std::size_t tasks, std::size_t machines,
            std::vector<double> task_major, std::vector<double> ready = {});

  std::size_t tasks() const noexcept { return tasks_; }
  std::size_t machines() const noexcept { return machines_; }

  /// ETC of task t on machine m, read from the task-major row (the row
  /// H2LL streams). Same value as on_machine(m)[t].
  double operator()(std::size_t t, std::size_t m) const noexcept {
    return by_task_[t * machines_ + m];
  }

  /// Contiguous ETCs of all tasks on machine m (machine-major row).
  std::span<const double> on_machine(std::size_t m) const noexcept {
    return {by_machine_.data() + m * tasks_, tasks_};
  }

  /// Contiguous ETCs of task t on all machines (task-major row).
  std::span<const double> of_task(std::size_t t) const noexcept {
    return {by_task_.data() + t * machines_, machines_};
  }

  /// The whole task-major matrix: row t (task t's ETCs on every machine)
  /// starts at element t * machines(). Same values as operator().
  std::span<const double> task_major() const noexcept { return by_task_; }

  /// Ready time of machine m (when it finishes previously committed work).
  double ready(std::size_t m) const noexcept { return ready_[m]; }
  std::span<const double> ready_times() const noexcept { return ready_; }

  /// Smallest / largest ETC entry (the paper reports these as the Blazewicz
  /// p_j bounds per instance).
  double min_etc() const noexcept { return min_etc_; }
  double max_etc() const noexcept { return max_etc_; }

  /// Stable 64-bit content hash over (tasks, machines, every ETC entry,
  /// every ready time), computed once at construction. Two matrices with
  /// the same fingerprint hold bit-identical content for any practical
  /// purpose; the service's solution cache keys on it, and the dynamic
  /// tests use it to check an in-place mutation against a rebuild.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// Multiplies every ETC of machine `m` by `factor` IN PLACE (both
  /// layouts; no reallocation) and refreshes min/max and the fingerprint —
  /// the dynamic subsystem's MachineSlowdown event. The refresh is
  /// INCREMENTAL: summaries are kept per machine column, so only the scaled
  /// column is rehashed and rescanned — O(tasks + machines), not
  /// O(tasks * machines). The resulting entries must stay positive finite
  /// or std::invalid_argument is thrown before anything is modified. NOT
  /// thread-safe against concurrent readers.
  void scale_machine(std::size_t m, double factor);

 private:
  /// Recomputes every per-column summary and the combined fingerprint /
  /// min / max from scratch (construction only; mutations go through the
  /// incremental per-column path).
  void refresh_summary();

  /// Rehashes and rescans column m only (O(tasks)).
  void refresh_column(std::size_t m);

  /// Folds the per-column summaries into fingerprint_ / min_etc_ /
  /// max_etc_ (O(machines)).
  void combine_summary();

  std::size_t tasks_;
  std::size_t machines_;
  std::vector<double> by_task_;     // t * machines_ + m
  std::vector<double> by_machine_;  // m * tasks_ + t
  std::vector<double> ready_;
  std::vector<std::uint64_t> col_hash_;  // per-machine column content hash
  std::vector<double> col_min_;
  std::vector<double> col_max_;
  double min_etc_;
  double max_etc_;
  std::uint64_t fingerprint_;
};

}  // namespace pacga::etc
