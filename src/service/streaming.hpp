// StreamingSession — epoch-batched arrivals served through the scheduler
// service, each epoch warm-seeded with the previous epoch's tail.
//
// Solving every epoch of an arrival trace as an independent cold solve
// (spec.warm = false below) throws away what the last epoch learned. The
// broker the paper targets (§2.1) does better: between two epoch
// boundaries only a little changes — some tasks started (they are
// committed, their remainders become machine ready times), some new ones
// arrived — so the previous epoch's assignment is a near-feasible answer
// for the next batch. A StreamingSession runs that regime end to end:
//
//   per epoch:  gather arrivals  ->  batch ETC with the machines' CURRENT
//               ready times (make_batch_etc)  ->  warm start = previous
//               epoch's assignment for carried tasks + ready-time-aware
//               MCT completion for the gaps (sched::warm_seed)  ->
//               SchedulerService::submit_reschedule (never worse than the
//               seed)  ->  commit what starts inside the epoch, carry the
//               tail.
//
// The cold arm of the comparison (spec.warm = false) submits the same
// batches as independent uncached solves — bench_streaming measures what
// the warm seeding buys in makespan-at-equal-deadline and wall-clock.
//
// Single-threaded driver discipline like RescheduleSession: the session
// advances epoch by epoch from one thread; the solves themselves run on
// the service's workers. Deterministic given spec.max_generations (the
// same knob every service determinism test uses).
#pragma once

#include <cstdint>
#include <vector>

#include "batch/workload.hpp"
#include "sched/schedule.hpp"
#include "service/job.hpp"

namespace pacga::service {

class SchedulerService;

struct StreamingSpec {
  /// Arrival-timed scenario (tasks sorted by arrival; the batch module's
  /// hash noise keeps every task's execution profile stable across
  /// epochs). Validated on construction.
  batch::WorkloadSpec workload;
  double epoch_length = 1.0;
  int priority = 0;
  /// Per-epoch solve deadline handed to the service.
  double deadline_ms = 50.0;
  /// Base solve seed; epoch e solves with seed + e.
  std::uint64_t seed = 1;
  /// Per-epoch generation cap (0 = deadline-driven). Set it to make the
  /// whole stream a pure function of the spec — the replay/golden knob.
  std::uint64_t max_generations = 0;
  /// Solve policy for every epoch job (kAuto escalates by budget/size;
  /// the determinism tests pin kCga).
  SolvePolicy policy = SolvePolicy::kAuto;
  /// Safety valve against runaway epoch loops (0 = no limit).
  std::size_t max_epochs = 100000;
  /// true: warm-seed each epoch from the previous epoch's tail via
  /// submit_reschedule. false: independent cold solve per epoch (the
  /// baseline arm).
  bool warm = true;
};

/// What one epoch did.
struct EpochReport {
  std::size_t epoch = 0;
  double now = 0.0;
  std::size_t batch_tasks = 0;  ///< batch size handed to the solver
  std::size_t carried = 0;      ///< tail tasks carried from earlier epochs
  std::size_t arrivals = 0;     ///< tasks that arrived this epoch
  std::size_t committed = 0;    ///< tasks whose start fell inside the epoch
  bool solved = false;          ///< false for empty epochs (nothing pending)
  bool warm_started = false;    ///< the service solve took the warm seed
  double batch_makespan = 0.0;  ///< solver makespan for this epoch's batch
  double solve_seconds = 0.0;
  /// Pool worker that served the epoch solve (-1 for unsolved epochs). The
  /// stream's batches share one shape, so under shape-affine sharding the
  /// warm epochs keep landing on the worker that owns their arena — this
  /// field makes that observable (tests pin it).
  std::int32_t worker = -1;
};

/// Aggregate outcome of a finished stream (same quantities as
/// batch::SimMetrics, plus the serving costs).
struct StreamingMetrics {
  double completion_time = 0.0;  ///< when the last task finished
  double mean_wait = 0.0;        ///< mean (start - arrival)
  double mean_response = 0.0;    ///< mean (finish - arrival)
  double max_response = 0.0;
  double utilization = 0.0;      ///< busy time / (machines * completion)
  std::size_t epochs = 0;
  std::size_t solved_batches = 0;
  std::size_t warm_epochs = 0;      ///< solves that took the warm seed
  std::size_t committed_tasks = 0;  ///< == workload tasks once done
  std::size_t carried_tasks = 0;    ///< sum of per-epoch tails
  double solve_seconds = 0.0;       ///< total solver wall time
  /// Queue-wait / solve latency percentiles of the backing service at
  /// stream completion, in milliseconds (0 when its histograms are
  /// disabled or empty). Service-lifetime figures: a bench that wants
  /// clean per-arm numbers runs each arm against a fresh service.
  double wait_p50_ms = 0.0;
  double wait_p99_ms = 0.0;
  double solve_p50_ms = 0.0;
  double solve_p99_ms = 0.0;
};

class StreamingSession {
 public:
  /// Generates the workload and validates the spec. `service` must
  /// outlive the session.
  StreamingSession(SchedulerService& service, StreamingSpec spec);

  /// True once every task has arrived, been scheduled, and started.
  bool done() const noexcept;

  /// Advances one epoch: arrivals, (re)solve, commit. Throws
  /// std::logic_error when already done, std::runtime_error when the
  /// epoch limit is hit or an epoch solve fails.
  EpochReport step();

  /// Runs to completion and returns the final metrics.
  const StreamingMetrics& run();

  /// Metrics so far (final only after run() / once done()).
  const StreamingMetrics& metrics() const noexcept { return metrics_; }
  std::size_t epochs() const noexcept { return metrics_.epochs; }

 private:
  void finalize();

  SchedulerService& service_;
  StreamingSpec spec_;
  batch::Workload workload_;
  std::vector<std::size_t> machine_ids_;  ///< 0..M-1, the constant park
  std::vector<double> busy_until_;        ///< absolute time per machine
  std::vector<double> ready_;             ///< per-epoch scratch
  std::vector<double> task_start_;
  std::vector<double> task_finish_;
  /// Per original task: the machine the last solve put it on (sched::
  /// kNoMachine before its first solve) — the carried warm-start state.
  std::vector<sched::MachineId> last_machine_;
  std::vector<std::size_t> pending_;  ///< arrived, not yet started (sorted)
  std::size_t next_arrival_ = 0;
  double busy_time_ = 0.0;
  bool finalized_ = false;
  StreamingMetrics metrics_;
};

}  // namespace pacga::service
