// Job model of the scheduler service (see service.hpp for the facade).
//
// A JobSpec is everything a tenant supplies: the instance (an ETC matrix,
// typically built once and shared via shared_ptr across retries/campaign
// jobs), a priority, a per-job seed, and a wall-clock deadline measured
// from submission. A JobResult is everything the service returns: the
// assignment, its fitness, and the bookkeeping a broker needs (queue wait,
// solve time, cache/deadline/policy provenance).
//
// JobState is the internal shared handle threaded through queue, pool, and
// facade: one allocation per job, reference-counted, with the result
// protected by its own mutex/cv so waiters never contend with the service
// registry.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "etc/etc_matrix.hpp"
#include "sched/schedule.hpp"

namespace pacga::service {

using JobId = std::uint64_t;

/// Which solver answers a job. kAuto escalates by budget and size:
/// Min-min/Sufferage for tiny-or-urgent jobs, the warm sequential CGA for
/// real budgets, PA-CGA for large instances with generous budgets.
enum class SolvePolicy {
  kAuto,
  kMinMin,     ///< Min-min constructive heuristic only
  kSufferage,  ///< Sufferage constructive heuristic only
  kCga,        ///< warm sequential cellular GA (arena-backed)
  kPaCga,      ///< parallel PA-CGA engine (cold start, own threads)
  /// Result provenance only (never requested): the job's warm-start seed
  /// was already better than anything the solver found in its budget —
  /// the zero-budget reschedule path returns the repaired schedule as-is.
  kWarmStart,
};

const char* to_string(SolvePolicy p) noexcept;

/// Parses the daemon/bench spelling ("auto", "minmin", "sufferage", "cga",
/// "pacga"); throws std::invalid_argument on anything else.
SolvePolicy parse_policy(const std::string& s);

enum class JobStatus {
  kPending,    ///< queued, not yet picked up
  kRunning,    ///< a worker is solving it
  kDone,       ///< solved (possibly past its deadline — see deadline_missed)
  kCancelled,  ///< cancelled before or while running
  kFailed,     ///< the solver threw; the job has no result (see worker log)
};

const char* to_string(JobStatus s) noexcept;

/// One solve request.
struct JobSpec {
  /// The instance. Shared so sweep campaigns can submit the same matrix
  /// many times without copies; must be non-null and outlives the job.
  std::shared_ptr<const etc::EtcMatrix> etc;
  /// Higher priority pops first among queued jobs (FIFO within a level).
  int priority = 0;
  /// Per-job RNG seed: same JobSpec (with a generation budget) => same
  /// schedule, regardless of which worker serves it.
  std::uint64_t seed = 1;
  /// Wall-clock deadline in milliseconds from submission. The solver gets
  /// whatever remains after queueing and stops within one generation of it
  /// (anytime behavior); must be positive and finite.
  double deadline_ms = 100.0;
  SolvePolicy policy = SolvePolicy::kAuto;
  /// Cap on CGA generations (0 = none). Set it to make results timing-
  /// independent — the determinism the service tests rely on.
  std::uint64_t max_generations = 0;
  /// Look up / store this instance in the solution cache. Disable for
  /// jobs that want a fresh stochastic solve per seed.
  bool use_cache = true;
  /// How many times a transiently-failed job (solver threw) is re-queued
  /// before it is quarantined. 0 keeps the historical semantics: the
  /// first failure is terminal. A job that fails max_retries + 1 times
  /// is terminally failed with error "quarantined" and never retried
  /// again, so one poisonous instance cannot crash-loop a worker.
  /// Retried jobs re-enter their home shard with their original
  /// priority after a capped exponential backoff (see SupervisorOptions).
  std::uint32_t max_retries = 0;
  /// Optional warm start (the dynamic rescheduling path): a feasible
  /// assignment for `etc` — typically a repaired schedule — seeded into
  /// the CGA population, and returned verbatim if the solver cannot beat
  /// it in the budget (the result is never worse than the seed). Must be
  /// empty or exactly etc->tasks() in-range machine ids. A warm-started
  /// job skips the solution-cache LOOKUP (a stale cached answer must not
  /// short-circuit re-optimization) but still refreshes the cache with
  /// its result.
  std::vector<sched::MachineId> warm_start;
};

/// One solve answer.
struct JobResult {
  JobId id = 0;
  JobStatus status = JobStatus::kPending;
  std::vector<sched::MachineId> assignment;  ///< empty when cancelled unrun
  double makespan = 0.0;  ///< fitness under the service objective
  SolvePolicy policy_used = SolvePolicy::kAuto;
  bool cache_hit = false;
  bool warm_started = false;  ///< the solve was seeded with spec.warm_start
  bool deadline_missed = false;  ///< finished after the wall-clock deadline
  std::uint64_t generations = 0;
  std::uint64_t evaluations = 0;
  double queue_wait_seconds = 0.0;
  double solve_seconds = 0.0;
  /// Index of the pool worker that served the job; -1 when no worker ever
  /// touched it (cancelled while still queued, or a cache hit answered at
  /// admission). Shape-affine sharding makes
  /// this observable: same-shape jobs gravitate to one worker, so its warm
  /// arena stays hot (tests and the mixed-shape bench read it).
  std::int32_t worker = -1;
  /// How many failed attempts preceded this result (0 = served first try).
  std::uint32_t retries = 0;
  /// Failure reason, set only when status == kFailed: "solver: <what()>"
  /// for a solver exception, "stalled" when the watchdog killed a stuck
  /// worker, "quarantined" when max_retries were exhausted. Empty on
  /// success so RESULT lines for successful jobs stay byte-identical to
  /// the pre-failpoint protocol (replay determinism).
  std::string error;
};

/// Internal shared job handle (queue entry + waiter rendezvous).
struct JobState {
  JobSpec spec;
  /// The job id, fixed at admission. Duplicated from result.id so the
  /// supervisor can name the job without touching the result, which is
  /// owned by whoever wins try_finish_with().
  JobId id = 0;
  std::chrono::steady_clock::time_point submitted{};
  std::chrono::steady_clock::time_point deadline{};

  /// Owning queue shard, assigned at admission from the instance shape.
  /// Cancellation routes straight to this shard instead of scanning every
  /// shard's heap (tag-at-submit, O(one shard) remove).
  std::uint32_t shard = 0;

  /// Raised by cancel(); polled by the solver once per generation.
  std::atomic<bool> cancel{false};

  /// Failed serve attempts so far. Written by the serving worker, read by
  /// the supervisor's retry timer; the retry handoff (schedule_retry ->
  /// requeue) orders the accesses, so no atomics are needed.
  std::uint32_t attempts = 0;
  /// Reason of the most recent failed attempt (same ordering argument).
  /// Used when a pending retry must be abandoned at shutdown.
  std::string last_error;

  std::mutex mutex;
  std::condition_variable cv;
  bool finished = false;  ///< guarded by mutex
  /// Guarded by mutex. Set while the serving worker holds the retry
  /// handoff for its latest failed attempt (try_claim_retry ->
  /// Supervisor::schedule_retry), cleared by the retry timer just before
  /// re-queueing. A held claim proves the worker is alive and already
  /// past its solve, so the watchdog's "stalled" commit is refused while
  /// it is up (see Supervisor::fail_job) — without it, a worker whose
  /// solve threw near the stall threshold could be superseded WITHOUT
  /// ever learning it lost (the retry path commits nothing), leaving two
  /// live threads on one worker index and a finished job in the retry
  /// list.
  bool retry_claimed = false;
  JobResult result;  ///< stable once finished is true

  /// Publishes `r` as the final result and wakes every waiter — unless
  /// someone else finished the job first, in which case `r` is dropped
  /// and false is returned. Two finishers can race by design: the serving
  /// worker and the watchdog that declared it stalled. Whoever wins owns
  /// the terminal accounting (metrics, completion hook); the loser must
  /// do none of it.
  ///
  /// `before_publish` runs under the job mutex, after the win is decided
  /// but before the result becomes visible: metric/trace accounting done
  /// there is guaranteed to be observable by the time any waiter wakes
  /// (a client that wait()s a job and then reads a metrics snapshot must
  /// see its completion counted). Keep it cheap and lock-free — it holds
  /// the mutex every waiter blocks on, and `r` is still intact inside it
  /// (the move into job.result happens after it returns).
  template <typename Fn>
  bool try_finish_with(JobResult&& r, Fn&& before_publish) {
    return try_finish_if([] { return true; }, std::move(r),
                         std::forward<Fn>(before_publish));
  }

  bool try_finish_with(JobResult&& r) {
    return try_finish_with(std::move(r), [] {});
  }

  /// try_finish_with, additionally gated on `precondition()` — evaluated
  /// under the job mutex, atomically with the finish decision. The commit
  /// happens only when the job is unfinished AND the precondition holds.
  /// Used by the watchdog's stalled path, which must not finish a job
  /// whose worker already claimed the retry handoff.
  template <typename Pre, typename Fn>
  bool try_finish_if(Pre&& precondition, JobResult&& r, Fn&& before_publish) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (finished || !precondition()) return false;
      before_publish();
      result = std::move(r);
      finished = true;
    }
    cv.notify_all();
    return true;
  }

  /// Claims the retry handoff for the serving worker; part of the same
  /// ownership race as try_finish_with. Fails when the job is already
  /// finished — the watchdog won the stall race (and respawned a
  /// replacement onto this worker's index), so the caller lost ownership
  /// exactly as if its own commit had failed and must touch neither its
  /// metrics slot nor its tracer ring again. After a successful claim
  /// the watchdog can no longer finish the job as stalled, so the
  /// claimant's subsequent attempts/last_error writes cannot race the
  /// supervisor's reads (which happen under the mutex, gated on the
  /// claim being down). The claim survives until release_retry_claim()
  /// or until the job is finished (a finished job's claim is moot).
  bool try_claim_retry() {
    std::lock_guard<std::mutex> lock(mutex);
    if (finished) return false;
    retry_claimed = true;
    return true;
  }

  /// Drops the retry claim (the retry timer, just before re-queueing:
  /// the NEXT serve attempt must again be subject to the watchdog).
  void release_retry_claim() {
    std::lock_guard<std::mutex> lock(mutex);
    retry_claimed = false;
  }

  /// Snapshot of the terminal flag. The retry timer uses it to drop
  /// tickets finished while waiting out their backoff: re-queueing a
  /// finished job would make the innocent worker that picks it up lose
  /// a commit it is entitled to win.
  bool is_finished() {
    std::lock_guard<std::mutex> lock(mutex);
    return finished;
  }

  /// Blocks until the job is finished; returns a copy of the result.
  JobResult await() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return finished; });
    return result;
  }
};

using JobTicket = std::shared_ptr<JobState>;

}  // namespace pacga::service
