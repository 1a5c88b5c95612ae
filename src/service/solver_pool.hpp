// Warm solver workers: persistent per-thread solver state reused across
// jobs, plus the pool that feeds them from the job queue.
//
// The economics of serving: on a small instance the CGA's useful work per
// job is milliseconds, so per-job setup (population construction, breeder
// scratch, sweep order — a dozen vector allocations each sized
// tasks*machines — and the Min-min seed) would dominate. A WarmSolver
// therefore keeps up to kWarmArenas cga::SequentialEngine arenas — the
// engine run_sequential runs — one per arena shape: a job whose shape has
// an arena re-initializes its buffers in place, and a matrix the arena has
// run before takes its Min-min seed from the engine's seed table. The
// steady-state serving path of a kCga job on a seen matrix performs ZERO
// heap allocations, Min-min seeding or not (test_service pins this, and
// pins warm solves equal to run_sequential).
//
// Policy escalation (kAuto): tiny-or-urgent jobs get Min-min+Sufferage
// (microseconds, near-optimal at that scale); real budgets get the warm
// sequential CGA (anytime, deadline-driven via TerminationController);
// big instances with generous budgets get the PA-CGA parallel engine.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cga/config.hpp"
#include "cga/engine.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"
#include "service/queue.hpp"
#include "service/supervisor.hpp"
#include "support/threading.hpp"

namespace pacga::service {

/// kAuto escalation thresholds.
inline constexpr double kHeuristicBudgetSeconds = 0.002;  ///< below: heuristics
inline constexpr std::size_t kHeuristicMaxTasks = 12;     ///< at most: heuristics
inline constexpr double kParallelBudgetSeconds = 0.25;    ///< at least: PA-CGA...
inline constexpr std::size_t kParallelMinTasks = 256;     ///< ...on big instances

/// Warm CGA arenas per WarmSolver, one per arena shape (tasks, machines,
/// shrunk grid); a job of a new shape evicts the least recently used one.
/// A constant, not an option: it bounds each worker's resident arenas,
/// and 4 covers the CGA shapes of a typical tenant mix.
inline constexpr std::size_t kWarmArenas = 4;

/// Fraction of the remaining wall budget handed to the solver; the rest is
/// headroom for the anytime loop's one-generation overshoot plus result
/// bookkeeping, so on-time pickups normally finish INSIDE the deadline.
inline constexpr double kDeadlineHeadroom = 0.9;

/// One worker's persistent solver. NOT thread-safe — exactly one worker
/// (or test) drives it. Between jobs each arena's schedules keep a pointer
/// to the last ETC matrix it ran; nothing dereferences it until the next
/// solve on that arena rebinds every cell, but the arenas must only be
/// used through solve().
class WarmSolver {
 public:
  /// `base` supplies grid shape, operators, objective, and Min-min
  /// seeding; per-job termination and seeds override it. The grid is
  /// shrunk automatically for small instances (population <= ~4x tasks,
  /// never below 4x4), which makes the arena shape.
  explicit WarmSolver(cga::Config base);
  WarmSolver(const WarmSolver&) = delete;  // generation_probe_ holds `this`
  WarmSolver& operator=(const WarmSolver&) = delete;

  /// Solves one job into `out` (assignment, makespan=fitness, policy_used,
  /// generations, evaluations). `budget_seconds` is the remaining wall
  /// budget; the CGA stops within one generation of it (anytime) and polls
  /// `cancel` (optional) at the same granularity. `observer` (optional)
  /// fires after every committed generation. Per-job seeding makes the
  /// result a pure function of (etc, spec) given a generation cap.
  /// `tracer` (optional) records phase spans (arena build, heuristic,
  /// warm-CGA, PA-CGA) and power-of-two-generation convergence instants
  /// tagged `job_id` — through a probe built once, so tracing never
  /// allocates on the serving path.
  void solve(const etc::EtcMatrix& etc, const JobSpec& spec,
             double budget_seconds, const std::atomic<bool>* cancel,
             JobResult& out, const cga::GenerationObserver& observer = {},
             obs::WorkerTracer* tracer = nullptr, std::uint64_t job_id = 0);

  /// The escalation decision, exposed for tests and the daemon's STATS.
  SolvePolicy decide(const JobSpec& spec, const etc::EtcMatrix& etc,
                     double budget_seconds) const noexcept;

  const cga::Config& base() const noexcept { return base_; }

  /// Cold arena (re)builds since construction, summed over the arenas —
  /// the shape-affinity figure of merit. A worker serving at most
  /// kWarmArenas shapes builds once per shape; every extra build is an
  /// eviction that threw a warm arena away.
  std::uint64_t arena_builds() const noexcept;

 private:
  void solve_heuristic(const etc::EtcMatrix& etc, SolvePolicy policy,
                       JobResult& out);
  void solve_cga(const etc::EtcMatrix& etc, const JobSpec& spec,
                 double budget_seconds, const std::atomic<bool>* cancel,
                 JobResult& out, const cga::GenerationObserver& observer,
                 obs::WorkerTracer* tracer, std::uint64_t job_id);
  void solve_parallel(const etc::EtcMatrix& etc, const JobSpec& spec,
                      double budget_seconds, const std::atomic<bool>* cancel,
                      JobResult& out);

  /// One warm arena; last_used 0 means never used.
  struct Arena {
    std::uint64_t last_used = 0;
    cga::SequentialEngine engine;
  };

  /// The arena built for job_config_'s shape on `etc`, else the least
  /// recently used one (its engine rebuilds on ensure()).
  cga::SequentialEngine& arena_for(const etc::EtcMatrix& etc);

  cga::Config base_;
  cga::Config job_config_;  ///< base_ with the job's grid, seed and budget
  /// Fixed in place: each engine's breeder points into it.
  std::array<Arena, kWarmArenas> arenas_;
  std::uint64_t arena_clock_ = 0;  ///< LRU stamp of the latest arena use
  /// The arenas' per-generation hook: the `generation` trace instants plus
  /// the caller's observer, read from the job_* members of the job being
  /// solved. Built once, so no job constructs a std::function.
  cga::GenerationObserver generation_probe_;
  obs::WorkerTracer* job_tracer_ = nullptr;  ///< null when not tracing
  std::uint64_t job_id_ = 0;
  const cga::GenerationObserver* job_observer_ = nullptr;
};

/// Options of the worker pool (and, via ServiceOptions, the service).
struct SolverPoolOptions {
  std::size_t workers = 2;
  /// Solver base configuration: grid, operators, objective, Min-min
  /// seeding. Termination and seed are per-job.
  cga::Config solver;
  /// Watchdog + retry-backoff knobs (see supervisor.hpp).
  SupervisorOptions supervision;
};

/// N worker threads, each owning one WarmSolver and pinned to one home
/// shard of the sharded queue (worker i -> shard i % shards; with the
/// service's workers == shards construction that is a bijection). A worker
/// drains its home shard — where shape-affine routing concentrates the
/// shapes whose warm arenas it owns — and steals from neighbors only when
/// home is empty. Jobs are finished (result published, waiters woken) by
/// the worker that served them; `on_terminal` (optional) runs after each
/// finish — the service uses it for outstanding-job accounting.
///
/// Supervision: a Supervisor watchdog kills jobs whose worker wedged
/// (kFailed, error "stalled") and respawns a replacement thread onto the
/// same worker index — so the home shard, metrics slot, and tracer lane
/// keep exactly one owner (the supersede protocol in supervisor.hpp).
/// Transient solver failures retry through the same supervisor when
/// JobSpec::max_retries allows.
class SolverPool {
 public:
  using CompletionHook = std::function<void(const JobState&)>;

  /// `trace` (optional) is the service's span collector; each worker
  /// records into its own ring. Must outlive the pool.
  SolverPool(ShardedJobQueue& queue, SolutionCache& cache,
             ServiceMetrics& metrics, SolverPoolOptions options,
             obs::TraceCollector* trace = nullptr,
             CompletionHook on_terminal = {});

  /// Joins the workers (join() semantics).
  ~SolverPool();

  /// Stops the supervisor (pending retries fail terminally), releases
  /// workers parked at wedge failpoints, and joins every worker thread.
  /// The queue must have been closed first or this blocks forever.
  void join();

  /// Solution-cache key: the ETC fingerprint with the objective (and
  /// lambda, when it matters) and the REQUESTED solve policy mixed in.
  /// Different objectives on the same matrix never share an entry, and an
  /// explicit kCga request is never answered with a cached heuristic
  /// solution from a kMinMin tenant (kAuto keys separately too — the
  /// price of not knowing its escalation before the budget is known).
  static std::uint64_t cache_key(const etc::EtcMatrix& etc,
                                 const cga::Config& solver,
                                 SolvePolicy policy) noexcept;

  std::size_t workers() const noexcept { return options_.workers; }

  /// Workers respawned by the watchdog since construction.
  std::uint64_t worker_restarts() const noexcept {
    return supervisor_ ? supervisor_->restarts() : 0;
  }

 private:
  /// Why serve() returned. Informational: run_worker's exit decision is
  /// NOT taken from this (someone else finishing a job does not by
  /// itself retire the worker) but from Supervisor::superseded(), the
  /// authoritative generation check, after every serve.
  enum class ServeOutcome {
    kFinished,    ///< this worker committed the terminal result
    kRetried,     ///< failed transiently; the supervisor owns the job now
    kSuperseded,  ///< someone else finished the job first (watchdog
                  ///< stall verdict, racing cancel); nothing — metrics,
                  ///< tracer, completion hook — was touched
  };

  ServeOutcome serve(const JobTicket& ticket, WarmSolver& solver,
                     std::size_t worker, std::uint64_t generation,
                     obs::WorkerTracer& tracer, bool stolen);
  void run_worker(std::size_t worker, std::uint64_t generation);
  /// Starts (or restarts, from the watchdog) the thread of worker index w.
  void spawn_worker(std::size_t worker);

  ShardedJobQueue& queue_;
  SolutionCache& cache_;
  ServiceMetrics& metrics_;
  SolverPoolOptions options_;
  obs::TraceCollector* trace_;
  CompletionHook on_terminal_;
  /// Declared before threads_: worker threads dereference it, so it must
  /// outlive them (join() enforces the runtime ordering as well).
  std::unique_ptr<Supervisor> supervisor_;
  std::mutex threads_mutex_;
  std::vector<std::thread> threads_;  ///< live + exited-but-unjoined workers
  bool joining_ = false;              ///< guarded by threads_mutex_
};

}  // namespace pacga::service
