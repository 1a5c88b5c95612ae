#include "service/solver_pool.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

#include "heuristics/minmin.hpp"
#include "heuristics/sufferage.hpp"
#include "pacga/parallel_engine.hpp"
#include "sched/fitness.hpp"
#include "support/failpoints.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace pacga::service {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void fill_result(JobResult& out, const sched::Schedule& best,
                 double fitness, SolvePolicy policy) {
  const auto a = best.assignment();
  out.assignment.assign(a.begin(), a.end());
  out.makespan = fitness;
  out.policy_used = policy;
}

/// A CGA job's stop rule: the remaining wall budget plus the optional
/// generation cap. The budget is floored: an explicit-kCga or kPaCga job
/// popped past its deadline arrives with 0, which Config::validate
/// rejects — it is served late rather than failed.
cga::Termination job_termination(const JobSpec& spec, double budget_seconds) {
  cga::Termination t = cga::Termination::after_seconds(
      std::max(budget_seconds, kHeuristicBudgetSeconds));
  if (spec.max_generations > 0) t.max_generations = spec.max_generations;
  return t;
}

}  // namespace

WarmSolver::WarmSolver(cga::Config base) : base_(std::move(base)) {
  base_.collect_trace = false;  // tracing would allocate per generation
  base_.validate();
  job_config_ = base_;
  // Sequential runs ignore threads; a PA-CGA-sized count must not fail
  // Config::validate on a shrunk grid.
  job_config_.threads = 1;
  generation_probe_ = [this](const cga::GenerationEvent& e) {
    if (job_tracer_ && cga::sampled_generation(e.generation)) {
      job_tracer_->instant(obs::SpanKind::kGeneration, job_id_, e.generation,
                           std::bit_cast<std::uint64_t>(e.best_fitness));
    }
    if (*job_observer_) (*job_observer_)(e);
  };
}

SolvePolicy WarmSolver::decide(const JobSpec& spec, const etc::EtcMatrix& etc,
                               double budget_seconds) const noexcept {
  if (spec.policy != SolvePolicy::kAuto) return spec.policy;
  if (budget_seconds < kHeuristicBudgetSeconds ||
      etc.tasks() <= kHeuristicMaxTasks) {
    return SolvePolicy::kMinMin;  // resolved to the better of the two below
  }
  if (budget_seconds >= kParallelBudgetSeconds &&
      etc.tasks() >= kParallelMinTasks && base_.threads > 1) {
    return SolvePolicy::kPaCga;
  }
  return SolvePolicy::kCga;
}

std::uint64_t WarmSolver::arena_builds() const noexcept {
  std::uint64_t builds = 0;
  for (const Arena& arena : arenas_) builds += arena.engine.builds();
  return builds;
}

cga::SequentialEngine& WarmSolver::arena_for(const etc::EtcMatrix& etc) {
  Arena* pick = &arenas_[0];
  for (Arena& arena : arenas_) {
    if (arena.engine.fits(etc, job_config_)) {
      pick = &arena;
      break;
    }
    if (arena.last_used < pick->last_used) pick = &arena;
  }
  pick->last_used = ++arena_clock_;
  return pick->engine;
}

void WarmSolver::solve_heuristic(const etc::EtcMatrix& etc, SolvePolicy policy,
                                 JobResult& out) {
  const auto score = [&](const sched::Schedule& s) {
    return sched::evaluate(s, base_.objective, base_.lambda);
  };
  if (policy == SolvePolicy::kSufferage) {
    const sched::Schedule s = heur::sufferage(etc);
    fill_result(out, s, score(s), SolvePolicy::kSufferage);
    return;
  }
  // kMinMin explicit, or the kAuto tiny-or-urgent escalation: Min-min with
  // a Sufferage second opinion costs microseconds at this scale and wins
  // on the inconsistent classes.
  const sched::Schedule mm = heur::min_min(etc);
  const double mm_fit = score(mm);
  if (policy == SolvePolicy::kMinMin) {
    fill_result(out, mm, mm_fit, SolvePolicy::kMinMin);
    return;
  }
  const sched::Schedule sf = heur::sufferage(etc);
  const double sf_fit = score(sf);
  if (sf_fit < mm_fit) {
    fill_result(out, sf, sf_fit, SolvePolicy::kSufferage);
  } else {
    fill_result(out, mm, mm_fit, SolvePolicy::kMinMin);
  }
}

void WarmSolver::solve_cga(const etc::EtcMatrix& etc, const JobSpec& spec,
                           double budget_seconds,
                           const std::atomic<bool>* cancel, JobResult& out,
                           const cga::GenerationObserver& observer,
                           obs::WorkerTracer* tracer, std::uint64_t job_id) {
  // Shrink the grid for small instances: a 16x16 population on a 3-task
  // batch is pure overhead.
  // min-of-max, not std::clamp: a base grid below 16 cells would violate
  // clamp's lo <= hi precondition. Jobs big enough to want the whole
  // population keep the base grid EXACTLY (square or not); only genuinely
  // small instances get the square shrunk arena.
  job_config_.width = base_.width;
  job_config_.height = base_.height;
  const std::size_t base_pop = base_.population_size();
  const std::size_t target_pop =
      std::min(base_pop, std::max<std::size_t>(16, 4 * etc.tasks()));
  if (target_pop < base_pop) {
    std::size_t side = 4;
    while ((side + 1) * (side + 1) <= target_pop) ++side;
    job_config_.width = side;
    job_config_.height = side;
  }
  job_config_.seed = spec.seed;
  job_config_.termination = job_termination(spec, budget_seconds);
  // Dynamic rescheduling: the repaired schedule joins the initial
  // population (cga::apply_warm_seed); copy-assignment reuses the buffer.
  job_config_.warm_seed = spec.warm_start;

  const bool tracing = tracer && tracer->enabled();
  const std::uint64_t build_start = tracing ? tracer->now_ns() : 0;
  cga::SequentialEngine& engine = arena_for(etc);
  if (engine.ensure(etc, job_config_) && tracing) {
    tracer->span(obs::SpanKind::kArenaBuild, job_id, build_start,
                 tracer->now_ns(), etc.tasks(), etc.machines());
  }
  const std::uint64_t cga_start = tracing ? tracer->now_ns() : 0;
  job_tracer_ = tracing ? tracer : nullptr;
  job_id_ = job_id;
  job_observer_ = &observer;
  const cga::RunStats stats =
      engine.run(etc, job_config_, generation_probe_, cancel);

  const cga::Individual& best = engine.best();
  fill_result(out, best.schedule, best.fitness, SolvePolicy::kCga);
  out.generations = stats.generations;
  out.evaluations = stats.evaluations;
  if (tracing) {
    tracer->span(obs::SpanKind::kWarmCga, job_id, cga_start, tracer->now_ns(),
                 stats.generations);
  }
}

void WarmSolver::solve_parallel(const etc::EtcMatrix& etc, const JobSpec& spec,
                                double budget_seconds,
                                const std::atomic<bool>* cancel,
                                JobResult& out) {
  cga::Config config = base_;
  config.seed = spec.seed;
  config.termination = job_termination(spec, budget_seconds);
  if (!spec.warm_start.empty()) {
    // The repaired schedule rides into the engine's initial population
    // (cga::apply_warm_seed), so the PA-CGA re-optimizes FROM the seed and
    // the result is never worse than it by construction — the clamp in
    // solve() stays as a safety net only.
    config.warm_seed = spec.warm_start;
    out.warm_started = true;
  }
  const par::ParallelResult r = par::run_parallel(etc, config, {}, cancel);
  fill_result(out, r.result.best, r.result.best_fitness, SolvePolicy::kPaCga);
  out.generations = r.result.generations;
  out.evaluations = r.result.evaluations;
}

void WarmSolver::solve(const etc::EtcMatrix& etc, const JobSpec& spec,
                       double budget_seconds, const std::atomic<bool>* cancel,
                       JobResult& out, const cga::GenerationObserver& observer,
                       obs::WorkerTracer* tracer, std::uint64_t job_id) {
  PACGA_FAILPOINT("solver.solve");
  out.cache_hit = false;
  out.warm_started = false;
  out.generations = 0;
  out.evaluations = 0;
  const bool tracing = tracer && tracer->enabled();
  switch (decide(spec, etc, budget_seconds)) {
    case SolvePolicy::kAuto:  // unreachable: decide() never returns kAuto
    case SolvePolicy::kMinMin:
    case SolvePolicy::kSufferage: {
      // spec.policy distinguishes the explicit heuristics from the kAuto
      // escalation (which runs both and keeps the winner).
      const std::uint64_t t0 = tracing ? tracer->now_ns() : 0;
      solve_heuristic(etc, spec.policy, out);
      if (tracing)
        tracer->span(obs::SpanKind::kHeuristic, job_id, t0, tracer->now_ns());
      break;
    }
    case SolvePolicy::kCga:
      solve_cga(etc, spec, budget_seconds, cancel, out, observer, tracer,
                job_id);
      break;
    case SolvePolicy::kWarmStart:  // unreachable: never requested
    case SolvePolicy::kPaCga: {
      const std::uint64_t t0 = tracing ? tracer->now_ns() : 0;
      solve_parallel(etc, spec, budget_seconds, cancel, out);
      if (tracing) {
        tracer->span(obs::SpanKind::kPaCga, job_id, t0, tracer->now_ns(),
                     out.generations);
      }
      break;
    }
  }
  if (!spec.warm_start.empty()) {
    // The reschedule contract: never answer worse than the seed. Both CGA
    // engines hold this by construction (the seed is in the initial
    // population via Config::warm_seed), so the explicit clamp is the final safety net
    // for the heuristic escalation of a budget-starved (expired-deadline)
    // reschedule only — the repaired schedule IS a valid anytime answer.
    const sched::Schedule seed(
        etc, {spec.warm_start.begin(), spec.warm_start.end()});
    const double seed_fitness =
        sched::evaluate(seed, base_.objective, base_.lambda);
    if (out.assignment.empty() || seed_fitness < out.makespan) {
      fill_result(out, seed, seed_fitness, SolvePolicy::kWarmStart);
    }
    out.warm_started = true;
  }
}

// --- SolverPool ------------------------------------------------------------

SolverPool::SolverPool(ShardedJobQueue& queue, SolutionCache& cache,
                       ServiceMetrics& metrics, SolverPoolOptions options,
                       obs::TraceCollector* trace, CompletionHook on_terminal)
    : queue_(queue),
      cache_(cache),
      metrics_(metrics),
      options_(std::move(options)),
      trace_(trace),
      on_terminal_(std::move(on_terminal)) {
  if (options_.workers == 0)
    throw std::invalid_argument("SolverPool: workers must be >= 1");
  options_.solver.validate();
  supervisor_ = std::make_unique<Supervisor>(
      options_.supervision, options_.workers, metrics_,
      /*requeue=*/
      [this](const JobTicket& job) -> int {
        if (queue_.try_submit(job)) return 0;
        return queue_.closed() ? -1 : 1;
      },
      /*respawn=*/[this](std::size_t worker) { spawn_worker(worker); },
      /*terminal=*/
      [this](const JobTicket& job) {
        if (on_terminal_) on_terminal_(*job);
      });
  for (std::size_t w = 0; w < options_.workers; ++w) spawn_worker(w);
  supervisor_->start();
}

SolverPool::~SolverPool() { join(); }

void SolverPool::spawn_worker(std::size_t worker) {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  if (joining_) return;  // shutting down: a replacement would leak
  const std::uint64_t generation = supervisor_->generation(worker);
  queue_.mark_idle(worker % queue_.shards(), generation);
  threads_.emplace_back(
      [this, worker, generation] { run_worker(worker, generation); });
}

void SolverPool::run_worker(std::size_t worker, std::uint64_t generation) {
  WarmSolver solver(options_.solver);
  obs::WorkerTracer tracer(trace_, worker);
  const std::size_t home = worker % queue_.shards();
  bool stolen = false;
  while (JobTicket job = queue_.pop(home, &stolen)) {
    supervisor_->begin_serve(worker, generation, job);
    serve(job, solver, worker, generation, tracer, stolen);
    supervisor_->end_serve(worker, generation);
    // Exit iff the watchdog handed this slot to a replacement — the
    // authoritative signal, checked after EVERY serve. A lost commit
    // (kSuperseded) alone is not proof: a queued job can legitimately be
    // finished by someone else (e.g. a racing cancel), and exiting on it
    // would silently retire a healthy worker with no respawn. Conversely
    // a commit can never be lost at all on some superseded paths (the
    // retry handoff claims instead of finishing), so the generation is
    // the one signal that covers them all.
    if (supervisor_->superseded(worker, generation)) return;
  }
}

void SolverPool::join() {
  // Order matters: stop the supervisor first (no respawns or retries can
  // race the join), then let wedge-parked workers through so the closed
  // queue can drain, then join whatever threads exist — including any
  // replacements the watchdog spawned before it stopped.
  if (supervisor_) supervisor_->stop();
  support::ScopedWedgeSuspend wedge_release;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    joining_ = true;
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
}

std::uint64_t SolverPool::cache_key(const etc::EtcMatrix& etc,
                                    const cga::Config& solver,
                                    SolvePolicy policy) noexcept {
  std::uint64_t h = support::hash_mix(
      etc.fingerprint(), static_cast<std::uint64_t>(solver.objective) + 1);
  if (solver.objective == sched::Objective::kWeightedMakespanFlowtime) {
    h = support::hash_mix(h, static_cast<std::uint64_t>(solver.lambda * 1e9));
  }
  return support::hash_mix(h, static_cast<std::uint64_t>(policy) + 1);
}

SolverPool::ServeOutcome SolverPool::serve(const JobTicket& ticket,
                                           WarmSolver& solver,
                                           std::size_t worker,
                                           std::uint64_t generation,
                                           obs::WorkerTracer& tracer,
                                           bool stolen) {
  JobState& job = *ticket;
  const auto picked_up = std::chrono::steady_clock::now();
  // The result is built in a LOCAL and committed through try_finish_with:
  // the watchdog may concurrently publish a "stalled" result for this very
  // job, so job.result has no single writer until one of the two commits
  // wins. Everything after the commit is gated on winning it.
  JobResult out;
  out.id = job.id;
  out.retries = job.attempts;
  out.queue_wait_seconds = seconds_between(job.submitted, picked_up);
  out.worker = static_cast<std::int32_t>(worker);

  // Queue-phase span, emitted retroactively at pickup from the admission
  // timestamp: the submitting client thread never writes this worker's
  // ring, so the single-writer contract holds end to end.
  const bool tracing = tracer.enabled();
  const std::uint64_t pickup_ns = tracing ? tracer.now_ns() : 0;
  if (tracing) {
    tracer.span(obs::SpanKind::kQueueWait, out.id,
                tracer.to_ns(job.submitted), pickup_ns, job.shard,
                stolen ? 1 : 0);
  }

  if (job.cancel.load(std::memory_order_relaxed)) {
    out.status = JobStatus::kCancelled;
    const bool won = job.try_finish_with(std::move(out), [&] {
      if (tracing) tracer.instant(obs::SpanKind::kCancelled, job.id);
      metrics_.on_cancel();
    });
    if (!won) return ServeOutcome::kSuperseded;
    if (on_terminal_) on_terminal_(job);
    return ServeOutcome::kFinished;
  }

  out.status = JobStatus::kRunning;
  const etc::EtcMatrix& etc = *job.spec.etc;
  const std::uint64_t key = cache_key(etc, options_.solver, job.spec.policy);
  support::WallTimer solve_timer;

  SolutionCache::Entry cached;
  // A warm-started job is a re-optimization request: its seed is fresher
  // than anything cached for this fingerprint, so the lookup is skipped
  // (the result still refreshes the cache below). Every other job already
  // missed at admission; this second probe catches a twin whose insert
  // landed while the job was queued.
  // Stripe the cache by the job's queue shard: the pinned worker keeps
  // taking one stripe's lock, and a key is always sought where it was
  // stored (the shard is a pure function of the shape, the key of the
  // fingerprint — one shape, one stripe).
  const std::size_t stripe = job.shard;
  const bool cache_lookup = job.spec.use_cache && job.spec.warm_start.empty();
  const std::uint64_t builds_before = solver.arena_builds();
  bool cache_hit = false;
  // One try block over lookup + solve + insert: any exception on the
  // serving path — the solver's own, or an armed cache failpoint — must
  // fail ONE job, not escape the worker thread (std::terminate would kill
  // the service and strand every waiter).
  try {
    if (cache_lookup) {
      // The lookup site lives here, not in SolutionCache::lookup: client
      // threads probe too (admission, warm-start sourcing), and a wedge
      // there would park a thread the watchdog cannot respawn.
      PACGA_FAILPOINT("cache.lookup");
      const std::uint64_t probe_start = tracing ? tracer.now_ns() : 0;
      cache_hit = cache_.lookup(stripe, key, cached);
      if (tracing) {
        tracer.span(obs::SpanKind::kCacheProbe, out.id, probe_start,
                    tracer.now_ns(), 0, cache_hit ? 1 : 0);
      }
    }
    if (cache_hit) {
      out.assignment = std::move(cached.assignment);
      out.makespan = cached.fitness;
      out.cache_hit = true;
      out.generations = 0;
      out.evaluations = 0;
      out.policy_used = cached.policy;  // provenance: what PRODUCED it
      out.status = JobStatus::kDone;
    } else {
      // The solver gets whatever wall budget remains after queueing, minus
      // ~10% headroom: the anytime loop stops within one generation AFTER
      // its budget, so aiming at the raw deadline would miss it by
      // construction. A job popped past its deadline still gets a
      // floor-of-zero budget, which kAuto escalates to the heuristics
      // (serve late rather than never).
      const double remaining = std::max(
          0.0, seconds_between(picked_up, job.deadline));
      solver.solve(etc, job.spec, remaining * kDeadlineHeadroom, &job.cancel,
                   out, {}, &tracer, out.id);
      out.status = job.cancel.load(std::memory_order_relaxed)
                       ? JobStatus::kCancelled
                       : JobStatus::kDone;
      if (out.status == JobStatus::kDone && job.spec.use_cache &&
          !out.assignment.empty()) {
        // Don't let a budget-starved kAuto escalation poison the cache: its
        // heuristic answer would be served to every later budget-rich kAuto
        // job on this matrix, which would then never trigger the
        // keep-better refresh. Tiny instances escalate by SIZE, so their
        // heuristic answers are the steady state and cache fine.
        const bool budget_starved_heuristic =
            job.spec.policy == SolvePolicy::kAuto &&
            (out.policy_used == SolvePolicy::kMinMin ||
             out.policy_used == SolvePolicy::kSufferage ||
             out.policy_used == SolvePolicy::kWarmStart) &&
            etc.tasks() > kHeuristicMaxTasks;
        if (!budget_starved_heuristic) {
          cache_.insert(stripe, key, out.assignment, out.makespan,
                        out.policy_used);
        }
      }
    }
  } catch (const std::exception& e) {
    support::log_warn() << "SolverPool: job " << out.id
                        << " failed: " << e.what();
    out.status = JobStatus::kFailed;
    out.error = std::string("solver: ") + e.what();
  }
  const std::uint64_t built = solver.arena_builds() - builds_before;
  out.solve_seconds = solve_timer.elapsed_seconds();
  const auto finished_at = std::chrono::steady_clock::now();
  out.deadline_missed = finished_at > job.deadline;

  // Transient failure, not cancelled: hand the job to the supervisor's
  // backoff timer instead of finishing it. The ticket stays unfinished
  // (waiters keep waiting) and re-enters its home shard with its
  // original priority.
  bool quarantined = false;
  if (out.status == JobStatus::kFailed &&
      !job.cancel.load(std::memory_order_relaxed)) {
    // Enter the ownership race BEFORE touching any retry state: the
    // handoff commits nothing, so without a claim a worker superseded
    // right here (watchdog set cancel after our load above, then won the
    // stalled commit) would never learn it lost — it would keep looping
    // next to its own replacement and park the finished job in the retry
    // list. A failed claim means exactly a lost commit: exit without
    // touching the metrics slot or tracer ring. A won claim blocks the
    // watchdog's stalled commit until the retry is re-queued, which also
    // orders the attempts/last_error writes below against the
    // supervisor's under-mutex reads.
    if (!job.try_claim_retry()) return ServeOutcome::kSuperseded;
    job.attempts += 1;
    if (job.attempts <= job.spec.max_retries) {
      job.last_error = out.error;
      if (supervisor_->schedule_retry(ticket)) {
        metrics_.on_retry();
        if (built > 0) metrics_.add_arena_builds(worker, built);
        if (tracing) {
          tracer.span(obs::SpanKind::kServe, out.id, pickup_ns,
                      tracer.now_ns(), 0,
                      static_cast<std::uint64_t>(out.status));
          tracer.instant(obs::SpanKind::kFailed, out.id, job.attempts);
        }
        return ServeOutcome::kRetried;
      }
      // Supervisor already stopping (shutdown): fall through, terminal.
      // The claim stays up through our own commit below (which it does
      // not gate) and is moot once the job is finished.
    } else if (job.spec.max_retries > 0) {
      out.error = "quarantined";
      quarantined = true;
    }
  }

  // Idle before the commit wakes the client: a closed-loop resubmission
  // must find its home worker idle, or it would hand the job to a thief.
  queue_.mark_idle(worker % queue_.shards(), generation);
  // Accounting runs inside the commit, under the job mutex, BEFORE the
  // result becomes visible: a client that wait()s this job and then reads
  // a metrics snapshot must see the job counted. `out` is still intact
  // inside the callback (the move into job.result happens after it); a
  // LOST commit runs none of this and touches neither metrics nor tracer.
  const bool won = job.try_finish_with(std::move(out), [&] {
    if (built > 0) metrics_.add_arena_builds(worker, built);
    if (tracing) {
      tracer.span(obs::SpanKind::kServe, out.id, pickup_ns, tracer.now_ns(),
                  0, static_cast<std::uint64_t>(out.status));
      switch (out.status) {
        case JobStatus::kCancelled:
          tracer.instant(obs::SpanKind::kCancelled, out.id);
          break;
        case JobStatus::kFailed:
          tracer.instant(obs::SpanKind::kFailed, out.id);
          break;
        default:
          tracer.instant(obs::SpanKind::kCompleted, out.id, 0,
                         std::bit_cast<std::uint64_t>(out.makespan));
          break;
      }
    }
    switch (out.status) {
      case JobStatus::kCancelled:
        metrics_.on_cancel();
        break;
      case JobStatus::kFailed:
        metrics_.on_fail(worker);
        break;
      default:
        metrics_.on_complete(worker, out.queue_wait_seconds,
                             out.solve_seconds, out.cache_hit,
                             out.deadline_missed,
                             seconds_between(job.submitted, finished_at));
        break;
    }
    if (quarantined) metrics_.on_quarantine();
  });
  if (!won) return ServeOutcome::kSuperseded;
  if (on_terminal_) on_terminal_(job);
  return ServeOutcome::kFinished;
}

}  // namespace pacga::service
