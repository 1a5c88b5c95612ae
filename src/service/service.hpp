// SchedulerService — the multi-tenant solve service facade.
//
// The paper's operating regime (§2.1) is a broker that continuously
// receives task batches and must answer within a scheduling window. This
// facade is that broker's solver tier as an in-process service:
//
//   submit/try_submit -> cache probe: a hit is answered right here, on
//                        the submitting thread, and never queued
//                     -> ShardedJobQueue (bounded, priority, backpressure;
//                        one shard per worker, routed by instance shape)
//                     -> SolverPool (N pinned workers, warm per-shape
//                        arenas, bounded stealing, deadline-driven anytime
//                        CGA, policy escalation)
//                     -> SolutionCache (LRU on ETC fingerprint, striped by
//                        the same shard key)
//   wait/cancel/drain  and  metrics() snapshots while serving.
//
// The core is sharded end to end: a job's shard — a pure function of its
// instance shape, assigned at admission — selects its queue shard, its
// cache stripe, and (via pinning) the worker whose warm arena matches the
// shape. Completions record into per-worker padded metric slots (counters
// and one latency histogram per metric), so the serving fast path shares
// no mutable cache line between workers.
//
// Lifecycle: construct -> serve -> shutdown() (or destruction). Shutdown
// is graceful: admission closes, already-queued jobs are drained by the
// workers, then threads join. cancel() covers both a queued job (removed
// before it runs) and a running one (stop flag, honored within one
// generation).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"
#include "service/queue.hpp"
#include "service/solver_pool.hpp"

namespace pacga::service {

struct ServiceOptions {
  std::size_t workers = 2;
  std::size_t queue_capacity = 256;
  /// LRU entries; 0 disables the solution cache entirely.
  std::size_t cache_capacity = 1024;
  /// Trace-ring capacity PER WORKER (span records; rounded up to a power
  /// of two). The flight recorder keeps the most recent spans and drops
  /// the oldest on wrap. 0 disables tracing, the one runtime off-switch
  /// of the obs layer; counters and latency histograms always run.
  std::size_t trace_capacity = 8192;
  /// Solver base configuration (grid, operators, objective, Min-min
  /// seeding). Termination and seed are per-job; collect_trace is forced
  /// off.
  cga::Config solver;
  /// Watchdog + retry-backoff knobs (stall detection, worker respawn,
  /// capped exponential retry backoff — see supervisor.hpp).
  SupervisorOptions supervision;
  /// Queue-pressure shedding watermark, as a fraction of one shard's
  /// capacity: a try_submit whose target shard already holds at least
  /// watermark * shard_capacity queued jobs is refused (counted as
  /// shed + rejected; the net edge answers ERR BUSY with a retry hint).
  /// >= 1.0 disables the watermark — only a truly full shard rejects,
  /// the historical behavior.
  double shed_watermark = 1.0;
};

class SchedulerService {
 public:
  explicit SchedulerService(ServiceOptions options = {});

  /// Graceful shutdown (see shutdown()).
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Admits a job, blocking while the queue is full (closed-loop
  /// backpressure). Returns the job id. Throws std::invalid_argument on a
  /// malformed spec and std::runtime_error once shut down.
  ///
  /// A job whose answer is cached (use_cache, no warm start) finishes
  /// before this returns: the submitting thread commits the hit with
  /// zero queue wait and worker -1, and runs the completion callback. It
  /// never waits for queue room. Every other job is queued for a worker,
  /// which probes the cache again (a twin may have landed meanwhile).
  JobId submit(JobSpec spec);

  /// Fail-fast admission: nullopt when the queue is full (the reject is
  /// counted in metrics). A cache hit is answered at admission as in
  /// submit(), so it is never shed or refused. Throws like submit() on
  /// bad specs/shutdown.
  std::optional<JobId> try_submit(JobSpec spec);

  /// Admits a re-optimization job (the dynamic rescheduling path). Like
  /// submit(), plus warm-start sourcing: when `spec.warm_start` is empty,
  /// the solution cache is consulted under this job's key and a hit
  /// becomes the seed — the cache doubles as the warm-start source for a
  /// matrix the service has solved before. Warm-started jobs never SERVE
  /// from the cache (the point is to re-optimize), but their results
  /// refresh it; the solver guarantees the answer is never worse than
  /// the seed, so an expired-deadline reschedule still returns the
  /// repaired schedule.
  JobId submit_reschedule(JobSpec spec);

  /// Fail-fast submit_reschedule: same warm-start sourcing, but admission
  /// goes through try_submit — nullopt when the shard is full (counted as
  /// a reject). The network edge maps this onto ERR BUSY.
  std::optional<JobId> try_submit_reschedule(JobSpec spec);

  /// Blocks until the job reaches a terminal state and returns its result.
  /// Each id can be waited on once (the handle is released); a second wait
  /// throws std::invalid_argument. Fire-and-forget tenants do not leak:
  /// finished-but-unwaited results are retained only for the most recent
  /// kRetainedResults terminal jobs, then released (a late wait() on an
  /// evicted id reports it unknown).
  JobResult wait(JobId id);

  /// Non-blocking wait, the event-loop counterpart of wait(): kReady
  /// copies the result into `out` and releases the handle exactly like a
  /// completed wait() (a second poll answers kUnknown); kPending leaves
  /// the job untouched — poll again after the completion callback fires;
  /// kUnknown means the id was never issued, already waited, or evicted.
  enum class Poll { kReady, kPending, kUnknown };
  Poll poll_result(JobId id, JobResult& out);

  /// Registers `cb`, invoked once per job as it reaches a terminal state
  /// (done, failed, or cancelled — including cancel-before-run), AFTER the
  /// result is published, from whichever thread finished the job (a pool
  /// worker, the canceller, or the submitter for a cache hit answered at
  /// admission — then before submit returns the id). The callback must
  /// not block and must not
  /// re-enter the service except through poll_result/wait/try_submit —
  /// the intended shape is "enqueue the id and wake an event loop".
  /// Replaces any previous callback; pass {} to clear.
  using CompletionCallback = std::function<void(JobId)>;
  void set_completion_callback(CompletionCallback cb);

  /// How many finished-but-unwaited results are kept before the oldest is
  /// released.
  static constexpr std::size_t kRetainedResults = 1024;

  /// Requests cancellation. A queued job is removed and finished as
  /// kCancelled immediately; a running job stops within one generation.
  /// Returns false when the job is unknown or already finished.
  bool cancel(JobId id);

  /// Blocks until every submitted job has reached a terminal state.
  void drain();

  /// Stops admission, lets the workers drain the queue, joins them.
  /// Idempotent.
  void shutdown();

  ServiceMetrics::Snapshot metrics() const { return metrics_.snapshot(); }

  /// Suggested client back-off after a shed/busy rejection, in
  /// milliseconds: observed p50 solve latency scaled by the deepest
  /// shard's backlog, clamped to [1, 10000]. Cheap enough to call on
  /// every rejection; the net edge appends it to ERR BUSY.
  double retry_hint_ms() const;

  const SolutionCache& cache() const noexcept { return cache_; }
  const ServiceOptions& options() const noexcept { return options_; }

  /// The span flight recorder (disabled — empty snapshots — when
  /// options.trace_capacity is 0). The daemon's
  /// TRACE verbs read it.
  const obs::TraceCollector& trace() const noexcept { return trace_; }

  /// Queue shards == workers (each worker's home shard is its own).
  std::size_t shards() const noexcept { return queue_.shards(); }
  /// Currently queued jobs per shard (the daemon's STATS shard_depth).
  std::vector<std::size_t> shard_depths() const { return queue_.depths(); }
  /// Jobs served off a non-home shard since start (work-stealing volume).
  std::uint64_t queue_steals() const noexcept { return queue_.steals(); }

 private:
  JobTicket make_ticket(JobSpec&& spec);
  /// Looks `spec` up under the key and stripe the pool serves it with;
  /// true on a hit whose assignment fits the matrix.
  bool probe_cache(const JobSpec& spec, SolutionCache::Entry& out);
  /// Finishes an admitted job from the cache on the calling thread; false
  /// (nothing touched) when it must be queued instead.
  bool answer_from_cache(JobState& job);
  void source_warm_start(JobSpec& spec);
  void reject_unregistered(const JobTicket& ticket);
  void on_terminal(const JobState& job);

  ServiceOptions options_;
  ServiceMetrics metrics_;
  SolutionCache cache_;
  ShardedJobQueue queue_;
  obs::TraceCollector trace_;  ///< before pool_: workers write into it
  /// Serializes the writers of the admission metrics slot and the
  /// submission trace ring (answer_from_cache on any client thread).
  std::mutex admission_mutex_;
  obs::WorkerTracer admission_tracer_;  ///< bound to the submission ring

  mutable std::mutex registry_mutex_;
  std::unordered_map<JobId, JobTicket> registry_;
  mutable std::mutex completion_mutex_;       ///< guards completion_cb_
  CompletionCallback completion_cb_;          ///< see set_completion_callback
  std::deque<JobId> retired_;  ///< terminal order; bounds unwaited results
  std::atomic<JobId> next_id_{1};
  std::atomic<std::size_t> outstanding_{0};
  std::mutex drain_mutex_;
  std::condition_variable drained_;
  std::atomic<bool> shut_down_{false};
  std::mutex shutdown_mutex_;

  std::optional<SolverPool> pool_;  ///< last member: joins before the rest dies
};

}  // namespace pacga::service
