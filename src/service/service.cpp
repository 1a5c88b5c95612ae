#include "service/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "support/failpoints.hpp"

namespace pacga::service {

namespace {

void validate_spec(const JobSpec& spec) {
  if (!spec.etc) throw std::invalid_argument("JobSpec: etc must be non-null");
  if (!(spec.deadline_ms > 0.0) || !std::isfinite(spec.deadline_ms))
    throw std::invalid_argument(
        "JobSpec: deadline_ms must be positive and finite");
  if (spec.policy == SolvePolicy::kWarmStart)
    throw std::invalid_argument(
        "JobSpec: kWarmStart is result provenance, not a requestable policy");
  if (!spec.warm_start.empty()) {
    if (spec.warm_start.size() != spec.etc->tasks())
      throw std::invalid_argument(
          "JobSpec: warm_start size must equal etc tasks");
    for (sched::MachineId m : spec.warm_start) {
      if (m >= spec.etc->machines())
        throw std::invalid_argument(
            "JobSpec: warm_start machine id out of range");
    }
  }
}

}  // namespace

SchedulerService::SchedulerService(ServiceOptions options)
    : options_(std::move(options)),
      metrics_(std::max<std::size_t>(1, options_.workers)),
      // One queue shard and one cache stripe per worker: each worker's home
      // shard is its own, and the shape hash that routes a job to a shard
      // also picks its cache stripe.
      cache_(options_.cache_capacity, std::max<std::size_t>(1, options_.workers)),
      queue_(options_.queue_capacity, std::max<std::size_t>(1, options_.workers)),
      trace_(std::max<std::size_t>(1, options_.workers),
             options_.trace_capacity),
      admission_tracer_(&trace_, trace_.submission_lane()) {
  SolverPoolOptions pool_options;
  pool_options.workers = options_.workers;
  pool_options.solver = options_.solver;
  pool_options.supervision = options_.supervision;
  pool_.emplace(queue_, cache_, metrics_, std::move(pool_options), &trace_,
                [this](const JobState& job) { on_terminal(job); });
}

SchedulerService::~SchedulerService() { shutdown(); }

JobTicket SchedulerService::make_ticket(JobSpec&& spec) {
  validate_spec(spec);
  if (shut_down_.load())
    throw std::runtime_error("SchedulerService: shut down");
  auto ticket = std::make_shared<JobState>();
  ticket->spec = std::move(spec);
  ticket->submitted = std::chrono::steady_clock::now();
  // Shape-affine shard assignment, tagged once here: the queue routes
  // admission by it, cancel removes by it, and the pool uses it as the
  // cache stripe.
  ticket->shard = static_cast<std::uint32_t>(queue_.shard_of_shape(
      ticket->spec.etc->tasks(), ticket->spec.etc->machines()));
  // Cap at ~1000 days: duration_cast of a larger double to the clock's
  // integral nanosecond rep would overflow (UB) and wrap an effectively
  // infinite deadline into one already in the past.
  const double capped_ms = std::min(ticket->spec.deadline_ms, 8.64e10);
  ticket->deadline =
      ticket->submitted +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(capped_ms));
  ticket->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ticket->result.id = ticket->id;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    registry_.emplace(ticket->result.id, ticket);
  }
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  return ticket;
}

void SchedulerService::reject_unregistered(const JobTicket& ticket) {
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    registry_.erase(ticket->result.id);
  }
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drained_.notify_all();
  }
}

bool SchedulerService::probe_cache(const JobSpec& spec,
                                   SolutionCache::Entry& out) {
  const std::uint64_t key =
      SolverPool::cache_key(*spec.etc, options_.solver, spec.policy);
  // Same stripe the pool stores under: stripe follows the queue shard,
  // which is a pure function of the instance shape.
  const std::size_t stripe =
      queue_.shard_of_shape(spec.etc->tasks(), spec.etc->machines());
  return cache_.lookup(stripe, key, out) &&
         out.assignment.size() == spec.etc->tasks();
}

bool SchedulerService::answer_from_cache(JobState& job) {
  // Warm-started jobs re-optimize, so they never serve from the cache.
  if (!job.spec.use_cache || !job.spec.warm_start.empty()) return false;
  const auto probe_start = std::chrono::steady_clock::now();
  SolutionCache::Entry cached;
  if (!probe_cache(job.spec, cached)) return false;
  const auto probe_end = std::chrono::steady_clock::now();

  JobResult out;
  out.id = job.id;
  out.status = JobStatus::kDone;
  out.assignment = std::move(cached.assignment);
  out.makespan = cached.fitness;
  out.policy_used = cached.policy;  // provenance: what PRODUCED it
  out.cache_hit = true;
  out.deadline_missed = probe_end > job.deadline;
  out.solve_seconds =
      std::chrono::duration<double>(probe_end - probe_start).count();
  const double e2e_seconds =
      std::chrono::duration<double>(probe_end - job.submitted).count();
  metrics_.on_submit();
  // Same commit as a worker's: the accounting is visible before any
  // waiter wakes. Nothing else can have finished a job that was never
  // queued, but a lost commit would still touch nothing.
  const bool won = job.try_finish_with(std::move(out), [&] {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    if (admission_tracer_.enabled()) {
      admission_tracer_.span(obs::SpanKind::kCacheProbe, job.id,
                             admission_tracer_.to_ns(probe_start),
                             admission_tracer_.to_ns(probe_end), 0, 1);
      admission_tracer_.instant(obs::SpanKind::kCompleted, job.id, 0,
                                std::bit_cast<std::uint64_t>(out.makespan));
    }
    metrics_.on_admission_hit(out.solve_seconds, out.deadline_missed,
                              e2e_seconds);
  });
  if (won) on_terminal(job);
  return true;
}

JobId SchedulerService::submit(JobSpec spec) {
  PACGA_FAILPOINT("queue.submit");
  JobTicket ticket = make_ticket(std::move(spec));
  const JobId id = ticket->result.id;
  if (answer_from_cache(*ticket)) return id;
  JobTicket keep = ticket;  // queue takes one reference, we keep one
  if (!queue_.submit(std::move(ticket))) {
    // Shutdown raced the admission.
    reject_unregistered(keep);
    throw std::runtime_error("SchedulerService: shut down during submit");
  }
  metrics_.on_submit();
  return id;
}

void SchedulerService::source_warm_start(JobSpec& spec) {
  if (!spec.warm_start.empty() || !spec.use_cache) return;
  SolutionCache::Entry cached;
  if (probe_cache(spec, cached)) spec.warm_start = std::move(cached.assignment);
}

JobId SchedulerService::submit_reschedule(JobSpec spec) {
  validate_spec(spec);
  source_warm_start(spec);
  const JobId id = submit(std::move(spec));  // may throw: count admissions only
  metrics_.on_reschedule();
  return id;
}

std::optional<JobId> SchedulerService::try_submit_reschedule(JobSpec spec) {
  validate_spec(spec);
  source_warm_start(spec);
  const std::optional<JobId> id = try_submit(std::move(spec));
  if (id) metrics_.on_reschedule();
  return id;
}

std::optional<JobId> SchedulerService::try_submit(JobSpec spec) {
  PACGA_FAILPOINT("queue.submit");
  JobTicket ticket = make_ticket(std::move(spec));
  const JobId id = ticket->result.id;
  if (answer_from_cache(*ticket)) return id;  // a hit is never shed
  JobTicket keep = ticket;  // queue takes one reference, we keep one
  // Watermark shedding: refuse BEFORE the shard is hard-full, so the
  // remaining headroom keeps absorbing retries and in-flight work while
  // clients are told to back off. Disabled at the default watermark 1.0
  // (only a truly full shard rejects, below).
  if (options_.shed_watermark < 1.0 &&
      static_cast<double>(queue_.depth(ticket->shard)) >=
          options_.shed_watermark *
              static_cast<double>(queue_.shard_capacity(ticket->shard))) {
    reject_unregistered(keep);
    metrics_.on_shed();
    metrics_.on_reject();
    return std::nullopt;
  }
  if (!queue_.try_submit(std::move(ticket))) {
    reject_unregistered(keep);
    // Distinguish shutdown from congestion: a load-shedder treats nullopt
    // as "back off and retry", which must not loop against a dead service
    // (and must not inflate the rejected metric).
    if (queue_.closed())
      throw std::runtime_error("SchedulerService: shut down during submit");
    metrics_.on_reject();
    return std::nullopt;
  }
  metrics_.on_submit();
  return id;
}

JobResult SchedulerService::wait(JobId id) {
  JobTicket ticket;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = registry_.find(id);
    if (it == registry_.end())
      throw std::invalid_argument("SchedulerService::wait: unknown job id");
    ticket = it->second;
  }
  JobResult result = ticket->await();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    registry_.erase(id);
  }
  return result;
}

SchedulerService::Poll SchedulerService::poll_result(JobId id, JobResult& out) {
  JobTicket ticket;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = registry_.find(id);
    if (it == registry_.end()) return Poll::kUnknown;
    ticket = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(ticket->mutex);
    if (!ticket->finished) return Poll::kPending;
    out = ticket->result;
  }
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    registry_.erase(id);
  }
  return Poll::kReady;
}

void SchedulerService::set_completion_callback(CompletionCallback cb) {
  std::lock_guard<std::mutex> lock(completion_mutex_);
  completion_cb_ = std::move(cb);
}

bool SchedulerService::cancel(JobId id) {
  JobTicket ticket;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = registry_.find(id);
    if (it == registry_.end()) return false;
    ticket = it->second;
  }
  ticket->cancel.store(true, std::memory_order_relaxed);
  if (queue_.remove(ticket.get())) {
    // Never ran: finish it here, on the canceller's thread. The commit
    // can still lose to a concurrent finisher (e.g. the watchdog), in
    // which case fall through to the already-finished report below.
    JobResult r;
    r.id = ticket->id;
    r.status = JobStatus::kCancelled;
    r.retries = ticket->attempts;
    if (ticket->try_finish_with(std::move(r), [&] { metrics_.on_cancel(); })) {
      on_terminal(*ticket);
      return true;
    }
  }
  // Either running (the flag stops it within a generation) or already
  // finished (the flag is moot).
  {
    std::lock_guard<std::mutex> lock(ticket->mutex);
    return !ticket->finished;
  }
}

double SchedulerService::retry_hint_ms() const {
  std::size_t deepest = 1;
  for (std::size_t d : queue_.depths()) deepest = std::max(deepest, d);
  const double hint =
      metrics_.approx_solve_p50_ms() * static_cast<double>(deepest);
  return std::clamp(hint, 1.0, 10000.0);
}

void SchedulerService::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [this] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
}

void SchedulerService::shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);  // serialize joiners
  if (!shut_down_.exchange(true)) {
    queue_.close();  // admission off; workers drain the remainder
  }
  if (pool_) pool_->join();
}

void SchedulerService::on_terminal(const JobState& job) {
  {
    // Bound the registry: results linger for late wait() calls, but only
    // the most recent kRetainedResults terminal jobs; a fire-and-forget
    // tenant must not grow the service without limit.
    std::lock_guard<std::mutex> lock(registry_mutex_);
    retired_.push_back(job.result.id);
    while (retired_.size() > kRetainedResults) {
      registry_.erase(retired_.front());  // no-op when already waited
      retired_.pop_front();
    }
  }
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drained_.notify_all();
  }
  // Completion notification LAST: by the time a listener polls the id, the
  // result is published and the drain accounting has already seen the job.
  CompletionCallback cb;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    cb = completion_cb_;
  }
  if (cb) cb(job.result.id);
}

}  // namespace pacga::service
