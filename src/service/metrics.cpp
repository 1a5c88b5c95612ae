#include "service/metrics.hpp"

#include <stdexcept>

namespace pacga::service {

ServiceMetrics::ServiceMetrics(std::size_t workers) : slots_(workers) {
  if (workers == 0)
    throw std::invalid_argument("ServiceMetrics: workers must be >= 1");
}

void ServiceMetrics::record(WorkerSlot& s, double queue_wait_seconds,
                            double solve_seconds, bool cache_hit,
                            bool deadline_missed,
                            double e2e_seconds) noexcept {
  s.completed.fetch_add(1, std::memory_order_relaxed);
  if (cache_hit) s.cache_hits.fetch_add(1, std::memory_order_relaxed);
  if (deadline_missed)
    s.deadline_misses.fetch_add(1, std::memory_order_relaxed);
  s.wait_hist.record_seconds(queue_wait_seconds);
  s.solve_hist.record_seconds(solve_seconds);
  s.e2e_hist.record_seconds(e2e_seconds < 0.0
                                ? queue_wait_seconds + solve_seconds
                                : e2e_seconds);
}

void ServiceMetrics::on_complete(std::size_t worker,
                                 double queue_wait_seconds,
                                 double solve_seconds, bool cache_hit,
                                 bool deadline_missed,
                                 double e2e_seconds) noexcept {
  record(*slots_[worker % slots_.size()], queue_wait_seconds, solve_seconds,
         cache_hit, deadline_missed, e2e_seconds);
}

void ServiceMetrics::on_admission_hit(double probe_seconds,
                                      bool deadline_missed,
                                      double e2e_seconds) noexcept {
  record(*admission_, 0.0, probe_seconds, true, deadline_missed, e2e_seconds);
}

void ServiceMetrics::on_fail(std::size_t worker) noexcept {
  slots_[worker % slots_.size()]->failed.fetch_add(1,
                                                   std::memory_order_relaxed);
}

void ServiceMetrics::add_arena_builds(std::size_t worker,
                                      std::uint64_t n) noexcept {
  slots_[worker % slots_.size()]->arena_builds.fetch_add(
      n, std::memory_order_relaxed);
}

ServiceMetrics::Snapshot ServiceMetrics::snapshot() const {
  Snapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.reschedules = reschedules_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.stalled = stalled_.load(std::memory_order_relaxed);
  s.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  s.failed = failed_external_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  // Folds one slot into the totals and returns its completions.
  const auto fold = [&s](const WorkerSlot& w) {
    const std::uint64_t done = w.completed.load(std::memory_order_relaxed);
    s.completed += done;
    s.failed += w.failed.load(std::memory_order_relaxed);
    s.cache_hits += w.cache_hits.load(std::memory_order_relaxed);
    s.deadline_misses += w.deadline_misses.load(std::memory_order_relaxed);
    s.arena_builds += w.arena_builds.load(std::memory_order_relaxed);
    s.queue_wait_hist.merge(w.wait_hist.snapshot());
    s.solve_hist.merge(w.solve_hist.snapshot());
    s.e2e_hist.merge(w.e2e_hist.snapshot());
    return done;
  };
  s.worker_completed.reserve(slots_.size());
  for (const auto& padded : slots_) s.worker_completed.push_back(fold(*padded));
  s.admission_hits = fold(*admission_);
  s.elapsed_seconds = clock_.elapsed_seconds();
  return s;
}

double ServiceMetrics::approx_solve_p50_ms() const {
  // A pressure hint, not an SLO figure: merge-once per rejection is fine
  // because rejections are the rare path by construction.
  obs::HistogramSnapshot hist;
  for (const auto& padded : slots_) hist.merge(padded->solve_hist.snapshot());
  const double p50 = hist.quantile_ms(0.50);
  return (p50 == p50 && p50 > 0.0) ? p50 : 1.0;  // finite and positive
}

}  // namespace pacga::service
