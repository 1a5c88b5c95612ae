// Contention-free running metrics of the scheduler service.
//
// The completion path — the hottest metrics path, hit once per served job
// by every worker — touches ONLY that worker's own cache-line-padded slot:
// event counters and three latency histograms (queue wait, solve,
// end-to-end), all single-writer relaxed atomics (the DPDK per-lcore
// idiom). No RMW on a shared line, no mutex, no synchronization between
// workers at all; snapshot() merges the slots on demand. Every merged
// figure is an integer sum, min or max, so the merge is exact in any
// order and repeated snapshots of a quiesced service are bit-identical.
//
// Events that originate OUTSIDE a worker thread (submit, reject, cancel,
// reschedule — any client thread may raise them) stay shared relaxed-RMW
// counters: they are orders of magnitude rarer than completions and have
// no natural owning worker. The one completion that happens off a worker,
// a cache hit answered at admission, records into a separate admission
// slot of the same shape, whose writers the service serializes.
//
// Why relaxed atomics instead of plain fields in the slots: each slot has
// exactly one writer (its pinned worker), but snapshot() reads concurrently
// from another thread. Relaxed loads/stores make that race defined (and
// TSan-clean) at zero cost on every relevant ISA — they compile to the same
// plain moves, and there is still no RMW and no shared line. A snapshot
// racing a completion may miss that one in-flight sample; final totals are
// exact because workers have quiesced by then.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/histogram.hpp"
#include "support/threading.hpp"
#include "support/timer.hpp"

namespace pacga::service {

class ServiceMetrics {
 public:
  /// One slot per pool worker; `workers` must be >= 1.
  explicit ServiceMetrics(std::size_t workers);

  /// Consistent-enough copy of all metrics at one instant.
  struct Snapshot {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  ///< finished with a result (kDone)
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;     ///< solver threw (kFailed)
    std::uint64_t rejected = 0;   ///< try_submit refused: queue full
    std::uint64_t reschedules = 0;  ///< submit_reschedule admissions
    std::uint64_t retries = 0;      ///< failed attempts re-queued for retry
    std::uint64_t quarantined = 0;  ///< jobs that exhausted max_retries
    std::uint64_t stalled = 0;      ///< jobs the watchdog declared stuck
    std::uint64_t worker_restarts = 0;  ///< workers respawned by watchdog
    std::uint64_t shed = 0;  ///< submissions refused by the shard watermark
    std::uint64_t cache_hits = 0;
    /// Cache hits answered on the submitting thread, never queued: the
    /// completions no worker served, so
    /// sum(worker_completed) + admission_hits == completed.
    std::uint64_t admission_hits = 0;
    std::uint64_t deadline_misses = 0;
    /// Warm-arena rebuilds across all workers — the shape-affinity figure
    /// of merit: with perfect pinning it approaches (shapes x workers that
    /// ever touched them); thrash shows up as a multiple of completions.
    std::uint64_t arena_builds = 0;
    /// Jobs served per worker (index = worker id). Skew here is expected
    /// and healthy under shape affinity; all-but-one-zero under a mixed
    /// workload means stealing is broken.
    std::vector<std::uint64_t> worker_completed;
    /// Latency distributions merged across workers: exact count, sum,
    /// min and max beside the log buckets the quantiles read.
    obs::HistogramSnapshot queue_wait_hist;
    obs::HistogramSnapshot solve_hist;
    obs::HistogramSnapshot e2e_hist;  ///< submit -> terminal
    double elapsed_seconds = 0.0;  ///< since service start

    double jobs_per_second() const noexcept {
      return elapsed_seconds > 0.0
                 ? static_cast<double>(completed) / elapsed_seconds
                 : 0.0;
    }
    double deadline_miss_rate() const noexcept {
      return completed > 0
                 ? static_cast<double>(deadline_misses) /
                       static_cast<double>(completed)
                 : 0.0;
    }
    double cache_hit_rate() const noexcept {
      return completed > 0 ? static_cast<double>(cache_hits) /
                                 static_cast<double>(completed)
                           : 0.0;
    }
  };

  void on_submit() noexcept {
    submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_reject() noexcept {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_cancel() noexcept {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_reschedule() noexcept {
    reschedules_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_retry() noexcept {
    retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_quarantine() noexcept {
    quarantined_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A watchdog-declared stall: counts both the stalled event and the
  /// off-worker terminal failure (the job never returns to a worker slot).
  void on_stall() noexcept {
    stalled_.fetch_add(1, std::memory_order_relaxed);
    failed_external_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_worker_restart() noexcept {
    worker_restarts_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A job failed terminally outside any worker slot (e.g. a pending
  /// retry abandoned at shutdown). Folded into Snapshot::failed.
  void on_fail_external() noexcept {
    failed_external_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A submission refused by the queue-pressure watermark. The caller
  /// also raises on_reject(): shed is the "why" breakdown of rejected.
  void on_shed() noexcept {
    shed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Completion-path events: touch only slot `worker`'s cache line. The
  /// caller must be the single thread that owns that slot.
  /// `e2e_seconds` is the submit->terminal latency; negative (the default)
  /// derives it as queue_wait + solve.
  void on_complete(std::size_t worker, double queue_wait_seconds,
                   double solve_seconds, bool cache_hit,
                   bool deadline_missed, double e2e_seconds = -1.0) noexcept;
  /// A cache hit answered at admission: records into the admission slot
  /// with zero queue wait and the probe time as its solve time. The slot
  /// has no owning thread, so callers must serialize (the service holds
  /// its admission mutex).
  void on_admission_hit(double probe_seconds, bool deadline_missed,
                        double e2e_seconds) noexcept;
  void on_fail(std::size_t worker) noexcept;
  /// Folds `n` warm-arena rebuilds into slot `worker` (reported as a diff
  /// per job by the pool, so idle workers cost nothing).
  void add_arena_builds(std::size_t worker, std::uint64_t n) noexcept;

  std::size_t workers() const noexcept { return slots_.size(); }

  Snapshot snapshot() const;

  /// Cheap estimate of the p50 per-job solve latency in milliseconds,
  /// for the overload-shedding retry hint: the workers' solve histogram
  /// median (admission hits never wait for a worker, so their slot is
  /// left out), 1 ms when nothing has been served yet. Never returns a
  /// non-finite or non-positive value.
  double approx_solve_p50_ms() const;

 private:
  /// Per-worker metric slot; cache-line aligned and padded (never shares a
  /// line with a neighbor slot), exactly one writing thread.
  struct WorkerSlot {
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> deadline_misses{0};
    std::atomic<std::uint64_t> arena_builds{0};
    /// Buckets allocated at construction so the recording path never
    /// allocates.
    obs::LatencyHistogram wait_hist;
    obs::LatencyHistogram solve_hist;
    obs::LatencyHistogram e2e_hist;
  };

  static void record(WorkerSlot& s, double queue_wait_seconds,
                     double solve_seconds, bool cache_hit,
                     bool deadline_missed, double e2e_seconds) noexcept;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> reschedules_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> stalled_{0};
  std::atomic<std::uint64_t> worker_restarts_{0};
  std::atomic<std::uint64_t> failed_external_{0};  ///< off-worker failures
  std::atomic<std::uint64_t> shed_{0};
  std::vector<support::Padded<WorkerSlot>> slots_;
  support::Padded<WorkerSlot> admission_;  ///< see on_admission_hit
  support::WallTimer clock_;  ///< started at service construction
};

}  // namespace pacga::service
