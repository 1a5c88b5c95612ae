// Flight recorder for the scheduler service: fixed-size span events in
// per-worker lock-free ring buffers.
//
// Every job's life is a handful of spans — queue wait, the serve envelope,
// cache probe, arena build, the solver phase — plus sampled per-generation
// convergence instants. Workers record them into their OWN bounded ring
// (single writer, no locks, no allocation: a record is six relaxed-atomic
// word stores and one release publish). When the ring wraps, the oldest
// spans are dropped — a flight recorder keeps the recent past, not the
// whole flight.
//
// Readers (the daemon's TRACE verbs, tests) snapshot a ring concurrently:
// copy records oldest-to-newest, then discard any record the writer could
// have been overwriting during the copy (its logical index has fallen out
// of the window [head_after - capacity + 1, head_after)). Word-granular
// relaxed atomics make the concurrent access defined (TSan-clean) and the
// post-copy window check makes it UNTORN: a record either survives intact
// or is dropped whole (test_obs races a writer against a reader to pin
// this).
//
// One more ring, the submission ring, holds what submitting threads
// record: a cache hit answered at admission never reaches a worker. Its
// writers take turns under the service's admission mutex, so the ring
// still sees one writer at a time.
//
// Timestamps are monotonic nanoseconds since the owning TraceCollector's
// construction (steady_clock), so spans from different workers order
// consistently and Chrome's trace viewer renders them on one timeline.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "support/threading.hpp"

namespace pacga::obs {

/// What a span records. Durations ("X" phases in the Chrome export):
/// kQueueWait through kPaCga. Instants ("i"): kGeneration and the
/// terminal markers.
enum class SpanKind : std::uint8_t {
  kQueueWait = 0,  ///< submitted -> picked up; a = shard, b = stolen(0|1)
  kServe,          ///< the whole worker-side serve envelope; b = status
  kCacheProbe,     ///< solution-cache lookup; b = hit(0|1)
  kArenaBuild,     ///< warm-arena cold (re)build; a = tasks, b = machines
  kHeuristic,      ///< Min-min/Sufferage solve phase
  kWarmCga,        ///< warm sequential CGA phase; a = generations
  kPaCga,          ///< PA-CGA escalation phase; a = generations
  kGeneration,     ///< sampled convergence probe; a = generation,
                   ///< b = bit_cast<uint64>(best_fitness)
  kCompleted,      ///< terminal instant; b = bit_cast<uint64>(makespan)
  kCancelled,      ///< terminal instant
  kFailed,         ///< terminal instant
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kFailed) + 1;

/// Stable lowercase name ("queue_wait", "warm_cga", ...) used by the
/// Chrome export, the TRACE timeline, and docs/OBSERVABILITY.md (the
/// docs drift gate greps both sides).
const char* to_string(SpanKind k) noexcept;

/// True for duration spans, false for instants.
bool span_has_duration(SpanKind k) noexcept;

/// One fixed-size trace record. ts_ns/dur_ns are nanoseconds on the
/// collector clock; a/b are kind-specific (see SpanKind).
struct SpanEvent {
  std::uint64_t job_id = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t worker = 0;
  SpanKind kind = SpanKind::kQueueWait;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Bounded single-writer ring of SpanEvents (see the file comment for the
/// reader protocol). Capacity is rounded up to a power of two.
class TraceRing {
 public:
  /// `capacity` 0 disables the ring (push is a branch, snapshots empty).
  explicit TraceRing(std::size_t capacity);

  /// Appends one record. ONLY the owning writer thread may call this.
  void push(const SpanEvent& e) noexcept;

  /// Concurrent-safe copy of the surviving window, oldest first.
  std::vector<SpanEvent> snapshot() const;

  /// Records ever pushed (monotone; survivors are the last <= capacity).
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const noexcept { return mask_ ? mask_ + 1 : 0; }

 private:
  /// One record as relaxed-atomic words: word-tear-free under a racing
  /// reader. Layout: job, ts, dur, kind|worker packed, a, b.
  static constexpr std::size_t kWords = 6;
  using Slot = std::atomic<std::uint64_t>[kWords];

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;               ///< capacity - 1 (power of two)
  std::atomic<std::uint64_t> head_{0};  ///< records published
};

/// The service-wide collector: one padded TraceRing per worker, the
/// submission ring, and the shared epoch clock. Workers write through
/// WorkerTracer; the daemon's TRACE verbs read merged snapshots.
class TraceCollector {
 public:
  /// `capacity` is PER RING (rounded up to a power of two); 0 builds a
  /// disabled collector.
  TraceCollector(std::size_t workers, std::size_t capacity);

  std::size_t workers() const noexcept { return rings_.size() - 1; }
  /// Index of the submission ring (one past the last worker); a
  /// WorkerTracer bound to it records with `worker` == workers(). Its
  /// writers must be serialized.
  std::size_t submission_lane() const noexcept { return workers(); }
  bool enabled() const noexcept;

  TraceRing& ring(std::size_t worker) { return *rings_[worker]; }
  const TraceRing& ring(std::size_t worker) const { return *rings_[worker]; }

  /// Nanoseconds since collector construction (the span clock).
  std::uint64_t now_ns() const noexcept;
  /// Converts a steady_clock time point (e.g. JobState::submitted) to the
  /// span clock; times before construction clamp to 0.
  std::uint64_t to_ns(std::chrono::steady_clock::time_point t) const noexcept;

  /// Merged snapshot of every ring, sorted by (ts, worker, kind).
  std::vector<SpanEvent> snapshot() const;
  /// The spans of one job, sorted by ts (scans every ring).
  std::vector<SpanEvent> job_spans(std::uint64_t job_id) const;

  /// Chrome trace_event JSON ("traceEvents" array of "X"/"i" events, µs
  /// timestamps; worker lanes pid=1, queue-wait lanes pid=2 keyed by
  /// shard, the submission lane pid=3). Loadable in chrome://tracing /
  /// Perfetto.
  void write_chrome_trace(std::ostream& out) const;

 private:
  std::vector<std::unique_ptr<TraceRing>> rings_;  ///< workers, submission
  std::chrono::steady_clock::time_point epoch_;
};

/// A worker's recording handle: binds (collector, worker) and hides the
/// disabled case so call sites stay branch-light. Safe to construct
/// null (tracing off).
class WorkerTracer {
 public:
  WorkerTracer() = default;
  WorkerTracer(TraceCollector* collector, std::size_t worker)
      : ring_(collector && collector->enabled() ? &collector->ring(worker)
                                                : nullptr),
        collector_(collector),
        worker_(static_cast<std::uint32_t>(worker)) {}

  bool enabled() const noexcept { return ring_ != nullptr; }

  /// Span clock read; 0 when disabled (callers gate on enabled()).
  std::uint64_t now_ns() const noexcept {
    return ring_ ? collector_->now_ns() : 0;
  }
  std::uint64_t to_ns(std::chrono::steady_clock::time_point t) const noexcept {
    return ring_ ? collector_->to_ns(t) : 0;
  }

  /// Duration span over [start_ns, end_ns] (clamped to start).
  void span(SpanKind kind, std::uint64_t job_id, std::uint64_t start_ns,
            std::uint64_t end_ns, std::uint64_t a = 0,
            std::uint64_t b = 0) noexcept {
    if (!ring_) return;
    SpanEvent e;
    e.job_id = job_id;
    e.ts_ns = start_ns;
    e.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
    e.worker = worker_;
    e.kind = kind;
    e.a = a;
    e.b = b;
    ring_->push(e);
  }

  /// Instant event at now().
  void instant(SpanKind kind, std::uint64_t job_id, std::uint64_t a = 0,
               std::uint64_t b = 0) noexcept {
    if (!ring_) return;
    SpanEvent e;
    e.job_id = job_id;
    e.ts_ns = collector_->now_ns();
    e.worker = worker_;
    e.kind = kind;
    e.a = a;
    e.b = b;
    ring_->push(e);
  }

 private:
  TraceRing* ring_ = nullptr;
  TraceCollector* collector_ = nullptr;
  std::uint32_t worker_ = 0;
};

/// Formats a job timeline as the daemon's one-line TRACE response body:
/// space-separated `<kind>@<start_ms>+<dur_ms>` tokens (instants omit
/// `+dur`), timestamps on the collector clock.
std::string format_job_timeline(const std::vector<SpanEvent>& spans);

}  // namespace pacga::obs
