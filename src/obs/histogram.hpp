// Log-bucketed latency histogram — the percentile counterpart of the
// per-worker Welford slots in service/metrics.hpp.
//
// Layout (HDR-histogram style, power-of-2 majors with linear sub-buckets):
// values below kSubBuckets (32) are recorded EXACTLY, one bucket per value;
// above that, each power-of-2 range [2^e, 2^(e+1)) is split into 32 linear
// sub-buckets, so any recorded value is reported within 1/32 (~3.2%) of its
// true magnitude. Values are unsigned 64-bit nanoseconds; anything at or
// above 2^kMaxExponent ns (~18 minutes) saturates into the last bucket.
//
// Concurrency contract — identical to ServiceMetrics' OwnedStats: each
// histogram has EXACTLY ONE writer (its pinned worker), which bumps bucket
// counters with single-writer relaxed load/store (no RMW, no shared line);
// a concurrent snapshot() reads the counters relaxed from another thread.
// A snapshot racing a record() may miss the in-flight sample — one count in
// a monitoring view — but never tears: every counter is an atomic word.
// Merging per-worker snapshots is integer bucket addition, so the merge of
// N single-writer histograms is BIT-EQUAL to one serial histogram fed the
// same samples in any order (test_obs pins this).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace pacga::obs {

/// Bucket geometry, shared by the live histogram and its snapshots.
inline constexpr unsigned kHistSubBucketBits = 5;  ///< 32 sub-buckets: ~3.2%
inline constexpr std::uint64_t kHistSubBuckets = 1ull << kHistSubBucketBits;
/// Values at or above 2^kHistMaxExponent ns (~18.3 min) saturate.
inline constexpr unsigned kHistMaxExponent = 40;
inline constexpr std::size_t kHistBuckets =
    (kHistMaxExponent - kHistSubBucketBits) * kHistSubBuckets + kHistSubBuckets;

/// Bucket index of a nanosecond value (saturating at kHistBuckets - 1).
std::size_t hist_index_of(std::uint64_t ns) noexcept;

/// Highest value mapping into bucket `index` — the value a quantile read
/// reports for samples in that bucket (exact for the first 32 buckets,
/// within 1/32 above). `index` must be < kHistBuckets.
std::uint64_t hist_value_at(std::size_t index) noexcept;

/// Immutable copy of a histogram's bucket counts. Plain integers: merging
/// and comparing are exact.
class HistogramSnapshot {
 public:
  HistogramSnapshot() = default;
  explicit HistogramSnapshot(std::vector<std::uint64_t> counts)
      : counts_(std::move(counts)) {}

  /// Adds `other`'s buckets into this one (parallel-reduction form).
  void merge(const HistogramSnapshot& other);

  std::uint64_t count() const noexcept;
  bool empty() const noexcept { return count() == 0; }

  /// Quantile in NANOSECONDS: the reported value of the bucket where the
  /// cumulative count first reaches ceil(q * count), q clamped to [0,1].
  /// Quiet NaN when the histogram is empty (mirrors RunningStats::min).
  double quantile_ns(double q) const noexcept;
  /// Same, in milliseconds (the daemon/bench reporting unit).
  double quantile_ms(double q) const noexcept { return quantile_ns(q) / 1e6; }

  const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

 private:
  std::vector<std::uint64_t> counts_;  ///< empty or kHistBuckets entries
};

/// The live single-writer histogram (see the file comment for the
/// concurrency contract). Storage is allocated on first use is NOT the
/// model — buckets are allocated at construction so the recording path
/// never allocates (the warm-solver zero-alloc proofs cover it).
class LatencyHistogram {
 public:
  LatencyHistogram() : LatencyHistogram(true) {}
  /// `enabled == false` skips the storage entirely: record() is a pointer
  /// test and snapshots are empty (the runtime observability switch).
  explicit LatencyHistogram(bool enabled);

  /// Records one sample; only the owning writer thread may call this.
  void record_ns(std::uint64_t ns) noexcept {
    if (!counts_) return;
    std::atomic<std::uint64_t>& c = counts_[hist_index_of(ns)];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  /// Seconds convenience for the service's double-seconds timings (clamped
  /// to [0, 2^63) ns).
  void record_seconds(double seconds) noexcept;

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
};

}  // namespace pacga::obs
