// Log-bucketed latency histogram — the service's one latency record per
// worker and metric (service/metrics.hpp keeps three per worker).
//
// Layout (HDR-histogram style, power-of-2 majors with linear sub-buckets):
// values below kSubBuckets (32) are recorded EXACTLY, one bucket per value;
// above that, each power-of-2 range [2^e, 2^(e+1)) is split into 32 linear
// sub-buckets, so any recorded value is reported within 1/32 (~3.2%) of its
// true magnitude. Values are unsigned 64-bit nanoseconds; anything at or
// above 2^kMaxExponent ns (~18 minutes) saturates into the last bucket.
// Beside the buckets the histogram keeps the EXACT sum, min and max of its
// samples, so mean, min and max need no second accumulator.
//
// Concurrency contract: each histogram has EXACTLY ONE writer (its pinned
// worker), which bumps its counters with single-writer relaxed load/store
// (no RMW, no shared line); a concurrent snapshot() reads them relaxed
// from another thread. A snapshot racing a record() may miss the in-flight
// sample or see it in some fields only — one sample in a monitoring view —
// but never tears: every field is an atomic word. Merging per-worker
// snapshots is integer addition (buckets, sum) and min/max, so the merge
// of N single-writer histograms is BIT-EQUAL to one serial histogram fed
// the same samples in any order (test_obs pins this).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
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

/// Immutable copy of a histogram's bucket counts, sum, min and max. Plain
/// integers: merging and comparing are exact.
class HistogramSnapshot {
 public:
  HistogramSnapshot() = default;
  HistogramSnapshot(std::vector<std::uint64_t> counts, std::uint64_t sum_ns,
                    std::uint64_t min_ns, std::uint64_t max_ns)
      : counts_(std::move(counts)),
        sum_ns_(sum_ns),
        min_ns_(min_ns),
        max_ns_(max_ns) {}

  /// Adds `other` into this one (parallel-reduction form).
  void merge(const HistogramSnapshot& other);

  std::uint64_t count() const noexcept;
  bool empty() const noexcept { return count() == 0; }

  /// Sum of the samples (modulo 2^64: about 584 years of latency).
  std::uint64_t sum_ns() const noexcept { return sum_ns_; }
  /// Smallest / largest sample; 2^64 - 1 / 0 when empty.
  std::uint64_t min_ns() const noexcept { return min_ns_; }
  std::uint64_t max_ns() const noexcept { return max_ns_; }

  /// Exact mean in milliseconds; 0 when empty.
  double mean_ms() const noexcept;
  /// Exact min / max in milliseconds; quiet NaN when empty.
  double min_ms() const noexcept { return or_nan(min_ns_); }
  double max_ms() const noexcept { return or_nan(max_ns_); }

  /// Quantile in NANOSECONDS: the reported value of the bucket where the
  /// cumulative count first reaches ceil(q * count), q clamped to [0,1].
  /// Quiet NaN when the histogram is empty (as min_ms / max_ms).
  double quantile_ns(double q) const noexcept;
  /// Same, in milliseconds (the daemon/bench reporting unit).
  double quantile_ms(double q) const noexcept { return quantile_ns(q) / 1e6; }

  const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

 private:
  double or_nan(std::uint64_t ns) const noexcept {
    return empty() ? std::numeric_limits<double>::quiet_NaN()
                   : static_cast<double>(ns) / 1e6;
  }

  std::vector<std::uint64_t> counts_;  ///< empty or kHistBuckets entries
  std::uint64_t sum_ns_ = 0;
  std::uint64_t min_ns_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ns_ = 0;
};

/// The live single-writer histogram (see the file comment for the
/// concurrency contract). Buckets are allocated at construction so the
/// recording path never allocates (the warm-solver zero-alloc proofs
/// cover it).
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records one sample; only the owning writer thread may call this.
  /// The bucket is bumped last, so a snapshot that counts the sample has
  /// its sum, min and max too on any machine that keeps store order.
  void record_ns(std::uint64_t ns) noexcept {
    sum_ns_.store(sum_ns_.load(std::memory_order_relaxed) + ns,
                  std::memory_order_relaxed);
    if (ns < min_ns_.load(std::memory_order_relaxed))
      min_ns_.store(ns, std::memory_order_relaxed);
    if (ns > max_ns_.load(std::memory_order_relaxed))
      max_ns_.store(ns, std::memory_order_relaxed);
    std::atomic<std::uint64_t>& c = counts_[hist_index_of(ns)];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;

  /// Seconds convenience for the service's double-seconds timings (clamped
  /// to [0, 2^63) ns).
  void record_seconds(double seconds) noexcept;

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> min_ns_{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_ns_{0};
};

}  // namespace pacga::obs
