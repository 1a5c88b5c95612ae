#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace pacga::obs {

std::size_t hist_index_of(std::uint64_t ns) noexcept {
  if (ns < kHistSubBuckets) return static_cast<std::size_t>(ns);
  // 2^e <= ns < 2^(e+1); the top kHistSubBucketBits+1 bits select the
  // sub-bucket (the leading 1 contributes the major offset).
  const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(ns));
  if (e >= kHistMaxExponent) return kHistBuckets - 1;
  const std::uint64_t sub =
      (ns >> (e - kHistSubBucketBits)) - kHistSubBuckets;  // in [0, 32)
  return static_cast<std::size_t>(
      (e - kHistSubBucketBits + 1) * kHistSubBuckets + sub);
}

std::uint64_t hist_value_at(std::size_t index) noexcept {
  if (index < kHistSubBuckets) return index;  // exact buckets
  const std::uint64_t major = index / kHistSubBuckets;  // >= 1
  const std::uint64_t sub = index % kHistSubBuckets;
  const unsigned e = static_cast<unsigned>(major - 1) + kHistSubBucketBits;
  const std::uint64_t lower = (kHistSubBuckets + sub) << (e - kHistSubBucketBits);
  const std::uint64_t width = 1ull << (e - kHistSubBucketBits);
  return lower + width - 1;  // highest equivalent value
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.counts_.empty()) return;
  if (counts_.empty()) {
    *this = other;
    return;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  sum_ns_ += other.sum_ns_;
  min_ns_ = std::min(min_ns_, other.min_ns_);
  max_ns_ = std::max(max_ns_, other.max_ns_);
}

std::uint64_t HistogramSnapshot::count() const noexcept {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts_) n += c;
  return n;
}

double HistogramSnapshot::mean_ms() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0
                : static_cast<double>(sum_ns_) / static_cast<double>(n) / 1e6;
}

double HistogramSnapshot::quantile_ns(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // ceil without float drift for the q=1 edge.
  std::uint64_t target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (target == 0) target = 1;
  if (target > total) target = total;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= target) return static_cast<double>(hist_value_at(i));
  }
  return static_cast<double>(hist_value_at(counts_.size() - 1));
}

LatencyHistogram::LatencyHistogram()
    : counts_(std::make_unique<std::atomic<std::uint64_t>[]>(kHistBuckets)) {
  for (std::size_t i = 0; i < kHistBuckets; ++i)
    counts_[i].store(0, std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  // Buckets before sum, min and max (record_ns() stores them in the
  // opposite order), so a sample counted here is in those fields too.
  std::vector<std::uint64_t> out(kHistBuckets);
  for (std::size_t i = 0; i < kHistBuckets; ++i)
    out[i] = counts_[i].load(std::memory_order_relaxed);
  return HistogramSnapshot(std::move(out),
                           sum_ns_.load(std::memory_order_relaxed),
                           min_ns_.load(std::memory_order_relaxed),
                           max_ns_.load(std::memory_order_relaxed));
}

void LatencyHistogram::record_seconds(double seconds) noexcept {
  if (!(seconds > 0.0)) {  // negative clock skew and NaN clamp to 0
    record_ns(0);
    return;
  }
  const double ns = seconds * 1e9;
  record_ns(ns >= 9.2e18 ? std::numeric_limits<std::uint64_t>::max()
                         : static_cast<std::uint64_t>(ns));
}

}  // namespace pacga::obs
