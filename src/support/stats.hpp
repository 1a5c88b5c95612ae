// Statistics toolkit used by the benchmark harness and the engine traces.
// The service keeps its latencies in obs::LatencyHistogram, not here.
//
// Everything here is deliberately dependency-free: the harness must compute
// the same summaries the paper plots (means over 100 runs, box plots with
// 95 % median notches for Figure 5, rank tests for the significance claims).
#pragma once

#include <cstddef>
#include <vector>

namespace pacga::support {

/// Streaming mean/variance accumulator (Welford). Numerically stable; O(1)
/// per observation, no storage of the sample.
class RunningStats {
 public:
  void add(double x) noexcept;
  /// Merges another accumulator (parallel reduction form of Welford).
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 observations.
  double variance() const noexcept;
  double stddev() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Linear-interpolation quantile (type-7, the R/NumPy default).
/// `q` in [0,1]. The sample is copied and sorted internally.
double quantile(std::vector<double> sample, double q);

/// Five-number summary + notch bounds, the exact quantities behind the
/// paper's Figure 5 box plots. Notches follow the McGill/Chambers/Larsen
/// rule used by MATLAB/R: median +/- 1.57*IQR/sqrt(n); non-overlapping
/// notches indicate the true medians differ at ~95 % confidence.
struct BoxStats {
  std::size_t n = 0;
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double notch_lo = 0.0;
  double notch_hi = 0.0;
  double mean = 0.0;
};

BoxStats box_stats(std::vector<double> sample);

/// Result of a two-sided Mann-Whitney U test (normal approximation with
/// tie correction). Valid for sample sizes >= 8 per group, which the
/// 100-run campaigns comfortably exceed.
struct MannWhitneyResult {
  double u = 0.0;       ///< U statistic of the first sample.
  double z = 0.0;       ///< Normal approximation z-score.
  double p_value = 1.0; ///< Two-sided p-value.
};

MannWhitneyResult mann_whitney_u(const std::vector<double>& a,
                                 const std::vector<double>& b);

/// 95 % confidence half-width of the mean assuming normality (1.96 * sem).
/// Good enough for the 100-run campaign summaries.
double ci95_halfwidth(const RunningStats& s) noexcept;

/// Friedman rank test: are k algorithms distinguishable across n problem
/// instances (blocks)? The standard omnibus test of the metaheuristics
/// literature for tables like the paper's Table 2.
struct FriedmanResult {
  double statistic = 0.0;          ///< chi-squared statistic, k-1 dof
  double p_value = 1.0;
  std::vector<double> mean_ranks;  ///< per-algorithm mean rank (1 = best)
};

/// `blocks[i][j]` is algorithm j's score on instance i (lower is better).
/// Requires >= 2 algorithms and >= 2 blocks, all rows equally sized.
FriedmanResult friedman_test(const std::vector<std::vector<double>>& blocks);

/// Survival function of the chi-squared distribution, P(X >= x) with
/// `dof` degrees of freedom. Regularized incomplete gamma implementation
/// (series + continued fraction), accurate to ~1e-10 for moderate dof.
double chi_squared_sf(double x, double dof);

/// Wilcoxon signed-rank test for PAIRED samples (two-sided, normal
/// approximation with tie correction) — the right test for "configuration
/// A vs configuration B across the same 12 instances" comparisons.
/// Zero differences are dropped (Wilcoxon's convention).
struct WilcoxonResult {
  double w = 0.0;        ///< signed-rank statistic (min of W+ and W-)
  double z = 0.0;
  double p_value = 1.0;
  std::size_t n_effective = 0;  ///< pairs after dropping zero differences
};

WilcoxonResult wilcoxon_signed_rank(const std::vector<double>& a,
                                    const std::vector<double>& b);

}  // namespace pacga::support
