#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pacga::support {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) throw std::invalid_argument("quantile: empty sample");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q out of [0,1]");
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sample.size()) return sample.back();
  return sample[lo] + frac * (sample[lo + 1] - sample[lo]);
}

BoxStats box_stats(std::vector<double> sample) {
  if (sample.empty()) throw std::invalid_argument("box_stats: empty sample");
  std::sort(sample.begin(), sample.end());
  BoxStats b;
  b.n = sample.size();
  b.min = sample.front();
  b.max = sample.back();
  // quantile() re-sorts a copy; cheap relative to harness runtimes and keeps
  // a single authoritative quantile implementation.
  b.q1 = quantile(sample, 0.25);
  b.median = quantile(sample, 0.5);
  b.q3 = quantile(sample, 0.75);
  RunningStats rs;
  for (double x : sample) rs.add(x);
  b.mean = rs.mean();
  const double iqr = b.q3 - b.q1;
  const double half = 1.57 * iqr / std::sqrt(static_cast<double>(b.n));
  b.notch_lo = b.median - half;
  b.notch_hi = b.median + half;
  return b;
}

namespace {

/// Ranks with average ranks on ties; returns ranks of the concatenated
/// sample and the tie-correction term sum(t^3 - t).
std::pair<std::vector<double>, double> ranks_with_ties(
    const std::vector<double>& all) {
  const std::size_t n = all.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return all[a] < all[b]; });
  std::vector<double> ranks(n, 0.0);
  double tie_term = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && all[order[j + 1]] == all[order[i]]) ++j;
    const double avg_rank = 0.5 * static_cast<double>(i + j) + 1.0;
    const auto t = static_cast<double>(j - i + 1);
    tie_term += t * t * t - t;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return {std::move(ranks), tie_term};
}

/// Standard normal CDF via erfc.
double norm_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace

MannWhitneyResult mann_whitney_u(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.empty() || b.empty())
    throw std::invalid_argument("mann_whitney_u: empty sample");
  const auto na = static_cast<double>(a.size());
  const auto nb = static_cast<double>(b.size());
  std::vector<double> all;
  all.reserve(a.size() + b.size());
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  auto [ranks, tie_term] = ranks_with_ties(all);
  double rank_sum_a = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) rank_sum_a += ranks[i];
  MannWhitneyResult r;
  r.u = rank_sum_a - na * (na + 1.0) / 2.0;
  const double mu = na * nb / 2.0;
  const double n = na + nb;
  const double sigma2 =
      na * nb / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  if (sigma2 <= 0.0) {
    // All observations identical: no evidence of difference.
    r.z = 0.0;
    r.p_value = 1.0;
    return r;
  }
  // Continuity correction toward the mean.
  const double diff = r.u - mu;
  const double cc = diff > 0 ? -0.5 : (diff < 0 ? 0.5 : 0.0);
  r.z = (diff + cc) / std::sqrt(sigma2);
  r.p_value = 2.0 * (1.0 - norm_cdf(std::abs(r.z)));
  return r;
}

namespace {

/// Regularized lower incomplete gamma P(a, x) via the series expansion
/// (converges fast for x < a + 1).
double gamma_p_series(double a, double x) {
  double sum = 1.0 / a;
  double term = sum;
  for (int n = 1; n < 500; ++n) {
    term *= x / (a + n);
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

/// Regularized upper incomplete gamma Q(a, x) via Lentz's continued
/// fraction (converges fast for x >= a + 1).
double gamma_q_continued_fraction(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double chi_squared_sf(double x, double dof) {
  if (x <= 0.0) return 1.0;
  if (dof <= 0.0) throw std::invalid_argument("chi_squared_sf: dof <= 0");
  const double a = dof / 2.0;
  const double half_x = x / 2.0;
  // Q(a, x/2) = 1 - P(a, x/2); pick the representation that converges.
  if (half_x < a + 1.0) return 1.0 - gamma_p_series(a, half_x);
  return gamma_q_continued_fraction(a, half_x);
}

FriedmanResult friedman_test(const std::vector<std::vector<double>>& blocks) {
  const std::size_t n = blocks.size();
  if (n < 2) throw std::invalid_argument("friedman_test: need >= 2 blocks");
  const std::size_t k = blocks.front().size();
  if (k < 2)
    throw std::invalid_argument("friedman_test: need >= 2 algorithms");
  for (const auto& row : blocks) {
    if (row.size() != k)
      throw std::invalid_argument("friedman_test: ragged blocks");
  }

  FriedmanResult r;
  r.mean_ranks.assign(k, 0.0);
  for (const auto& row : blocks) {
    auto [ranks, tie_term] = ranks_with_ties(row);
    (void)tie_term;  // classic statistic; ties get average ranks
    for (std::size_t j = 0; j < k; ++j) r.mean_ranks[j] += ranks[j];
  }
  for (auto& mr : r.mean_ranks) mr /= static_cast<double>(n);

  const double kk = static_cast<double>(k);
  const double nn = static_cast<double>(n);
  double sum_sq = 0.0;
  const double expected = (kk + 1.0) / 2.0;
  for (double mr : r.mean_ranks) {
    sum_sq += (mr - expected) * (mr - expected);
  }
  r.statistic = 12.0 * nn / (kk * (kk + 1.0)) * sum_sq;
  r.p_value = chi_squared_sf(r.statistic, kk - 1.0);
  return r;
}

WilcoxonResult wilcoxon_signed_rank(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("wilcoxon_signed_rank: size mismatch");
  if (a.empty())
    throw std::invalid_argument("wilcoxon_signed_rank: empty samples");

  std::vector<double> abs_diff;
  std::vector<int> sign;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    if (d == 0.0) continue;  // Wilcoxon convention: drop zeros
    abs_diff.push_back(std::abs(d));
    sign.push_back(d > 0.0 ? 1 : -1);
  }
  WilcoxonResult r;
  r.n_effective = abs_diff.size();
  if (r.n_effective == 0) return r;  // all pairs tied: no evidence

  auto [ranks, tie_term] = ranks_with_ties(abs_diff);
  double w_plus = 0.0, w_minus = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    (sign[i] > 0 ? w_plus : w_minus) += ranks[i];
  }
  r.w = std::min(w_plus, w_minus);
  const auto n = static_cast<double>(r.n_effective);
  const double mu = n * (n + 1.0) / 4.0;
  const double sigma2 =
      n * (n + 1.0) * (2.0 * n + 1.0) / 24.0 - tie_term / 48.0;
  if (sigma2 <= 0.0) return r;
  const double diff = w_plus - mu;  // use W+ for a signed z
  const double cc = diff > 0 ? -0.5 : (diff < 0 ? 0.5 : 0.0);
  r.z = (diff + cc) / std::sqrt(sigma2);
  r.p_value = 2.0 * (1.0 - norm_cdf(std::abs(r.z)));
  return r;
}

double ci95_halfwidth(const RunningStats& s) noexcept {
  if (s.count() < 2) return 0.0;
  return 1.96 * s.stddev() / std::sqrt(static_cast<double>(s.count()));
}

}  // namespace pacga::support
