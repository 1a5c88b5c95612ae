// Reference checks the tests share. Each reads only the public API, so it
// judges the library from outside: the ETC column summaries the generator
// tests classify instances with, the least loaded machine of a schedule,
// and the Braun text layout the readers parse.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "etc/etc_matrix.hpp"
#include "sched/schedule.hpp"

namespace pacga::test_support {

/// True if machine `a` is at least as fast as machine `b` on every task.
inline bool machine_dominates(const etc::EtcMatrix& m, std::size_t a,
                              std::size_t b) {
  for (std::size_t t = 0; t < m.tasks(); ++t) {
    if (m(t, a) > m(t, b)) return false;
  }
  return true;
}

/// True when the machines are totally ordered by domination: Braun's
/// "consistent" property. Sorting by column sum gives the only candidate
/// order; adjacent domination along it is checked.
inline bool is_consistent(const etc::EtcMatrix& m) {
  std::vector<std::pair<double, std::size_t>> by_sum(m.machines());
  for (std::size_t k = 0; k < m.machines(); ++k) {
    double sum = 0.0;
    for (std::size_t t = 0; t < m.tasks(); ++t) sum += m(t, k);
    by_sum[k] = {sum, k};
  }
  std::sort(by_sum.begin(), by_sum.end());
  for (std::size_t i = 0; i + 1 < by_sum.size(); ++i) {
    if (!machine_dominates(m, by_sum[i].second, by_sum[i + 1].second))
      return false;
  }
  return true;
}

inline double coefficient_of_variation(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  if (mean == 0.0) return 0.0;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  return std::sqrt(var) / mean;
}

/// Coefficient of variation of the task (row) means: a crude summary that
/// orders the hi/lo task heterogeneity classes.
inline double task_heterogeneity(const etc::EtcMatrix& m) {
  std::vector<double> means(m.tasks());
  for (std::size_t t = 0; t < m.tasks(); ++t) {
    double sum = 0.0;
    for (std::size_t k = 0; k < m.machines(); ++k) sum += m(t, k);
    means[t] = sum / static_cast<double>(m.machines());
  }
  return coefficient_of_variation(means);
}

/// Coefficient of variation of the machine (column) means.
inline double machine_heterogeneity(const etc::EtcMatrix& m) {
  std::vector<double> means(m.machines());
  for (std::size_t k = 0; k < m.machines(); ++k) {
    double sum = 0.0;
    for (std::size_t t = 0; t < m.tasks(); ++t) sum += m(t, k);
    means[k] = sum / static_cast<double>(m.tasks());
  }
  return coefficient_of_variation(means);
}

/// Index of the least loaded machine, lowest index on ties.
inline std::size_t argmin_machine(const sched::Schedule& s) {
  std::size_t best = 0;
  for (std::size_t k = 1; k < s.machines(); ++k) {
    if (s.completion(k) < s.completion(best)) best = k;
  }
  return best;
}

/// The Braun text layout: one value per line, task-major, at full
/// precision, after an optional "<tasks> <machines>" header line.
inline std::string braun_text(const etc::EtcMatrix& m, bool header) {
  std::ostringstream out;
  if (header) out << m.tasks() << ' ' << m.machines() << '\n';
  out.precision(17);
  for (std::size_t t = 0; t < m.tasks(); ++t) {
    for (std::size_t k = 0; k < m.machines(); ++k) out << m(t, k) << '\n';
  }
  return out.str();
}

}  // namespace pacga::test_support
