#include "etc/etc_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "support/kernels.hpp"
#include "support/rng.hpp"

namespace pacga::etc {

using support::hash_mix;
namespace kernels = support::kernels;

EtcMatrix::EtcMatrix(std::size_t tasks, std::size_t machines,
                     std::vector<double> task_major, std::vector<double> ready)
    : tasks_(tasks),
      machines_(machines),
      by_task_(std::move(task_major)),
      ready_(std::move(ready)) {
  if (tasks_ == 0 || machines_ == 0)
    throw std::invalid_argument("EtcMatrix: empty dimensions");
  // Overflow guard BEFORE the size comparison: a wrapped tasks*machines
  // product would pass the check and send the transpose loop out of
  // bounds. Dimensions arrive from untrusted input (the service daemon's
  // SUBMIT command), so this is a contract, not paranoia.
  if (tasks_ > std::numeric_limits<std::size_t>::max() / machines_)
    throw std::invalid_argument("EtcMatrix: dimensions overflow size_t");
  if (by_task_.size() != tasks_ * machines_)
    throw std::invalid_argument("EtcMatrix: data size mismatch");
  if (ready_.empty()) {
    ready_.assign(machines_, 0.0);
  } else if (ready_.size() != machines_) {
    throw std::invalid_argument("EtcMatrix: ready size mismatch");
  }
  for (double v : by_task_) {
    if (!(v > 0.0) || !std::isfinite(v))
      throw std::invalid_argument("EtcMatrix: ETC entries must be positive finite");
  }
  by_machine_.resize(tasks_ * machines_);
  for (std::size_t t = 0; t < tasks_; ++t) {
    for (std::size_t m = 0; m < machines_; ++m) {
      by_machine_[m * tasks_ + t] = by_task_[t * machines_ + m];
    }
  }
  refresh_summary();
}

void EtcMatrix::refresh_column(std::size_t m) {
  const double* column = by_machine_.data() + m * tasks_;
  // The column hash folds the machine's ready time in with its ETCs, so
  // the combined fingerprint keeps covering (dims, every entry, every
  // ready time) exactly as the old whole-matrix chain did.
  col_hash_[m] = hash_mix(
      kernels::hash_block(column, tasks_, hash_mix(0x5045c01c01c0ffeeULL, m)),
      std::bit_cast<std::uint64_t>(ready_[m]));
  col_min_[m] = kernels::min_value(column, tasks_);
  col_max_[m] = kernels::max_value(column, tasks_);
}

void EtcMatrix::combine_summary() {
  min_etc_ = std::numeric_limits<double>::infinity();
  max_etc_ = -std::numeric_limits<double>::infinity();
  fingerprint_ = hash_mix(hash_mix(0x5045c6a7a1ce0002ULL, tasks_), machines_);
  for (std::size_t m = 0; m < machines_; ++m) {
    min_etc_ = std::min(min_etc_, col_min_[m]);
    max_etc_ = std::max(max_etc_, col_max_[m]);
    fingerprint_ = hash_mix(fingerprint_, col_hash_[m]);
  }
}

void EtcMatrix::refresh_summary() {
  col_hash_.resize(machines_);
  col_min_.resize(machines_);
  col_max_.resize(machines_);
  for (std::size_t m = 0; m < machines_; ++m) refresh_column(m);
  combine_summary();
}

void EtcMatrix::scale_machine(std::size_t m, double factor) {
  if (m >= machines_)
    throw std::invalid_argument("EtcMatrix::scale_machine: machine out of range");
  if (!(factor > 0.0) || !std::isfinite(factor))
    throw std::invalid_argument(
        "EtcMatrix::scale_machine: factor must be positive finite");
  // Validate BEFORE mutating: a factor that would push an entry to inf (or
  // denormal-to-zero) must leave the matrix untouched.
  for (double v : on_machine(m)) {
    const double scaled = v * factor;
    if (!(scaled > 0.0) || !std::isfinite(scaled))
      throw std::invalid_argument(
          "EtcMatrix::scale_machine: scaled entry not positive finite");
  }
  double* column = by_machine_.data() + m * tasks_;
  kernels::scale_inplace(column, tasks_, factor);
  for (std::size_t t = 0; t < tasks_; ++t) {
    // Copying the scaled column keeps both layouts bitwise identical.
    by_task_[t * machines_ + m] = column[t];
  }
  // Incremental refingerprint: only the touched column is rehashed.
  refresh_column(m);
  combine_summary();
}

}  // namespace pacga::etc
