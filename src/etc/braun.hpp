// Range-based ETC instance generator (Ali, Siegel, Maheswaran, Hensgen,
// Ali 2000), the method behind the Braun et al. `u_x_yyzz.k` benchmark.
//
// Substitution note: the authors' original instance files
// are not redistributable, so we regenerate instances with the published
// method and deterministic per-name seeds. Heterogeneity ranges and
// consistency classes match the paper's reported p_j bounds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "etc/etc_matrix.hpp"

namespace pacga::etc {

/// Braun consistency classes.
enum class Consistency { kConsistent, kSemiConsistent, kInconsistent };

/// Heterogeneity levels. Range-based method: hi/lo select the upper bound
/// of the uniform draw (task: 3000/100, machine: 1000/10).
enum class Heterogeneity { kLow, kHigh };

/// Upper bounds of the uniform draws in the range-based method.
double task_range(Heterogeneity h) noexcept;     // hi: 3000, lo: 100
double machine_range(Heterogeneity h) noexcept;  // hi: 1000, lo: 10

/// Ali et al. define two generation methods; the Braun suite uses the
/// range-based one, CVB is the other standard.
enum class GenMethod {
  kRangeBased,  ///< ETC[t][m] = U(1, R_task) * U(1, R_mach)
  kCvb,         ///< gamma-distributed, controlled by coefficients of variation
};

/// Coefficient of variation per heterogeneity level for the CVB method
/// (the values used throughout the heterogeneous-computing literature).
double cv_of(Heterogeneity h) noexcept;  // hi: 0.6, lo: 0.1

/// Full generation spec. Defaults reproduce the paper's instance shape
/// (512 tasks x 16 machines).
struct GenSpec {
  std::size_t tasks = 512;
  std::size_t machines = 16;
  Consistency consistency = Consistency::kConsistent;
  Heterogeneity task_het = Heterogeneity::kHigh;
  Heterogeneity machine_het = Heterogeneity::kHigh;
  std::uint64_t seed = 0;
  GenMethod method = GenMethod::kRangeBased;
  /// CVB only: mean task execution time (mu_task).
  double cvb_mean_task = 1000.0;
  /// When > 0, machines get ready times ~ U(0, fraction * mean machine
  /// load) — the paper's §2.1 "ready_m" for grids with committed work.
  /// The Braun suite uses 0 (idle machines).
  double ready_fraction = 0.0;
};

/// Parses a Braun instance name ("u_c_hihi.0") into a spec (512x16 shape,
/// seed derived from the full name). Returns nullopt on malformed names.
std::optional<GenSpec> parse_instance_name(const std::string& name);

/// Generates an ETC matrix per the range-based method:
///   ETC[t][m] = U(1, R_task) * U(1, R_mach)
/// then post-processes rows for the requested consistency class:
///   consistent      — every row sorted ascending (machine 0 fastest for
///                     all tasks);
///   semi-consistent — in every even row, values at even column positions
///                     are sorted ascending (consistent sub-matrix);
///   inconsistent    — raw draws.
EtcMatrix generate(const GenSpec& spec);

}  // namespace pacga::etc
