// Shared harness utilities for the bench binaries.
//
// Every binary reproduces one paper artifact (table or figure). Paper scale
// is 90 s x 100 runs per point — hours of CPU — so defaults are scaled down
// to keep `for b in build/bench/*; do $b; done` in the minutes range, and
// every binary accepts --wall-ms / --runs / --full to recover the paper's
// protocol. The SHAPE of the results (orderings, trends, crossovers) is the
// reproduction target, not absolute makespans: the instances are
// regenerated and the hardware differs from the paper's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cga/config.hpp"
#include "etc/suite.hpp"
#include "pacga/parallel_engine.hpp"
#include "support/stats.hpp"

namespace pacga::bench {

/// Common campaign knobs shared by the table/figure binaries.
struct CampaignOptions {
  double wall_ms = 300.0;   ///< budget per run (paper: 90000)
  std::size_t runs = 3;     ///< independent runs per point (paper: 100)
  std::uint64_t seed = 1;   ///< master seed; run r uses seed + r
  bool full = false;        ///< switch to the paper-scale protocol
  bool csv = false;         ///< emit CSV instead of the console table

  /// Applies --full: 90 s budget, 100 runs (call after Cli::parse).
  void finalize() {
    if (full) {
      wall_ms = 90000.0;
      runs = 100;
    }
  }
  double wall_seconds() const { return wall_ms / 1000.0; }
};

/// Runs PA-CGA `opts.runs` times on `etc` with per-run seeds and returns
/// the best-makespan sample.
inline std::vector<double> pa_cga_campaign(const etc::EtcMatrix& etc,
                                           cga::Config config,
                                           const CampaignOptions& opts) {
  std::vector<double> sample;
  sample.reserve(opts.runs);
  for (std::size_t r = 0; r < opts.runs; ++r) {
    config.seed = opts.seed + r;
    sample.push_back(par::run_parallel(etc, config).result.best_fitness);
  }
  return sample;
}

/// Mean of a sample (campaign summaries).
inline double mean_of(const std::vector<double>& xs) {
  support::RunningStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

}  // namespace pacga::bench
