// cMA+LTH baseline (Xhafa, Alba, Dorronsoro, Duran, JMMA 2008) — the
// "CGA hybridized with Tabu search" column of the paper's Table 2.
//
// Reimplemented from its description (the original code is unavailable):
// a SYNCHRONOUS cellular memetic algorithm — generational cGA with an
// auxiliary population — whose offspring are intensified with a Local
// Tabu Hop before evaluation. Defaults follow the published
// parameterization where stated (L5/NEWS neighborhood, binary tournament,
// one-point crossover, move mutation) with sensible values elsewhere. The
// neighborhood and the mutation are the cellular engine's only ones.
#pragma once

#include "cga/config.hpp"
#include "etc/etc_matrix.hpp"

namespace pacga::baseline {

struct CmaLthConfig {
  std::size_t width = 16;
  std::size_t height = 16;
  cga::SelectionKind selection = cga::SelectionKind::kTournament;
  cga::CrossoverKind crossover = cga::CrossoverKind::kOnePoint;
  double p_comb = 0.8;
  double p_mut = 0.5;
  double p_ls = 1.0;
  cga::TabuHopParams tabu{10, 8};
  bool seed_min_min = true;
  sched::Objective objective = sched::Objective::kMakespan;
  double lambda = 0.75;  ///< weighted-objective makespan weight
  cga::Termination termination = cga::Termination::after_generations(100);
  std::uint64_t seed = 1;
  bool collect_trace = false;

  std::size_t population_size() const noexcept { return width * height; }
  void validate() const;
};

/// Runs the synchronous cellular memetic algorithm with Local Tabu Hop.
cga::Result run_cma_lth(const etc::EtcMatrix& etc, const CmaLthConfig& config);

}  // namespace pacga::baseline
