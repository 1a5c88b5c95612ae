// Struggle GA baseline (Xhafa, BIOMA 2006) — the non-decentralized GA
// column of the paper's Table 2.
//
// Reimplemented from its description (the original code is unavailable):
// a steady-state, panmictic GA whose replacement operator is "struggle":
// the offspring replaces the MOST SIMILAR individual of the population
// (minimum Hamming distance between assignment strings), and only if it
// improves that individual's fitness. Struggle replacement preserves
// diversity the way a crowding scheme does, which is why it was the
// strongest replacement operator in Xhafa's study.
#pragma once

#include "cga/config.hpp"
#include "etc/etc_matrix.hpp"

namespace pacga::baseline {

struct StruggleConfig {
  std::size_t population = 64;
  cga::SelectionKind selection = cga::SelectionKind::kTournament;
  cga::CrossoverKind crossover = cga::CrossoverKind::kOnePoint;
  double p_comb = 0.8;
  double p_mut = 0.4;
  bool seed_min_min = true;
  sched::Objective objective = sched::Objective::kMakespan;
  double lambda = 0.75;  ///< weighted-objective makespan weight
  cga::Termination termination = cga::Termination::after_generations(100);
  std::uint64_t seed = 1;
  bool collect_trace = false;

  void validate() const;
};

/// Runs the Struggle GA. Result::generations counts population-size batches
/// of offspring (steady-state "generation equivalents").
cga::Result run_struggle_ga(const etc::EtcMatrix& etc,
                            const StruggleConfig& config);

}  // namespace pacga::baseline
