#include "baselines/cma_lth.hpp"

#include <stdexcept>

#include "cga/engine.hpp"

namespace pacga::baseline {

void CmaLthConfig::validate() const {
  if (width == 0 || height == 0)
    throw std::invalid_argument("CmaLthConfig: empty grid");
  auto probability = [](double p, const char* name) {
    if (!(p >= 0.0 && p <= 1.0))
      throw std::invalid_argument(std::string("CmaLthConfig: ") + name +
                                  " not in [0,1]");
  };
  probability(p_comb, "p_comb");
  probability(p_mut, "p_mut");
  probability(p_ls, "p_ls");
}

cga::Result run_cma_lth(const etc::EtcMatrix& etc,
                        const CmaLthConfig& config) {
  config.validate();
  // cMA+LTH is the synchronous cellular engine with Local Tabu Hop as the
  // memetic step: same sweep, selection snapshot, variation draw order,
  // staged generational commit, best tracking, and termination as the
  // shared core — so it IS the shared core, parameterized. (Historically
  // this file hand-rolled the whole loop.)
  cga::Config mapped;
  mapped.width = config.width;
  mapped.height = config.height;
  mapped.selection = config.selection;
  mapped.crossover = config.crossover;
  mapped.p_comb = config.p_comb;
  mapped.p_mut = config.p_mut;
  mapped.p_ls = config.p_ls;
  mapped.ls_kind = cga::LocalSearchKind::kTabuHop;
  // The engine gates local search on local_search.iterations; mirror the
  // tabu iteration count there so tabu{0, ...} disables the memetic step.
  mapped.local_search.iterations = config.tabu.iterations;
  mapped.tabu = config.tabu;
  mapped.update = cga::UpdatePolicy::kSynchronous;
  mapped.sweep = cga::SweepPolicy::kLineSweep;
  mapped.seed_min_min = config.seed_min_min;
  mapped.objective = config.objective;
  mapped.lambda = config.lambda;
  mapped.termination = config.termination;
  mapped.seed = config.seed;
  mapped.collect_trace = config.collect_trace;
  // The sequential engine ignores threads, but its validate() still checks
  // them against the grid; 1 keeps tiny grids valid.
  mapped.threads = 1;
  return cga::run_sequential(etc, mapped);
}

}  // namespace pacga::baseline
