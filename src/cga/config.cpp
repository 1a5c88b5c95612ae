#include "cga/config.hpp"

#include <stdexcept>

namespace pacga::cga {

const char* to_string(SweepPolicy p) noexcept {
  switch (p) {
    case SweepPolicy::kLineSweep: return "line";
    case SweepPolicy::kReverseSweep: return "reverse";
    case SweepPolicy::kFixedShuffle: return "fixed-shuffle";
    case SweepPolicy::kNewShuffle: return "new-shuffle";
    case SweepPolicy::kUniformChoice: return "uniform";
  }
  return "?";
}

void Config::validate() const {
  if (width == 0 || height == 0)
    throw std::invalid_argument("Config: empty grid");
  auto probability = [](double p, const char* name) {
    if (!(p >= 0.0 && p <= 1.0))
      throw std::invalid_argument(std::string("Config: ") + name +
                                  " not in [0,1]");
  };
  probability(p_comb, "p_comb");
  probability(p_mut, "p_mut");
  probability(p_ls, "p_ls");
  probability(lambda, "lambda");
  if (threads == 0) throw std::invalid_argument("Config: threads == 0");
  if (threads > population_size())
    throw std::invalid_argument("Config: more threads than individuals");
  if (termination.wall_seconds <= 0.0)
    throw std::invalid_argument("Config: non-positive wall budget");
}

}  // namespace pacga::cga
