#include "sched/fitness.hpp"

namespace pacga::sched {

Fitness evaluate(const Schedule& s, Objective objective, double lambda) {
  switch (objective) {
    case Objective::kMakespan:
      return s.makespan();
    case Objective::kFlowtime:
      return s.flowtime();
    case Objective::kWeightedMakespanFlowtime:
      return lambda * s.makespan() +
             (1.0 - lambda) * s.flowtime() / static_cast<double>(s.tasks());
  }
  return s.makespan();
}

}  // namespace pacga::sched
