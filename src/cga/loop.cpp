#include "cga/loop.hpp"

#include <numeric>

namespace pacga::cga {

void fill_sweep_order(SweepPolicy policy, std::size_t n,
                      std::vector<std::size_t>& order,
                      support::Xoshiro256& rng) {
  order.resize(n);
  switch (policy) {
    case SweepPolicy::kLineSweep:
      std::iota(order.begin(), order.end(), std::size_t{0});
      break;
    case SweepPolicy::kReverseSweep:
      for (std::size_t i = 0; i < n; ++i) order[i] = n - 1 - i;
      break;
    case SweepPolicy::kFixedShuffle:
    case SweepPolicy::kNewShuffle:
      std::iota(order.begin(), order.end(), std::size_t{0});
      rng.shuffle(order);
      break;
    case SweepPolicy::kUniformChoice:
      for (auto& i : order) i = rng.index(n);
      break;
  }
}

SweepOrderCache::SweepOrderCache(SweepPolicy policy, std::size_t n,
                                 support::Xoshiro256& rng)
    : policy_(policy) {
  fill_sweep_order(policy_, n, order_, rng);
}

void SweepOrderCache::fill(support::Xoshiro256& rng) {
  fill_sweep_order(policy_, order_.size(), order_, rng);
}

const std::vector<std::size_t>& SweepOrderCache::next_sweep(
    support::Xoshiro256& rng) {
  // The historical loops regenerated these two policies at the TOP of every
  // generation (discarding the construction-time order's content but not
  // its RNG draws); keeping that shape preserves every pinned trajectory.
  if (policy_ == SweepPolicy::kNewShuffle ||
      policy_ == SweepPolicy::kUniformChoice) {
    fill_sweep_order(policy_, order_.size(), order_, rng);
  }
  return order_;
}

std::size_t apply_warm_seed(Population& pop, const etc::EtcMatrix& etc,
                            const Config& config) {
  if (config.warm_seed.empty()) return pop.size();
  const std::size_t cell = warm_seed_cell(config.seed_min_min, pop.size());
  pop.seed_cell(cell, etc, config.warm_seed, config.objective, config.lambda);
  return cell;
}

void TraceRecorder::sample(std::uint64_t generation, double elapsed_seconds,
                           const Population& pop) {
  if (!enabled_) return;
  double sum = 0.0;
  double best = pop.read_fitness(0);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const double f = pop.read_fitness(i);
    sum += f;
    if (f < best) best = f;
  }
  trace_.push_back({generation, elapsed_seconds, best,
                    sum / static_cast<double>(pop.size())});
}

void TraceRecorder::sample(std::uint64_t generation, double elapsed_seconds,
                           const std::vector<Individual>& pop) {
  if (!enabled_) return;
  double sum = 0.0;
  double best = pop.at(0).fitness;
  for (const Individual& ind : pop) {
    sum += ind.fitness;
    if (ind.fitness < best) best = ind.fitness;
  }
  trace_.push_back({generation, elapsed_seconds, best,
                    sum / static_cast<double>(pop.size())});
}

}  // namespace pacga::cga
