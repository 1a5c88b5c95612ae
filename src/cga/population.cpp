#include "cga/population.hpp"

#include <stdexcept>
#include <thread>

#include "heuristics/minmin.hpp"

namespace pacga::cga {

Population::Population(const etc::EtcMatrix& etc, Grid grid,
                       support::Xoshiro256& rng, bool seed_min_min,
                       sched::Objective objective, double lambda)
    : grid_(grid) {
  neighbors_.reserve(grid_.size());
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    neighbors_.push_back(neighborhood_of(grid_, i));
  }
  cells_.reserve(grid_.size());
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    cells_.push_back(Individual::evaluated(sched::Schedule::random(etc, rng),
                                           objective, lambda));
  }
  if (seed_min_min && !cells_.empty()) {
    cells_[0] = Individual::evaluated(heur::min_min(etc), objective, lambda);
  }
  seq_ = std::make_unique<support::Padded<std::atomic<std::uint64_t>>[]>(
      grid_.size());
}

void Population::reseed(const etc::EtcMatrix& etc, support::Xoshiro256& rng,
                        sched::Objective objective, double lambda) {
  if (cells_.empty()) return;
  if (etc.tasks() != cells_.front().schedule.tasks() ||
      etc.machines() != cells_.front().schedule.machines())
    throw std::invalid_argument("Population::reseed: shape mismatch");
  for (auto& cell : cells_) {
    cell.schedule.randomize_from(etc, rng);
    cell.fitness = sched::evaluate(cell.schedule, objective, lambda);
  }
}

void Population::seed_cell(std::size_t i, const etc::EtcMatrix& etc,
                           std::span<const sched::MachineId> assignment,
                           sched::Objective objective, double lambda) {
  if (i >= cells_.size())
    throw std::invalid_argument("Population::seed_cell: cell out of range");
  cells_[i].schedule.adopt(etc, assignment);
  cells_[i].fitness = sched::evaluate(cells_[i].schedule, objective, lambda);
}

void Population::publish(std::size_t i, const Individual& src) noexcept {
  std::atomic<std::uint64_t>& seq = seq_[i].value;
  // The caller is the only writer, so it reads its own counter relaxed.
  // The odd store needs no order of its own: each release store below
  // orders it first, so a reader that sees any new word sees it odd.
  const std::uint64_t even = seq.load(std::memory_order_relaxed);
  seq.store(even + 1, std::memory_order_relaxed);
  cells_[i].schedule.release_store_from(src.schedule);
  support::store_release(cells_[i].fitness, src.fitness);
  seq.store(even + 2, std::memory_order_release);
}

double Population::read_fitness(std::size_t i) const noexcept {
  return support::load_acquire(cells_[i].fitness);
}

void Population::read_cell(std::size_t i, Individual& out) const noexcept {
  const std::atomic<std::uint64_t>& seq = seq_[i].value;
  for (;;) {
    const std::uint64_t before = seq.load(std::memory_order_acquire);
    if (before & 1) {
      // A publish is in progress; its writer may have been preempted.
      std::this_thread::yield();
      continue;
    }
    out.schedule.acquire_load_from(cells_[i].schedule);
    out.fitness = support::load_acquire(cells_[i].fitness);
    // The acquire loads above keep this load after them.
    if (seq.load(std::memory_order_relaxed) == before) return;
  }
}

std::size_t Population::best_index() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < cells_.size(); ++i) {
    if (cells_[i].fitness < cells_[best].fitness) best = i;
  }
  return best;
}

}  // namespace pacga::cga
