// The structured population: a toroidal grid of individuals plus one
// sequence counter per cell.
//
// Paper §3.2 guards every cell with a POSIX rwlock. Here each cell has a
// single writer instead: in par::run_parallel, cell i is written only by
// the worker whose Block contains it, and only through publish(). So:
//   * the owner reads its own cells directly through at(), since no other
//     thread can be writing them;
//   * any other thread reads through read_fitness() / read_cell(), which
//     never return a torn individual: read_cell() is a seqlock read that
//     retries when the counter moved under it;
//   * single-threaded engines write through at() (Breeder::replace) and
//     never publish.
// Readers write no shared line. The counters live in their own
// cache-line-padded array, so a publish does not invalidate the counters
// of neighboring cells.
//
// The population also holds every cell's linear-5 neighborhood, computed
// once at construction: the grid never changes (reseed keeps it), so a
// breeding step reads its five neighbors from the table instead of
// redoing the toroidal arithmetic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cga/grid.hpp"
#include "cga/individual.hpp"
#include "cga/neighborhood.hpp"
#include "etc/etc_matrix.hpp"
#include "support/rng.hpp"
#include "support/threading.hpp"

namespace pacga::cga {

class Population {
 public:
  /// Random initialization; when `seed_min_min` is set, cell 0 holds the
  /// Min-min schedule (paper Table 1: "Min-min (1 ind)"). `lambda` weights
  /// the combined objective (Config::lambda).
  Population(const etc::EtcMatrix& etc, Grid grid, support::Xoshiro256& rng,
             bool seed_min_min, sched::Objective objective,
             double lambda = 0.75);

  // Not copyable (the per-cell counters are atomics); movable so
  // populations can be swapped wholesale (checkpoint restore, engine
  // handoff). Move only between runs.
  Population(const Population&) = delete;
  Population& operator=(const Population&) = delete;
  Population(Population&&) noexcept = default;
  Population& operator=(Population&&) noexcept = default;

  /// In-place re-initialization for a NEW instance of the same tasks x
  /// machines shape: every cell is rebound to `etc` and randomized into
  /// its existing storage, with the same RNG draws as construction. This
  /// is the warm-start path of the scheduler service: a reseed performs
  /// zero heap allocations, and a Min-min seed goes in afterwards through
  /// seed_cell(0, ...). Like seed_cell, it writes unsynchronized: call it
  /// only between runs. Throws std::invalid_argument when `etc`'s shape
  /// differs from the shape the population was built for.
  void reseed(const etc::EtcMatrix& etc, support::Xoshiro256& rng,
              sched::Objective objective, double lambda);

  /// Overwrites cell `i` with `assignment` (adopted into the existing
  /// storage — zero heap allocations) and re-evaluates its fitness. This
  /// is the warm-start injection point of the dynamic rescheduling path:
  /// a repaired schedule becomes one individual of the initial population
  /// and the anytime CGA can only improve on it. Throws
  /// std::invalid_argument on shape or machine-id range violations
  /// (Schedule::adopt's checks).
  void seed_cell(std::size_t i, const etc::EtcMatrix& etc,
                 std::span<const sched::MachineId> assignment,
                 sched::Objective objective, double lambda);

  const Grid& grid() const noexcept { return grid_; }
  std::size_t size() const noexcept { return cells_.size(); }

  /// Cell `i`'s neighborhood, neighborhood_of(grid(), i), from the table
  /// built at construction.
  const Neighborhood& neighbors(std::size_t i) const noexcept {
    return neighbors_[i];
  }

  /// Direct access: for single-threaded engines, and for a run_parallel
  /// worker reading its own block. A cell another thread may be writing is
  /// read through read_fitness / read_cell instead.
  Individual& at(std::size_t i) noexcept { return cells_[i]; }
  const Individual& at(std::size_t i) const noexcept { return cells_[i]; }

  /// The write protocol: cell `i` becomes a copy of `src` (same shape; zero
  /// allocations). Only one thread may publish to a given cell. The counter
  /// goes odd, every word is stored with release order, and the counter
  /// goes even with release order.
  void publish(std::size_t i, const Individual& src) noexcept;

  /// Cell `i`'s fitness, safe against a concurrent publish. One word
  /// cannot tear, so this is a single acquire load: it returns the fitness
  /// of some published individual.
  double read_fitness(std::size_t i) const noexcept;

  /// Copies cell `i` into `out` (same shape; zero allocations), safe
  /// against a concurrent publish: the copy is entirely one published
  /// individual. It loads the counter (waiting while it is odd), copies
  /// every word with acquire loads, and retries when the counter moved.
  void read_cell(std::size_t i, Individual& out) const noexcept;

  /// Index of the best (lowest-fitness) individual. Unsynchronized scan —
  /// call only when no writer is active (end of run, or from tests).
  std::size_t best_index() const noexcept;

 private:
  Grid grid_;
  std::vector<Neighborhood> neighbors_;
  std::vector<Individual> cells_;
  /// Per-cell sequence counters: odd while a publish is in progress.
  std::unique_ptr<support::Padded<std::atomic<std::uint64_t>>[]> seq_;
};

}  // namespace pacga::cga
