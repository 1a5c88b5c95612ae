// The breeding step (paper Algorithm 3 lines 3-8, minus replacement) as a
// reusable, allocation-free component.
//
// The historical loops heap-allocated two parent Individual copies plus a
// fresh offspring Schedule on EVERY evaluation — 4+ vector allocations on
// the hottest path in the system. A Breeder owns the buffer for a foreign
// parent b (shared mode), the neighborhood comes from the population's
// table (Population::neighbors), its fitnesses are a fixed-size array on
// the stack, and the caller owns the offspring buffer. After the first
// step (warm-up), a steady-state select -> crossover -> mutate ->
// local-search -> evaluate sequence performs ZERO heap allocations
// (verified by test_breeder's operator-new counter; kTabuHop is the
// documented exception — it allocates internally).
//
// One Breeder per thread: it is as thread-private as the RNG stream it is
// used with. Two entry points: breed_into reads the population
// unsynchronized (sequential, cellwise and cMA+LTH engines), and
// breed_shared_into reads it while other threads publish (PA-CGA). Both
// make the same RNG draws and produce the same offspring.
#pragma once

#include "cga/config.hpp"
#include "cga/population.hpp"
#include "support/rng.hpp"

namespace pacga::cga {

class Breeder {
 public:
  /// Sizes the parent-b buffer for `etc`'s shape. `config` must outlive
  /// the breeder (the engines own both).
  Breeder(const etc::EtcMatrix& etc, const Config& config);

  /// One breeding step on cell `cell`, reading the population
  /// UNSYNCHRONIZED (sequential and cellwise engines; commits must be
  /// quiescent). Writes the evaluated offspring into `out`, which must not
  /// alias a population cell and must belong to the same ETC instance
  /// (any same-shape Individual; typically a preallocated buffer).
  void breed_into(const Population& pop, std::size_t cell,
                  support::Xoshiro256& rng, Individual& out);

  /// Same step on a population other threads are writing (PA-CGA, paper
  /// §3.2). `owned` is the calling worker's block: the caller is the only
  /// writer of those cells and does not publish during the step, so their
  /// fitnesses are read directly, an owned parent a is copied directly into
  /// `out`, and an owned parent b is read in place. A foreign cell is read
  /// through Population::read_fitness / read_cell, into `out` (parent a) or
  /// the breeder's private buffer (parent b). The same RNG draws and the
  /// same offspring as breed_into, whatever `owned` is.
  void breed_shared_into(const Population& pop, const Block& owned,
                         std::size_t cell, support::Xoshiro256& rng,
                         Individual& out);

  /// Allocation-free replacement: copies `offspring` into `cell`'s
  /// existing storage instead of moving vectors out of it (a move would
  /// leave the source to reallocate on its next use).
  static void replace(Individual& cell, const Individual& offspring) {
    cell.schedule.assign_from(offspring.schedule);
    cell.fitness = offspring.fitness;
  }

 private:
  const Config* config_;
  Individual parent_b_;  ///< shared-mode snapshot of a foreign parent b
};

namespace detail {

/// Shared variation tail: `child` holds a copy of parent a on entry; the
/// call applies recombination (against `parent_b`), mutation, and local
/// search per `config`, then evaluates the result into `child.fitness`.
/// The RNG draw order is identical to the historical engine loops, so
/// refactored engines reproduce the same trajectories seed for seed.
void vary_and_evaluate(Individual& child, const sched::Schedule& parent_b,
                       const Config& config, support::Xoshiro256& rng);

}  // namespace detail

}  // namespace pacga::cga
