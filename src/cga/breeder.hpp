// The breeding step (paper Algorithm 3 lines 3-8, minus replacement) as a
// reusable, allocation-free component.
//
// The historical loops heap-allocated two parent Individual copies plus a
// fresh offspring Schedule on EVERY evaluation — 4+ vector allocations on
// the hottest path in the system. A Breeder owns the parent-b copy buffer
// (shared mode) and the neighborhood/fitness scratch, and the caller owns
// the offspring buffer. After the first step sizes the vectors
// (warm-up), a steady-state select -> crossover -> mutate -> local-search
// -> evaluate sequence performs ZERO heap allocations (verified by
// test_breeder's operator-new counter; kTabuHop and the flowtime-based
// objectives are the documented exceptions — they allocate internally).
//
// One Breeder per thread: it is as thread-private as the RNG stream it is
// used with.
// The synchronous engines go one step further: offspring are bred with
// evaluation DEFERRED (breed_*_into_deferred) and a whole sweep's staged
// block is then evaluated through one batched kernel dispatch
// (evaluate_batch) — same fitness values bit for bit, one indirect call
// per sweep instead of one per child. Deferral is trajectory-neutral:
// evaluation draws no RNG.
#pragma once

#include "cga/config.hpp"
#include "cga/population.hpp"
#include "support/rng.hpp"

namespace pacga::cga {

class Breeder {
 public:
  /// Sizes every internal buffer for `etc`'s shape. `config` must outlive
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
  /// writer of those cells, so their fitnesses and parent copies are read
  /// directly. Every other cell is read through Population::read_fitness /
  /// read_cell into the breeder's private buffers. Variation and
  /// evaluation run on those private copies. The same RNG draws and the
  /// same offspring as breed_into, whatever `owned` is.
  void breed_shared_into(const Population& pop, const Block& owned,
                         std::size_t cell, support::Xoshiro256& rng,
                         Individual& out);

  /// breed_into with the final evaluation DEFERRED: `out.fitness` is left
  /// stale; the caller owes it an evaluate_batch (or sched::evaluate)
  /// before the offspring competes. Identical RNG draw order to
  /// breed_into — evaluation draws nothing — so deferral never changes a
  /// trajectory.
  void breed_into_deferred(const Population& pop, std::size_t cell,
                           support::Xoshiro256& rng, Individual& out);

  /// Deferred-evaluation form of breed_shared_into (same contract).
  void breed_shared_into_deferred(const Population& pop, const Block& owned,
                                  std::size_t cell, support::Xoshiro256& rng,
                                  Individual& out);

  /// Evaluates `count` deferred offspring in one batched kernel dispatch
  /// (kMakespan: a single kernels::batch_max sweep over the completion
  /// rows; other objectives evaluate per child — the documented allocating
  /// exceptions). Fitness values are bit-identical to per-child
  /// evaluation. The first call at a new high-water `count` sizes the
  /// row-pointer/output scratch (warm-up); steady state allocates nothing.
  void evaluate_batch(Individual* staged, std::size_t count);

  /// Allocation-free replacement: copies `offspring` into `cell`'s
  /// existing storage instead of moving vectors out of it (a move would
  /// leave the source to reallocate on its next use).
  static void replace(Individual& cell, const Individual& offspring) {
    cell.schedule.assign_from(offspring.schedule);
    cell.fitness = offspring.fitness;
  }

 private:
  const Config* config_;
  Individual parent_b_;  ///< shared-mode parent snapshot
  std::vector<std::size_t> neigh_;
  std::vector<double> fit_;
  std::vector<const double*> batch_rows_;  ///< completion-row pointers
  std::vector<double> batch_fit_;          ///< batched makespans
};

namespace detail {

/// Shared variation tail: `child` holds a copy of parent a on entry; the
/// call applies recombination (against `parent_b`), mutation, and local
/// search per `config`. `child.fitness` is NOT updated. The RNG draw order
/// is identical to the historical engine loops, so refactored engines
/// reproduce the same trajectories seed for seed.
void vary(Individual& child, const sched::Schedule& parent_b,
          const Config& config, support::Xoshiro256& rng);

/// vary() plus the final evaluation into `child.fitness`.
void vary_and_evaluate(Individual& child, const sched::Schedule& parent_b,
                       const Config& config, support::Xoshiro256& rng);

}  // namespace detail

}  // namespace pacga::cga
