// PA-CGA — the paper's contribution (§3.2, Algorithms 2 & 3).
//
// The population grid is split into contiguous row-major blocks, one per
// thread. Threads evolve their block asynchronously: no generation barrier,
// a fixed line sweep inside each block, and immediate (asynchronous)
// replacement. The paper guards every cell with a read-write lock. Here
// every cell has exactly one writer, the thread whose block holds it, and
// synchronization is paid only where another thread can be writing:
//   * fitness snapshot and parent copies of the thread's own cells — plain
//     reads;
//   * the same reads of a neighboring block's cells — Population's
//     seqlock reads (read_fitness, read_cell), which never return a torn
//     individual and write no shared line;
//   * replacement of the thread's own cell — Population::publish, run only
//     when the offspring actually replaces it.
// Nothing blocks, so the scheme is trivially deadlock-free. Breeding
// (crossover, mutation, H2LL, evaluation) runs on private copies — exactly
// the property the paper exploits to scale: more local-search iterations
// means a larger unsynchronized fraction (Figure 4).
#pragma once

#include <cstdint>
#include <vector>

#include "cga/config.hpp"
#include "cga/loop.hpp"
#include "etc/etc_matrix.hpp"

namespace pacga::par {

/// Per-thread counters, exposed because the paper's speedup metric is
/// "total evaluations across threads in a fixed wall budget" (eq. 5).
struct ThreadStats {
  std::uint64_t evaluations = 0;
  std::uint64_t generations = 0;  ///< full sweeps of the thread's block
  std::uint64_t replacements = 0; ///< offspring that entered the population
};

/// Result of a PA-CGA run plus per-thread accounting.
struct ParallelResult {
  cga::Result result;
  std::vector<ThreadStats> threads;

  /// Sum of evaluations across threads (the Figure 4 numerator).
  std::uint64_t total_evaluations() const noexcept;
};

/// Runs PA-CGA with `config.threads` threads on `etc`.
///
/// Termination: wall clock is checked by every thread after each full block
/// sweep (the paper's coarse-grained approximation); `max_generations`
/// bounds each thread's own sweep count; `max_evaluations` bounds the
/// global evaluation total (checked per sweep).
///
/// Warm seeding: a non-empty `config.warm_seed` is injected into one cell
/// of the initial population (cga::apply_warm_seed) before the workers
/// start AND before the initial best is recorded, so a seeded run's result
/// is never worse than the seed by construction — the service's dynamic
/// rescheduling path relies on this instead of clamping after the fact.
///
/// With `config.threads == 1` this is the canonical asynchronous CGA of
/// §3.1 (same algorithm as cga::run_sequential).
///
/// PA-CGA is asynchronous by definition: `config.update == kSynchronous`
/// throws std::invalid_argument (the synchronous update, cMA+LTH's, runs
/// on cga::run_sequential).
/// `observer` (optional) runs on thread 0 after each of ITS block sweeps.
/// The population is live — observers must read it through
/// Population::read_fitness / read_cell.
/// `cancel` (optional) is an external stop flag every thread polls at its
/// per-block-sweep termination check; raising it ends the run within one
/// block sweep per thread (the service's job-cancellation path).
ParallelResult run_parallel(const etc::EtcMatrix& etc,
                            const cga::Config& config,
                            const cga::GenerationObserver& observer = {},
                            const std::atomic<bool>* cancel = nullptr);

}  // namespace pacga::par
