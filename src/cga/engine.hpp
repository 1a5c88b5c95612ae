// Sequential cellular GA engine — the canonical algorithm of paper §3.1.
// Supports both update policies (asynchronous = paper Algorithm 1;
// synchronous = auxiliary-population variant) and every sweep policy.
// PA-CGA with one thread is exactly this engine with kLineSweep/async.
//
// The loop body is assembled from the shared core (cga/loop.hpp +
// cga/breeder.hpp): the same components drive the parallel engines, so a
// steady-state breeding step allocates nothing and every engine exposes
// the same per-generation observer hook. SequentialEngine keeps its state
// across runs: the scheduler service's warm solver is a long-lived one.
#pragma once

#include <atomic>
#include <optional>
#include <span>
#include <vector>

#include "cga/breeder.hpp"
#include "cga/config.hpp"
#include "cga/loop.hpp"
#include "cga/population.hpp"
#include "etc/etc_matrix.hpp"

namespace pacga::cga {

/// What one SequentialEngine::run reports besides its best individual,
/// which stays in the engine (best() / take_best()).
struct RunStats {
  std::uint64_t evaluations = 0;  ///< offspring evaluations (excludes init)
  std::uint64_t generations = 0;  ///< full sweeps
  double elapsed_seconds = 0.0;
  std::vector<TracePoint> trace;  ///< empty unless config.collect_trace
};

/// The sequential CGA as a reusable arena. A run with the previous run's
/// shape (tasks x machines, grid, sweep and update policy) reinitializes
/// the buffers in place and any other run rebuilds them. Warm and cold
/// runs are identical.
///
/// The arena also remembers the Min-min seed of the matrices it has run:
/// a direct-mapped table of one slot per population cell, indexed by
/// EtcMatrix::fingerprint() (trusted as the solution cache trusts it) and
/// cleared on a rebuild. A matrix seen before plants its stored seed
/// instead of rerunning Min-min, so a warm run on it allocates nothing,
/// Min-min seeding or not; a new matrix pays one Min-min run and one
/// tasks-sized copy. Debug builds recompute Min-min on every hit and
/// assert that it equals the stored seed.
/// NOT thread-safe, and pinned in memory (the breeder points into it).
class SequentialEngine {
 public:
  SequentialEngine() = default;
  SequentialEngine(const SequentialEngine&) = delete;
  SequentialEngine& operator=(const SequentialEngine&) = delete;

  /// Validates `config` and sizes the arena for `etc`; true when that
  /// took a (re)build. run() calls it first.
  bool ensure(const etc::EtcMatrix& etc, const Config& config);

  /// True when the arena is built for the shape of a run on `etc` per
  /// `config`, so ensure() would reuse it.
  bool fits(const etc::EtcMatrix& etc, const Config& config) const noexcept;

  /// One run on `etc` per `config` (`config.threads` is ignored).
  /// Deterministic: same seed, same result. `observer` (optional) is
  /// called after every committed generation from a quiescent point.
  /// `cancel` (optional) is a stop flag polled once per generation.
  RunStats run(const etc::EtcMatrix& etc, const Config& config,
               const GenerationObserver& observer = {},
               const std::atomic<bool>* cancel = nullptr);

  /// Best individual of the last run.
  const Individual& best() const noexcept { return best_->best(); }

  /// Moves the last run's best individual out; the next run rebuilds.
  Individual take_best();

  /// Arena (re)builds since construction.
  std::uint64_t builds() const noexcept { return builds_; }

 private:
  /// One slot of the Min-min seed table; empty until filled.
  struct MinMinSeed {
    std::uint64_t fingerprint = 0;
    std::vector<sched::MachineId> assignment;
  };

  /// `etc`'s Min-min assignment: from the table on a hit, computed and
  /// stored on a miss.
  std::span<const sched::MachineId> min_min_seed(const etc::EtcMatrix& etc);

  Config config_;  ///< the current run's config; breeder_ reads through it
  std::uint64_t builds_ = 0;
  support::Xoshiro256 rng_;
  std::optional<Population> pop_;
  std::optional<Breeder> breeder_;
  std::optional<SweepOrderCache> order_;
  std::optional<BestTracker> best_;  ///< empty: no arena (or best taken)
  /// Offspring buffers: staged_[0] in asynchronous mode; one per cell for
  /// the synchronous auxiliary population (staged_[k] belongs to order[k]
  /// of the current sweep, evaluated when bred).
  std::vector<Individual> staged_;
  std::vector<MinMinSeed> seeds_;  ///< one slot per cell; empty on rebuild
};

/// One run of a fresh SequentialEngine, its best individual moved into
/// the Result (see SequentialEngine::run for the parameters).
Result run_sequential(const etc::EtcMatrix& etc, const Config& config,
                      const GenerationObserver& observer = {},
                      const std::atomic<bool>* cancel = nullptr);

namespace detail {

/// One breeding step on cell `index` (paper Algorithm 3 lines 3-8, minus
/// replacement): neighborhood -> selection -> recombination -> mutation ->
/// local search -> evaluation. Reads the population unsynchronized.
/// (Independent reference for cga::Breeder, which the engines use: this
/// allocates a fresh offspring per call, the Breeder allocates nothing.)
Individual breed(const Population& pop, std::size_t index,
                 const Config& config, support::Xoshiro256& rng);

}  // namespace detail

}  // namespace pacga::cga
