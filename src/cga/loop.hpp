// The shared engine-loop core. Every evolution loop in the library
// (cga::run_sequential, par::run_cellwise, par::run_parallel,
// and the GA baselines) is assembled from these pieces instead of
// re-implementing sweep ordering, best tracking, termination, and tracing:
//
//   * SweepOrderCache       — the visiting order, regenerated in place
//                             (no per-generation allocation);
//   * TerminationController — wall clock + generation + evaluation budgets
//                             behind one verdict, checked at the paper's
//                             per-block-sweep granularity;
//   * BestTracker           — best-ever individual, updated into
//                             preallocated storage (no alloc on improve);
//   * TraceRecorder         — the Figure 6 per-generation samples;
//   * GenerationObserver    — user hook after every committed generation
//                             (checkpointing, streaming stats, early UI).
//
// The run_sweep_loop driver owns the loop skeleton; engines supply two
// lambdas (per-cell step, end-of-sweep commit) that close over their own
// synchronization discipline.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "cga/config.hpp"
#include "cga/population.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace pacga::cga {

/// Cached cell-visiting order for one block (or the whole population).
/// Construction draws from `rng` exactly like one fill_sweep_order call,
/// and next_sweep() refreshes the order IN PLACE for the policies that
/// need a fresh one per generation — the buffer is never reallocated.
class SweepOrderCache {
 public:
  SweepOrderCache(SweepPolicy policy, std::size_t n, support::Xoshiro256& rng);

  /// Order for the upcoming sweep (regenerates for kNewShuffle /
  /// kUniformChoice; stable reference otherwise).
  const std::vector<std::size_t>& next_sweep(support::Xoshiro256& rng);

  /// Re-arms the cache for a NEW run over the same population size:
  /// regenerates the initial order in place from `rng`, drawing exactly as
  /// construction does (SequentialEngine's warm runs; no reallocation).
  void reset(support::Xoshiro256& rng) { fill(rng); }

  const std::vector<std::size_t>& order() const noexcept { return order_; }

 private:
  void fill(support::Xoshiro256& rng);

  SweepPolicy policy_;
  std::vector<std::size_t> order_;
};

/// Overwrites `order` (resized to `n`) with the visiting order of one
/// sweep. For kUniformChoice it is a fresh uniform sample WITH replacement
/// (the paper's "uniform choice" policy); all other policies are
/// permutations.
void fill_sweep_order(SweepPolicy policy, std::size_t n,
                      std::vector<std::size_t>& order,
                      support::Xoshiro256& rng);

/// One place that answers "is this run over?". Owns the wall-clock deadline,
/// so constructing the controller starts the run's clock. All checks are
/// const — a single controller is safely shared by every worker thread.
class TerminationController {
 public:
  explicit TerminationController(const Termination& limits)
      : limits_(limits), deadline_(limits.wall_seconds) {}

  /// Installs an external stop flag (job cancellation, service shutdown).
  /// The flag is polled at the same per-block-sweep granularity as the
  /// budgets, so a raised flag ends the run within one generation. The
  /// flag must outlive the controller; pass nullptr to detach.
  void bind_stop_flag(const std::atomic<bool>* stop) noexcept { stop_ = stop; }

  /// True when a bound stop flag has been raised.
  bool externally_stopped() const noexcept {
    return stop_ != nullptr && stop_->load(std::memory_order_relaxed);
  }

  /// Fine-grained check used where the historical loops stopped mid-sweep.
  bool evaluations_exhausted(std::uint64_t evaluations) const noexcept {
    return evaluations >= limits_.max_evaluations;
  }

  /// The paper's per-block-sweep verdict: wall clock OR generation budget
  /// OR (global) evaluation budget OR an external stop request.
  bool sweep_done(std::uint64_t generations,
                  std::uint64_t evaluations) const noexcept {
    return deadline_.expired() || generations >= limits_.max_generations ||
           evaluations >= limits_.max_evaluations || externally_stopped();
  }

  double elapsed_seconds() const noexcept {
    return deadline_.elapsed_seconds();
  }
  const Termination& limits() const noexcept { return limits_; }

 private:
  Termination limits_;
  support::Deadline deadline_;
  const std::atomic<bool>* stop_ = nullptr;
};

/// Best-ever individual of a run (or of one worker). observe() copies an
/// improving candidate into preallocated storage, so tracking is free of
/// heap traffic on the steady-state path.
///
/// The seed must carry a fresh fitness (an initial-population cell), and
/// the tracker keeps a copy of it for finish().
class BestTracker {
 public:
  explicit BestTracker(const Individual& seed) : best_(seed), seed_(seed) {}

  /// Re-arms the tracker for a new run, copying `seed` into the EXISTING
  /// storage — alloc-free when the shapes match (SequentialEngine).
  void reset(const Individual& seed) {
    best_.schedule.assign_from(seed.schedule);
    best_.fitness = seed.fitness;
    seed_.schedule.assign_from(seed.schedule);
    seed_.fitness = seed.fitness;
  }

  /// End of run: makes the reported fitness canonical. Offspring carry
  /// incrementally maintained completion times, which can sit an ulp off
  /// a from-scratch sum, so the best's cache is rebuilt and the best is
  /// re-evaluated: the fitness then equals a fresh evaluation of its
  /// schedule (what a warm seed re-enters with). Should that fresh value
  /// exceed the seed's, the seed is reported instead, so a run is never
  /// worse than its seed.
  void finish(sched::Objective objective, double lambda) {
    best_.schedule.recompute();
    best_.fitness = sched::evaluate(best_.schedule, objective, lambda);
    if (seed_.fitness < best_.fitness) {
      best_.schedule.assign_from(seed_.schedule);
      best_.fitness = seed_.fitness;
    }
  }

  void observe(const Individual& candidate) {
    if (candidate.fitness < best_.fitness) {
      best_.schedule.assign_from(candidate.schedule);
      best_.fitness = candidate.fitness;
    }
  }

  /// Unsynchronized scan — call only when no writer is active.
  void observe_population(const Population& pop) {
    for (std::size_t i = 0; i < pop.size(); ++i) observe(pop.at(i));
  }

  const Individual& best() const noexcept { return best_; }
  double fitness() const noexcept { return best_.fitness; }

  /// Moves the best individual out (end of run).
  Individual take() { return std::move(best_); }

 private:
  Individual best_;
  Individual seed_;
};

/// Per-generation TracePoint collection (Figure 6 raw data). Disabled
/// recorders are free: every call is a branch on one bool.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Whole-population sample. It reads every fitness through
  /// Population::read_fitness, so it is safe on a population other
  /// threads are publishing to (run_parallel's thread 0).
  void sample(std::uint64_t generation, double elapsed_seconds,
              const Population& pop);

  /// Same, over a flat population (panmictic baselines).
  void sample(std::uint64_t generation, double elapsed_seconds,
              const std::vector<Individual>& pop);

  void push(const TracePoint& p) {
    if (enabled_) trace_.push_back(p);
  }

  std::vector<TracePoint> take() { return std::move(trace_); }

 private:
  bool enabled_;
  std::vector<TracePoint> trace_;
};

/// The cell a warm seed occupies: cell 1 when Min-min seeding holds cell 0
/// (so both survive into the initial population), cell 0 otherwise. One
/// shared answer to "where does the seed live" for every engine.
inline constexpr std::size_t warm_seed_cell(bool seed_min_min,
                                            std::size_t pop_size) noexcept {
  return seed_min_min && pop_size > 1 ? 1 : 0;
}

/// Injects config.warm_seed into a freshly initialized population (no-op
/// when the seed is empty): the designated cell adopts the assignment in
/// place (Population::seed_cell — zero allocations) while every other cell
/// keeps its random/Min-min initialization. Draws no RNG, so seeding never
/// perturbs a run's trajectory beyond the seeded cell itself. Returns the
/// seeded cell index, or pop.size() when nothing was injected. Throws
/// std::invalid_argument when the seed's length or machine ids do not fit
/// `etc`.
std::size_t apply_warm_seed(Population& pop, const etc::EtcMatrix& etc,
                            const Config& config);

/// Snapshot handed to the per-generation observer. The population reference
/// is live: in the asynchronous parallel engine other threads keep
/// publishing to it, so observers there must read cells through
/// Population::read_fitness / read_cell, never at() (the sequential,
/// cellwise, and synchronous engines call the observer from a quiescent
/// point).
struct GenerationEvent {
  std::uint64_t generation = 0;     ///< committed sweeps of the caller
  std::uint64_t evaluations = 0;    ///< engine-wide evaluations so far
  double elapsed_seconds = 0.0;
  /// Best-ever fitness KNOWN TO THE REPORTING WORKER. Engine-wide in the
  /// sequential and cellwise engines; in run_parallel the reporter is
  /// thread 0, so another thread's better find surfaces here only after
  /// it enters the population and thread 0 observes it.
  double best_fitness = 0.0;
  const Population& population;
};

/// Called after every committed generation/block sweep. Keep it cheap: the
/// engines invoke it on the hot path (sequential) or from worker 0
/// (parallel engines).
using GenerationObserver = std::function<void(const GenerationEvent&)>;

/// True for the generations the service's convergence probe records:
/// powers of two, so a G-generation run emits O(log G) probes — dense
/// early where the CGA improves fastest, sparse in the long tail. g == 0
/// (no committed sweep yet) is never sampled.
inline constexpr bool sampled_generation(std::uint64_t g) noexcept {
  return g != 0 && (g & (g - 1)) == 0;
}

/// The loop skeleton every engine shares: refresh the sweep order, visit
/// each cell through `step`, then run `end_of_sweep` — repeatedly, until
/// either asks to stop.
///
///   step(cell_position) -> bool  true = stop mid-sweep (budget hit); the
///                                partial sweep still gets its end_of_sweep.
///   end_of_sweep() -> bool       runs the engine's commit / barrier /
///                                trace / termination logic; returns the
///                                termination verdict for this sweep.
template <typename Step, typename EndOfSweep>
void run_sweep_loop(SweepOrderCache& order, support::Xoshiro256& order_rng,
                    Step&& step, EndOfSweep&& end_of_sweep) {
  bool stopping = false;
  while (!stopping) {
    const std::vector<std::size_t>& o = order.next_sweep(order_rng);
    for (std::size_t pos : o) {
      if (step(pos)) {
        stopping = true;
        break;
      }
    }
    stopping = end_of_sweep() || stopping;
  }
}

}  // namespace pacga::cga
