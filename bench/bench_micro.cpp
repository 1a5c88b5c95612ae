// Micro-benchmarks (google-benchmark) for the performance claims the paper
// makes about its representation, plus the design-choice ablations:
//   * incremental completion-time updates vs full re-evaluation (§3.3);
//   * TRANSPOSED (machine-major) vs task-major ETC layout — the paper's
//     "5-10 % end-to-end" cache claim, exercised with the paper's access
//     pattern (consecutive tasks probed on one machine);
//   * per-individual shared_mutex acquire cost (uncontended), the price
//     the paper's rwlock pays per neighbor access (the engine replaced it
//     by a single-writer seqlock; BM_BreederStepShared measures that);
//   * the operators on the paper's 512x16 instance shape.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <mutex>
#include <shared_mutex>

#include "cga/breeder.hpp"
#include "cga/crossover.hpp"
#include "cga/engine.hpp"
#include "cga/local_search.hpp"
#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/sufferage.hpp"
#include "pacga/cellwise_engine.hpp"
#include "pacga/parallel_engine.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace pacga;

const etc::EtcMatrix& paper_instance() {
  static const etc::EtcMatrix m = etc::generate_by_name("u_i_hihi.0");
  return m;
}

void BM_EvaluateMakespan(benchmark::State& state) {
  const auto& m = paper_instance();
  support::Xoshiro256 rng(1);
  const auto s = sched::Schedule::random(m, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.makespan());
  }
}
BENCHMARK(BM_EvaluateMakespan);

void BM_IncrementalMove(benchmark::State& state) {
  const auto& m = paper_instance();
  support::Xoshiro256 rng(2);
  auto s = sched::Schedule::random(m, rng);
  std::size_t t = 0;
  for (auto _ : state) {
    s.move_task(t, static_cast<sched::MachineId>(rng.index(m.machines())));
    t = (t + 1) % m.tasks();
  }
  benchmark::DoNotOptimize(s.makespan());
}
BENCHMARK(BM_IncrementalMove);

void BM_FullRecompute(benchmark::State& state) {
  // The cost the incremental cache avoids on every operator application.
  const auto& m = paper_instance();
  support::Xoshiro256 rng(3);
  auto s = sched::Schedule::random(m, rng);
  for (auto _ : state) {
    s.recompute();
    benchmark::DoNotOptimize(s.completion(0));
  }
}
BENCHMARK(BM_FullRecompute);

void BM_Crossover(benchmark::State& state) {
  const auto& m = paper_instance();
  const auto kind = static_cast<cga::CrossoverKind>(state.range(0));
  support::Xoshiro256 rng(4);
  const auto a = sched::Schedule::random(m, rng);
  const auto b = sched::Schedule::random(m, rng);
  sched::Schedule child = a;
  for (auto _ : state) {
    child.assign_from(a);
    cga::crossover_into(kind, child, b, rng);
    benchmark::DoNotOptimize(child.makespan());
  }
}
BENCHMARK(BM_Crossover)
    ->Arg(static_cast<int>(cga::CrossoverKind::kOnePoint))
    ->Arg(static_cast<int>(cga::CrossoverKind::kTwoPoint));

void BM_H2LL(benchmark::State& state) {
  const auto& m = paper_instance();
  support::Xoshiro256 rng(5);
  const auto base = sched::Schedule::random(m, rng);
  const cga::H2LLParams params{static_cast<std::size_t>(state.range(0)), 0};
  for (auto _ : state) {
    auto s = base;
    cga::h2ll(s, params, rng);
    benchmark::DoNotOptimize(s.makespan());
  }
}
BENCHMARK(BM_H2LL)->Arg(1)->Arg(5)->Arg(10);

void BM_LocalTabuHop(benchmark::State& state) {
  const auto& m = paper_instance();
  support::Xoshiro256 rng(6);
  const auto base = sched::Schedule::random(m, rng);
  const cga::TabuHopParams params{static_cast<std::size_t>(state.range(0)), 8};
  for (auto _ : state) {
    auto s = base;
    cga::local_tabu_hop(s, params, rng);
    benchmark::DoNotOptimize(s.makespan());
  }
}
BENCHMARK(BM_LocalTabuHop)->Arg(5)->Arg(10);

// --- ETC layout ablation (paper §3.3) ---------------------------------
// The paper's access pattern: probe the ETCs of a window of consecutive
// tasks on the same machine. The machine-major arm reads them from the
// column (on_machine), which streams from one cache line; the task-major
// arm reads them through operator(), which strides by #machines * 8 bytes.
// The solver's own hot loops read task rows instead (see etc_matrix.hpp).

template <bool kMachineMajor>
void etc_layout_walk(benchmark::State& state) {
  const auto& m = paper_instance();
  support::Xoshiro256 rng(7);
  double sink = 0.0;
  for (auto _ : state) {
    const std::size_t mac = rng.index(m.machines());
    const std::size_t start = rng.index(m.tasks() - 64);
    for (std::size_t t = start; t < start + 64; ++t) {
      sink += kMachineMajor ? m.on_machine(mac)[t] : m(t, mac);
    }
  }
  benchmark::DoNotOptimize(sink);
}

void BM_EtcLayout_MachineMajor(benchmark::State& state) {
  etc_layout_walk<true>(state);
}
BENCHMARK(BM_EtcLayout_MachineMajor);

void BM_EtcLayout_TaskMajor(benchmark::State& state) {
  etc_layout_walk<false>(state);
}
BENCHMARK(BM_EtcLayout_TaskMajor);

// --- lock overhead -------------------------------------------------------

void BM_SharedMutexReadAcquire(benchmark::State& state) {
  std::shared_mutex mu;
  for (auto _ : state) {
    std::shared_lock lock(mu);
    benchmark::DoNotOptimize(&lock);
  }
}
BENCHMARK(BM_SharedMutexReadAcquire);

void BM_SharedMutexWriteAcquire(benchmark::State& state) {
  std::shared_mutex mu;
  for (auto _ : state) {
    std::unique_lock lock(mu);
    benchmark::DoNotOptimize(&lock);
  }
}
BENCHMARK(BM_SharedMutexWriteAcquire);

// --- composite steps ------------------------------------------------------

void BM_BreedStep(benchmark::State& state) {
  // One full sequential breeding step (selection -> tpx -> move -> H2LL(10)
  // -> evaluate) on the paper's population shape, via the LEGACY allocating
  // path (fresh offspring per call). The paper reports a whole 256-cell
  // generation under 6 ms; one step should be ~25 us there.
  const auto& m = paper_instance();
  support::Xoshiro256 rng(8);
  cga::Config config;
  config.termination = cga::Termination::after_generations(1);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(m, grid, rng, true, config.objective);
  std::size_t idx = 0;
  for (auto _ : state) {
    auto child = cga::detail::breed(pop, idx, config, rng);
    benchmark::DoNotOptimize(child.fitness);
    idx = (idx + 1) % pop.size();
  }
}
BENCHMARK(BM_BreedStep);

void BM_BreederStep(benchmark::State& state) {
  // The same breeding step through the zero-allocation Breeder core (the
  // engines' actual hot path after the refactor). The delta vs BM_BreedStep
  // is the malloc traffic the refactor removed.
  const auto& m = paper_instance();
  support::Xoshiro256 rng(8);
  cga::Config config;
  config.termination = cga::Termination::after_generations(1);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(m, grid, rng, true, config.objective);
  cga::Breeder breeder(m, config);
  cga::Individual out(sched::Schedule(m), 0.0);
  std::size_t idx = 0;
  for (auto _ : state) {
    breeder.breed_into(pop, idx, rng, out);
    benchmark::DoNotOptimize(out.fitness);
    idx = (idx + 1) % pop.size();
  }
}
BENCHMARK(BM_BreederStep);

void BM_BreederStepShared(benchmark::State& state) {
  // Zero-allocation step through PA-CGA's shared entry point, with no
  // concurrent writer. Arg 1: the caller owns every cell (a 1-thread run,
  // all reads direct). Arg 0: it owns none (every read validated).
  const auto& m = paper_instance();
  support::Xoshiro256 rng(8);
  cga::Config config;
  config.termination = cga::Termination::after_generations(1);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(m, grid, rng, true, config.objective);
  cga::Breeder breeder(m, config);
  cga::Individual out(sched::Schedule(m), 0.0);
  const cga::Block owned{0, state.range(0) != 0 ? pop.size() : 0};
  std::size_t idx = 0;
  for (auto _ : state) {
    breeder.breed_shared_into(pop, owned, idx, rng, out);
    benchmark::DoNotOptimize(out.fitness);
    idx = (idx + 1) % pop.size();
  }
}
BENCHMARK(BM_BreederStepShared)->Arg(1)->Arg(0);

void BM_MinMin(benchmark::State& state) {
  // The population seed heuristic on the full 512x16 shape.
  const auto& m = paper_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(heur::min_min(m).makespan());
  }
}
BENCHMARK(BM_MinMin);

void BM_Sufferage(benchmark::State& state) {
  const auto& m = paper_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(heur::sufferage(m).makespan());
  }
}
BENCHMARK(BM_Sufferage);

// --- engine throughput -> BENCH_engines.json ------------------------------
// Machine-readable per-engine evaluations/sec under a fixed wall budget,
// plus the pre-refactor sequential loop (legacy detail::breed, allocating
// per step) as the before/after baseline. Written after the
// google-benchmark run by the custom main below.

/// The sequential loop as written before the Breeder refactor: fresh
/// offspring allocation on every step. Returns evaluations performed.
std::uint64_t legacy_sequential_evals(const etc::EtcMatrix& m,
                                      cga::Config config) {
  support::Xoshiro256 rng(config.seed);
  cga::Grid grid(config.width, config.height);
  cga::Population pop(m, grid, rng, config.seed_min_min, config.objective);
  const support::Deadline deadline(config.termination.wall_seconds);
  std::uint64_t evaluations = 0;
  while (!deadline.expired()) {
    for (std::size_t idx = 0; idx < pop.size(); ++idx) {
      auto child = cga::detail::breed(pop, idx, config, rng);
      ++evaluations;
      if (child.fitness < pop.at(idx).fitness) {
        pop.at(idx) = std::move(child);
      }
    }
  }
  return evaluations;
}

void write_engines_json(const char* path) {
  const auto& m = paper_instance();
  const double budget_s = 0.25;
  cga::Config config;
  config.termination = cga::Termination::after_seconds(budget_s);

  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"instance\": \"u_i_hihi.0\",\n");
  std::fprintf(out, "  \"wall_budget_seconds\": %.3f,\n", budget_s);
  std::fprintf(out, "  \"engines\": [\n");

  auto emit = [&](const char* name, std::uint64_t evals, double elapsed,
                  bool last) {
    std::fprintf(out,
                 "    {\"engine\": \"%s\", \"evaluations\": %llu, "
                 "\"elapsed_seconds\": %.4f, \"evals_per_sec\": %.1f}%s\n",
                 name, static_cast<unsigned long long>(evals), elapsed,
                 static_cast<double>(evals) / elapsed, last ? "" : ",");
  };

  {
    support::WallTimer t;
    const std::uint64_t evals = legacy_sequential_evals(m, config);
    emit("sequential_legacy_prealloc_refactor_baseline", evals,
         t.elapsed_seconds(), false);
  }
  {
    const auto r = cga::run_sequential(m, config);
    emit("sequential", r.evaluations, r.elapsed_seconds, false);
  }
  {
    const auto r = par::run_cellwise(m, config);
    emit("cellwise", r.result.evaluations, r.result.elapsed_seconds, false);
  }
  {
    const auto r = par::run_parallel(m, config);
    emit("parallel_async", r.result.evaluations, r.result.elapsed_seconds,
         true);
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_engines_json("BENCH_engines.json");
  return 0;
}
