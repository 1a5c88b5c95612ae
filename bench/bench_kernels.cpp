// bench_kernels — the SIMD kernel layer, measured at both ends.
//
// Kernel level: scalar vs dispatched max/argmax/fused-min scans at 16 /
// 64 / 512 / 4096 machines (16 is the paper's shape; the acceptance bar is
// >= 3x at 4096 for the dispatched path on AVX2 hardware), and the slots
// of the paper's breeding step at the shapes it runs: a whole H2LL-10 call
// at 512x16 (the register bodies), the gene masks at 512 genes (ne-mask
// also at a 200-gene crossover segment) and lightest_mask at 16 machines.
//
// End-to-end: the consumers rewired onto the kernels, each against its
// pre-rewrite reference —
//   * Min-min / Max-min / Sufferage: cached-best-machine rewrite vs the
//     naive textbook loop (schedules asserted IDENTICAL);
//   * H2LL: the lightest-machines mask + kernel scans vs the former
//     per-iteration full sort (reference preserved inline here);
//   * dynamic repair: full-orphan constructive repair (RescheduleSession
//     init) vs the naive reference order, plus absolute machine-down
//     repair latency.
//
// Emits BENCH_kernels.json. Default scale matches the acceptance spec
// (Min-min at 8192x256); --quick shrinks everything for CI smoke runs.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "cga/local_search.hpp"
#include "cga/mutation.hpp"
#include "dynamic/session.hpp"
#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/sufferage.hpp"
#include "support/cli.hpp"
#include "support/kernels.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace pacga;
namespace kernels = support::kernels;

struct Options {
  std::size_t minmin_tasks = 8192;
  std::size_t minmin_machines = 256;
  std::size_t sufferage_tasks = 2048;
  std::size_t sufferage_machines = 128;
  std::size_t h2ll_tasks = 4096;
  std::size_t h2ll_machines = 512;
  std::size_t h2ll_iterations = 20000;
  std::size_t repair_tasks = 8192;
  std::size_t repair_machines = 16;
  std::uint64_t seed = 1;
  bool quick = false;

  void finalize() {
    if (quick) {
      minmin_tasks = 1024;
      minmin_machines = 64;
      sufferage_tasks = 512;
      sufferage_machines = 32;
      h2ll_tasks = 1024;
      h2ll_machines = 128;
      h2ll_iterations = 5000;
      repair_tasks = 2048;
      repair_machines = 16;
    }
  }
};

etc::EtcMatrix random_matrix(std::size_t tasks, std::size_t machines,
                             std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<double> data(tasks * machines);
  for (auto& v : data) v = rng.uniform(1.0, 1000.0);
  return etc::EtcMatrix(tasks, machines, std::move(data));
}

// ---- kernel-level microbench ---------------------------------------------

struct KernelPoint {
  const char* kernel;
  const char* dispatch;  ///< which SIMD table the dispatched arm ran
  std::size_t n;         ///< machines, or genes for the gene masks
  double scalar_ns;
  double dispatched_ns;
  double speedup;
};

/// ns per call of `fn`, amortized over enough repetitions to swamp timer
/// noise. `sink` keeps the optimizer honest.
template <typename Fn>
double time_ns(Fn&& fn, std::size_t reps) {
  volatile double sink = 0.0;
  support::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) sink = sink + fn();
  (void)sink;
  return timer.elapsed_seconds() * 1e9 / static_cast<double>(reps);
}

/// One row: `call(table)` timed on the scalar table and on `tier`.
template <typename Call>
void add_point(std::vector<KernelPoint>& points, const char* name,
               const kernels::Dispatch& tier, std::size_t n,
               std::size_t reps, Call&& call) {
  const auto& scalar = kernels::detail::scalar_table();
  const double s = time_ns([&] { return call(scalar); }, reps);
  const double d = time_ns([&] { return call(tier); }, reps);
  points.push_back({name, tier.name, n, s, d, s / d});
  std::printf("  %-13s n=%5zu  scalar %8.1f ns  %-6s %8.1f ns  %5.2fx\n",
              name, n, s, tier.name, d, s / d);
}

/// Every SIMD tier this host can run gets its own rows against the scalar
/// reference — the 8-wide AVX-512 table shows up here as a third set of
/// rows on capable hardware, not just as whatever active() resolved to.
std::vector<const kernels::Dispatch*> host_tiers() {
  std::vector<const kernels::Dispatch*> tiers;
  if (kernels::detail::avx2_supported())
    tiers.push_back(&kernels::detail::avx2_table());
  if (kernels::detail::avx512_supported())
    tiers.push_back(&kernels::detail::avx512_table());
  if (tiers.empty()) tiers.push_back(&kernels::detail::scalar_table());
  return tiers;
}

std::vector<KernelPoint> bench_kernel_level(std::uint64_t seed) {
  std::vector<KernelPoint> points;
  support::Xoshiro256 rng(seed);
  for (const std::size_t n : {std::size_t{16}, std::size_t{64},
                              std::size_t{512}, std::size_t{4096}}) {
    std::vector<double> ct(n), row(n);
    for (auto& v : ct) v = rng.uniform(0.0, 1e6);
    for (auto& v : row) v = rng.uniform(0.0, 1e3);
    const std::size_t reps = std::max<std::size_t>(1, 40'000'000 / n);
    for (const kernels::Dispatch* tier : host_tiers()) {
      add_point(points, "max", *tier, n, reps,
                [&](const kernels::Dispatch& t) {
                  return t.max_value(ct.data(), n);
                });
      add_point(points, "argmax", *tier, n, reps,
                [&](const kernels::Dispatch& t) {
                  return static_cast<double>(t.argmax(ct.data(), n));
                });
      add_point(points, "fused-min", *tier, n, reps,
                [&](const kernels::Dispatch& t) {
                  return t.min_plus(ct.data(), row.data(), n).value;
                });
    }
  }
  return points;
}

/// The slots of the paper's breeding step at 512x16. The h2ll row restores
/// a converged schedule's completions and genes before each call, as the
/// breeding step copies a schedule before its local search, so it times
/// the copy plus the call.
void bench_h2ll_slots(std::vector<KernelPoint>& points, std::uint64_t seed,
                      bool quick) {
  constexpr std::size_t kTasks = 512;
  constexpr std::size_t kMachines = 16;
  const std::size_t reps = quick ? 20'000 : 200'000;
  support::Xoshiro256 rng(seed);
  std::vector<double> rows(kTasks * kMachines);
  for (auto& v : rows) v = rng.uniform(1.0, 1000.0);
  std::vector<std::uint16_t> genes0(kTasks);
  std::vector<double> ct0(kMachines, 0.0);
  for (std::size_t t = 0; t < kTasks; ++t) {
    genes0[t] = static_cast<std::uint16_t>(rng.index(kMachines));
    ct0[genes0[t]] += rows[t * kMachines + genes0[t]];
  }
  kernels::detail::scalar_table().h2ll(ct0.data(), genes0.data(), rows.data(),
                                       kTasks, kMachines, kMachines / 2,
                                       100'000, rng);
  std::vector<std::uint16_t> other = genes0;
  for (std::size_t t = 0; t < kTasks; t += 7) {
    other[t] = static_cast<std::uint16_t>(rng.index(kMachines));
  }
  std::vector<std::uint64_t> words(kTasks / 64);
  std::vector<double> ct(kMachines);
  std::vector<std::uint16_t> genes(kTasks);
  for (const kernels::Dispatch* tier : host_tiers()) {
    add_point(points, "h2ll-10", *tier, kMachines, reps,
              [&](const kernels::Dispatch& t) {
                std::copy(ct0.begin(), ct0.end(), ct.begin());
                std::copy(genes0.begin(), genes0.end(), genes.begin());
                t.h2ll(ct.data(), genes.data(), rows.data(), kTasks,
                       kMachines, kMachines / 2, 10, rng);
                return ct[0];
              });
    add_point(points, "eq-mask", *tier, kTasks, 10 * reps,
              [&](const kernels::Dispatch& t) {
                return static_cast<double>(
                    t.eq_mask_u16(genes0.data(), kTasks, 3, words.data()));
              });
    // Crossover's segments seldom end on a word boundary, so ne-mask also
    // runs at a length whose last word is partial.
    for (const std::size_t n : {kTasks, std::size_t{200}}) {
      add_point(points, "ne-mask", *tier, n, 10 * reps,
                [&](const kernels::Dispatch& t) {
                  return static_cast<double>(t.ne_mask_u16(
                      genes0.data(), other.data(), n, words.data()));
                });
    }
    add_point(points, "lightest-mask", *tier, kMachines, 10 * reps,
              [&](const kernels::Dispatch& t) {
                return static_cast<double>(t.lightest_mask(
                    ct0.data(), kMachines, kMachines / 2, words.data()));
              });
  }
}

// ---- end-to-end: heuristics ----------------------------------------------

struct EndToEnd {
  std::string name;
  std::size_t tasks = 0;
  std::size_t machines = 0;
  double reference_ms = 0.0;
  double accelerated_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
  /// Only the heuristic arms are required (and checked) to produce the
  /// reference's exact schedule; h2ll reports null in the JSON.
  bool identical_checked = false;
};

template <typename Fn>
double time_ms_once(Fn&& fn) {
  support::WallTimer timer;
  fn();
  return timer.elapsed_seconds() * 1e3;
}

EndToEnd bench_heuristic(const char* name, const etc::EtcMatrix& m,
                         sched::Schedule (*accel)(const etc::EtcMatrix&),
                         sched::Schedule (*naive)(const etc::EtcMatrix&)) {
  EndToEnd r;
  r.name = name;
  r.tasks = m.tasks();
  r.machines = m.machines();
  std::unique_ptr<sched::Schedule> a, b;
  r.accelerated_ms =
      time_ms_once([&] { a = std::make_unique<sched::Schedule>(accel(m)); });
  r.reference_ms =
      time_ms_once([&] { b = std::make_unique<sched::Schedule>(naive(m)); });
  r.speedup = r.reference_ms / r.accelerated_ms;
  r.identical = a->hamming_distance(*b) == 0;
  r.identical_checked = true;
  std::printf("  %-10s %zux%zu  naive %9.1f ms  accel %8.1f ms  %5.2fx  %s\n",
              name, r.tasks, r.machines, r.reference_ms, r.accelerated_ms,
              r.speedup, r.identical ? "identical" : "DIFFERENT");
  return r;
}

// ---- end-to-end: H2LL ----------------------------------------------------

/// The pre-rewrite H2LL: full std::sort of all machine completions every
/// iteration. Kept verbatim as the reference arm.
void h2ll_sorted_reference(sched::Schedule& s, const cga::H2LLParams& params,
                           support::Xoshiro256& rng) {
  const std::size_t machines = s.machines();
  if (machines < 2 || s.tasks() == 0) return;
  const std::size_t n_candidates =
      params.candidates == 0 ? machines / 2
                             : std::min(params.candidates, machines - 1);
  std::vector<std::size_t> order(machines);
  for (std::size_t it = 0; it < params.iterations; ++it) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return s.completion(a) < s.completion(b);
    });
    const std::size_t most_loaded = order.back();
    const std::size_t task = cga::random_task_on_machine(
        s, static_cast<sched::MachineId>(most_loaded), rng);
    if (task == s.tasks()) continue;
    double best_score = s.completion(most_loaded);
    std::size_t best_mac = machines;
    for (std::size_t c = 0; c < n_candidates; ++c) {
      const std::size_t mac = order[c];
      if (mac == most_loaded) continue;
      const double new_score = s.completion(mac) + s.etc()(task, mac);
      if (new_score < best_score) {
        best_score = new_score;
        best_mac = mac;
      }
    }
    if (best_mac != machines) {
      s.move_task(task, static_cast<sched::MachineId>(best_mac));
    }
  }
}

EndToEnd bench_h2ll(const Options& opts) {
  const auto m =
      random_matrix(opts.h2ll_tasks, opts.h2ll_machines, opts.seed + 7);
  EndToEnd r;
  r.name = "h2ll";
  r.tasks = m.tasks();
  r.machines = m.machines();
  const cga::H2LLParams params{opts.h2ll_iterations, 0};
  {
    support::Xoshiro256 rng(opts.seed);
    auto s = sched::Schedule::random(m, rng);
    r.reference_ms = time_ms_once([&] { h2ll_sorted_reference(s, params, rng); });
  }
  {
    support::Xoshiro256 rng(opts.seed);
    auto s = sched::Schedule::random(m, rng);
    r.accelerated_ms = time_ms_once([&] { cga::h2ll(s, params, rng); });
  }
  r.speedup = r.reference_ms / r.accelerated_ms;
  // Different (deterministic) tie-break definitions: schedules are not
  // required to match here, only both to be valid descents —
  // identical_checked stays false and the JSON reports null.
  std::printf(
      "  %-10s %zux%zu  sorted %8.1f ms  kernels %7.1f ms  %5.2fx (%zu iters)\n",
      "h2ll", r.tasks, r.machines, r.reference_ms, r.accelerated_ms, r.speedup,
      opts.h2ll_iterations);
  return r;
}

// ---- end-to-end: dynamic repair ------------------------------------------

struct RepairResult {
  std::size_t tasks;
  std::size_t machines;
  double full_repair_ms;     ///< session init: every task orphaned
  double naive_reference_ms; ///< naive Min-min over the same instance
  double speedup;
  double machine_down_ms;    ///< one machine-down apply (repair incl.)
  std::size_t orphans;
};

RepairResult bench_repair(const Options& opts) {
  batch::WorkloadSpec spec;
  spec.tasks = opts.repair_tasks;
  spec.machines = opts.repair_machines;
  spec.seed = opts.seed + 13;
  RepairResult r{};
  r.tasks = spec.tasks;
  r.machines = spec.machines;
  std::unique_ptr<dynamic::RescheduleSession> session;
  // Session init repairs with the FULL task set orphaned — constructive
  // Min-min from scratch, through the cached-orphan repairer.
  r.full_repair_ms = time_ms_once([&] {
    session = std::make_unique<dynamic::RescheduleSession>(
        spec, dynamic::RepairPolicy::kMinMin);
  });
  r.naive_reference_ms = time_ms_once(
      [&] { (void)heur::detail::min_min_naive(session->etc()); });
  r.speedup = r.naive_reference_ms / r.full_repair_ms;
  // Steady-state event: drop the most loaded machine, repair in place.
  const std::size_t victim = session->schedule().argmax_machine();
  r.orphans = session->schedule().tasks_on(
      static_cast<sched::MachineId>(victim));
  r.machine_down_ms =
      time_ms_once([&] { session->apply(dynamic::machine_down(victim)); });
  std::printf(
      "  %-10s %zux%zu  naive %9.1f ms  repair-init %7.1f ms  %5.2fx  "
      "(machine-down: %.3f ms, %zu orphans)\n",
      "repair", r.tasks, r.machines, r.naive_reference_ms, r.full_repair_ms,
      r.speedup, r.machine_down_ms, r.orphans);
  return r;
}

// ---- JSON ----------------------------------------------------------------

void write_json(const char* path, const Options& opts,
                const std::vector<KernelPoint>& points,
                const std::vector<EndToEnd>& e2e, const RepairResult& repair) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"dispatch\": \"%s\",\n  \"quick\": %s,\n",
               kernels::active_dispatch(), opts.quick ? "true" : "false");
  std::fprintf(out, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"dispatch\": \"%s\", "
                 "\"n\": %zu, "
                 "\"scalar_ns\": %.1f, \"dispatched_ns\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 p.kernel, p.dispatch, p.n, p.scalar_ns,
                 p.dispatched_ns, p.speedup,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"end_to_end\": [\n");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const auto& r = e2e[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"tasks\": %zu, \"machines\": %zu, "
                 "\"reference_ms\": %.2f, \"accelerated_ms\": %.2f, "
                 "\"speedup\": %.2f, \"identical_schedule\": %s}%s\n",
                 r.name.c_str(), r.tasks, r.machines, r.reference_ms,
                 r.accelerated_ms, r.speedup,
                 !r.identical_checked ? "null" : r.identical ? "true" : "false",
                 i + 1 < e2e.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"repair\": {\"tasks\": %zu, \"machines\": %zu, "
               "\"naive_reference_ms\": %.2f, \"full_repair_ms\": %.2f, "
               "\"speedup\": %.2f, \"machine_down_ms\": %.3f, "
               "\"orphans\": %zu}\n}\n",
               repair.tasks, repair.machines, repair.naive_reference_ms,
               repair.full_repair_ms, repair.speedup, repair.machine_down_ms,
               repair.orphans);
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  support::Cli cli(
      "bench_kernels — SIMD kernel layer, scalar vs dispatched, plus "
      "end-to-end consumer deltas (writes BENCH_kernels.json)");
  cli.option("minmin-tasks", &opts.minmin_tasks, "Min-min bench tasks")
      .option("minmin-machines", &opts.minmin_machines, "Min-min bench machines")
      .option("h2ll-iterations", &opts.h2ll_iterations, "H2LL bench iterations")
      .option("seed", &opts.seed, "master seed")
      .flag("quick", &opts.quick, "CI smoke scale (small instances)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  opts.finalize();

  std::printf("dispatch: %s (avx2 %s, avx512 %s)\n",
              kernels::active_dispatch(),
              kernels::detail::avx2_supported() ? "available" : "unavailable",
              kernels::detail::avx512_supported() ? "available"
                                                  : "unavailable");
  std::printf("kernel-level (scalar vs dispatched):\n");
  auto points = bench_kernel_level(opts.seed);
  bench_h2ll_slots(points, opts.seed, opts.quick);

  std::printf("end-to-end:\n");
  std::vector<EndToEnd> e2e;
  {
    const auto m =
        random_matrix(opts.minmin_tasks, opts.minmin_machines, opts.seed + 3);
    e2e.push_back(bench_heuristic("min-min", m, heur::min_min,
                                  heur::detail::min_min_naive));
    e2e.push_back(bench_heuristic("max-min", m, heur::max_min,
                                  heur::detail::max_min_naive));
  }
  {
    const auto m = random_matrix(opts.sufferage_tasks, opts.sufferage_machines,
                                 opts.seed + 5);
    e2e.push_back(bench_heuristic("sufferage", m, heur::sufferage,
                                  heur::detail::sufferage_naive));
  }
  e2e.push_back(bench_h2ll(opts));
  const RepairResult repair = bench_repair(opts);

  write_json("BENCH_kernels.json", opts, points, e2e, repair);
  return 0;
}
