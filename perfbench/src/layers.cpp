#include "layers.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

#include "cga/breeder.hpp"
#include "heuristics/minmin.hpp"
#include "support/kernels.hpp"
#include "support/rng.hpp"

// ---- allocation counter ---------------------------------------------------
// Counts operator-new calls on the calling thread only, so the breeder
// measurement sees its own allocations and nothing another thread does.

namespace {
thread_local std::uint64_t t_allocations = 0;
}

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace kernels = pacga::support::kernels;

namespace {

volatile double g_sink = 0.0;

/// Median over 5 repetitions of the mean ns per call of `calls` calls.
template <typename F>
double ns_per_call(std::size_t calls, F&& call) {
  std::vector<double> reps;
  double sink = 0.0;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) sink += call(i);
    reps.push_back(static_cast<double>(now_ns() - t0) /
                   static_cast<double>(calls));
  }
  g_sink = g_sink + sink;
  return median(reps);
}

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

void add(std::vector<Metric>& out, const char* name, double value,
         const char* unit) {
  out.push_back({name, value, unit});
}

}  // namespace

void measure_kernels(const ArmInputs& braun, const ArmInputs& wide,
                     SpanLog& spans, std::vector<Metric>& out) {
  const auto fused = [&](const pacga::etc::EtcMatrix& m, const char* span) {
    pacga::support::Xoshiro256 rng(5);
    const pacga::sched::Schedule s = pacga::sched::Schedule::random(m, rng);
    const double* ct = s.completions().data();
    const std::size_t tasks = m.tasks(), machines = m.machines();
    const std::int64_t id = spans.open(span, machines);
    const double ns = ns_per_call(1 << 20, [&](std::size_t i) {
      const kernels::MinScan r = kernels::min_completion_index(
          ct, m.of_task(i % tasks).data(), machines);
      return r.value + static_cast<double>(r.index);
    });
    spans.close(id);
    return ns;
  };
  const pacga::etc::EtcMatrix& m16 = braun.etc.front();
  add(out, "kernels.min_plus_ns.m16", fused(m16, "kernels.min_plus.m16"), "ns");
  add(out, "kernels.min_plus_ns.m128",
      fused(wide.etc.front(), "kernels.min_plus.m128"), "ns");

  const std::size_t tasks = m16.tasks(), machines = m16.machines();
  std::int64_t id = spans.open("kernels.argmax.m16", machines);
  add(out, "kernels.argmax_ns.m16", ns_per_call(1 << 20, [&](std::size_t i) {
        return static_cast<double>(
            kernels::argmax(m16.of_task(i % tasks).data(), machines));
      }), "ns");
  spans.close(id);
  id = spans.open("kernels.max_value.m16", machines);
  add(out, "kernels.max_value_ns.m16", ns_per_call(1 << 20, [&](std::size_t i) {
        return kernels::max_value(m16.of_task(i % tasks).data(), machines);
      }), "ns");
  spans.close(id);

  // One machine column of a 512-task instance: 4 KiB per call.
  const std::span<const double> column = m16.on_machine(0);
  const double kib = static_cast<double>(column.size_bytes()) / 1024.0;
  id = spans.open("kernels.hash_block", column.size());
  add(out, "kernels.hash_block_ns_per_kib",
      ns_per_call(1 << 14, [&](std::size_t i) {
        return static_cast<double>(
            kernels::hash_block(column.data(), column.size(), i) & 1);
      }) / kib,
      "ns/KiB");
  spans.close(id);

  std::printf(
      "kernels tier=%s bytes per call (computed, not measured): min_plus "
      "m16=%zu m128=%zu, argmax/max_value m16=%zu, hash_block=1024 per KiB\n",
      kernels::active_dispatch(), 2 * 16 * sizeof(double),
      2 * 128 * sizeof(double), 16 * sizeof(double));
}

void measure_heuristics(const ArmInputs& braun, std::uint64_t seed,
                        SpanLog& spans, std::vector<Metric>& out) {
  double sink = 0.0;
  std::vector<double> ms;
  for (std::size_t i = 0; i < braun.etc.size(); ++i) {
    const std::int64_t id = spans.open("heuristics.minmin.512x16", i);
    const std::uint64_t t0 = now_ns();
    sink += pacga::heur::min_min(braun.etc[i]).makespan();
    ms.push_back(ms_since(t0));
    spans.close(id);
  }
  add(out, "heuristics.minmin_ms.512x16", median(ms), "ms");

  const pacga::etc::EtcMatrix large = make_arm_instance(kArmLarge, 0, seed);
  std::int64_t id = spans.open("heuristics.minmin.4096x128", 0);
  std::uint64_t t0 = now_ns();
  sink += pacga::heur::min_min(large).makespan();
  add(out, "heuristics.minmin_ms.4096x128", ms_since(t0), "ms");
  spans.close(id);

  // Mean over the service shapes of the per-call time on each shape.
  double shape_sum = 0.0;
  for (std::size_t s = 0; s < std::size(kServiceShapes); ++s) {
    const pacga::etc::EtcMatrix m = make_service_instance(s, 0, seed);
    constexpr int kCalls = 50;
    id = spans.open("heuristics.minmin.service", s);
    t0 = now_ns();
    for (int c = 0; c < kCalls; ++c) sink += pacga::heur::min_min(m).makespan();
    shape_sum += ms_since(t0) / kCalls;
    spans.close(id);
  }
  add(out, "heuristics.minmin_ms.service",
      shape_sum / static_cast<double>(std::size(kServiceShapes)), "ms");
  g_sink = g_sink + sink;
}

double measure_breeder(const ArmInputs& braun, SpanLog& spans,
                       std::vector<Metric>& out) {
  const pacga::etc::EtcMatrix& m = braun.etc.front();
  double ls0_steps_per_s = 0.0;
  std::uint64_t allocs = 0, counted_steps = 0;
  for (const std::size_t ls : {std::size_t{10}, std::size_t{0}}) {
    pacga::cga::Config config;  // the engine arms' configuration
    config.local_search.iterations = ls;
    pacga::support::Xoshiro256 rng(11);
    pacga::cga::Population pop(m, pacga::cga::Grid(config.width, config.height),
                               rng, config.seed_min_min, config.objective,
                               config.lambda);
    pacga::cga::Breeder breeder(m, config);
    pacga::cga::Individual child(pacga::sched::Schedule(m), 0.0);
    std::size_t cell = 0;
    const auto step = [&] {
      breeder.breed_into(pop, cell, rng, child);
      if (child.fitness < pop.at(cell).fitness)
        pacga::cga::Breeder::replace(pop.at(cell), child);
      cell = (cell + 1) % pop.size();
    };
    for (std::size_t i = 0; i < 2 * pop.size(); ++i) step();  // warm-up

    const std::int64_t id =
        spans.open(ls ? "breeder.steps.ls10" : "breeder.steps.ls0", ls);
    const std::uint64_t allocs_before = t_allocations;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t budget_ns = 300'000'000;
    std::uint64_t steps = 0, elapsed = 0;
    while (elapsed < budget_ns) {
      for (int i = 0; i < 64; ++i) step();
      steps += 64;
      elapsed = now_ns() - t0;
    }
    allocs += t_allocations - allocs_before;
    counted_steps += steps;
    spans.close(id);
    const double rate = static_cast<double>(steps) /
                        (static_cast<double>(elapsed) / 1e9);
    add(out, ls ? "breeder.steps_per_s.ls10" : "breeder.steps_per_s.ls0", rate,
        "1/s");
    if (ls == 0) ls0_steps_per_s = rate;
  }
  add(out, "breeder.allocs_per_step",
      static_cast<double>(allocs) / static_cast<double>(counted_steps),
      "count");
  return ls0_steps_per_s;
}

void measure_engine(const ArmInputs& braun, double breeder_ls0_steps_per_s,
                    std::uint64_t seed, Tally& tally, SpanLog& spans,
                    std::vector<Metric>& out) {
  constexpr std::size_t kProbeInstances = 4;
  constexpr double kProbeSeconds = 0.25;
  ArmInputs probe;
  for (std::size_t i = 0; i < kProbeInstances && i < braun.etc.size(); ++i) {
    probe.etc.push_back(braun.etc[i]);
    probe.minmin.push_back(braun.minmin[i]);
  }
  const ArmRun ls10 = run_arm(kArmLs10, probe, kEngineThreads, kProbeSeconds,
                              seed, tally, spans);
  const ArmRun one = run_arm(kArmLs10, probe, 1, kProbeSeconds, seed, tally,
                             spans);
  const ArmRun ls0 = run_arm(kArmLs0, probe, kEngineThreads, kProbeSeconds,
                             seed, tally, spans);

  const auto [lo, hi] =
      std::minmax_element(ls10.thread_evals.begin(), ls10.thread_evals.end());
  add(out, "engine.evals_per_s_1t", one.evals_per_s(), "1/s");
  add(out, "engine.scaling_3t", ls10.evals_per_s() / one.evals_per_s(),
      "ratio");
  add(out, "engine.efficiency_ls0",
      ls0.evals_per_s() /
          (static_cast<double>(kEngineThreads) * breeder_ls0_steps_per_s),
      "ratio");
  add(out, "engine.thread_imbalance",
      *lo > 0 ? static_cast<double>(*hi) / static_cast<double>(*lo) : 0.0,
      "ratio");
  add(out, "engine.replace_frac",
      static_cast<double>(ls10.replacements) /
          static_cast<double>(std::max<std::uint64_t>(ls10.evaluations, 1)),
      "ratio");
  LatencyHist sweeps;
  for (const Slice& slice : ls10.slices) sweeps.merge(slice.latency);
  add(out, "engine.sweep_ms.p50", sweeps.quantile(0.5).value, "ms");
}

namespace {

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void tail_pair(std::vector<Metric>& out, const std::string& prefix,
               const std::vector<double>& sample) {
  out.push_back({prefix + ".p50", median(sample), "ms"});
  out.push_back({prefix + ".p99", tail_quantile(sample, 0.99).value, "ms"});
}

}  // namespace

void service_layer(const ServiceMixRun& run, std::vector<Metric>& out) {
  using pacga::service::SolvePolicy;
  std::vector<double> wait, heuristic, cga, warm, overhead;
  double hits = 0.0, gain = 0.0, reschedules = 0.0;
  for (const ServiceRecord& r : run.jobs) {
    wait.push_back(r.wait_ms);
    overhead.push_back(r.latency_ms - r.wait_ms - r.solve_ms);
    if (r.cache_hit) {
      hits += 1.0;
    } else if (r.reschedule) {
      warm.push_back(r.solve_ms);
    } else if (r.policy == SolvePolicy::kCga) {
      cga.push_back(r.solve_ms);
    } else {
      heuristic.push_back(r.solve_ms);
    }
    if (r.reschedule) {
      reschedules += 1.0;
      gain += 1.0 - r.ratio;  // the seed is the Min-min schedule
    }
  }
  const double jobs = static_cast<double>(run.jobs.size());
  const double completed = static_cast<double>(run.delta.completed);
  tail_pair(out, "service.queue_wait_ms", wait);
  tail_pair(out, "service.solve_ms.heuristic", heuristic);
  tail_pair(out, "service.solve_ms.cga", cga);
  tail_pair(out, "service.solve_ms.warm", warm);
  add(out, "service.overhead_ms.p50", median(overhead), "ms");
  add(out, "service.cache_hit_frac", frac(hits, jobs), "ratio");
  add(out, "service.arena_builds_per_job",
      frac(static_cast<double>(run.delta.arena_builds), completed), "count");
  add(out, "service.steal_frac",
      frac(static_cast<double>(run.delta.steals), completed), "ratio");
  add(out, "service.warm_gain_frac", frac(gain, reschedules), "ratio");
}

void net_layer(const EdgeRun& run, std::vector<Metric>& out) {
  std::vector<double> instance, submit, wait, edge;
  for (const EdgeRecord& r : run.jobs) {
    (r.submit ? submit : instance).push_back(r.admit_ms);
    wait.push_back(r.wait_leg_ms);
    edge.push_back(r.latency_ms - r.wait_ms - r.solve_ms);
  }
  const double jobs = static_cast<double>(run.jobs.size());
  add(out, "net.rtt_ms.instance", median(instance), "ms");
  add(out, "net.rtt_ms.submit", median(submit), "ms");
  add(out, "net.rtt_ms.wait", median(wait), "ms");
  add(out, "net.edge_ms.p50", median(edge), "ms");
  add(out, "net.busy_frac",
      frac(static_cast<double>(run.refused),
           jobs + static_cast<double>(run.refused)),
      "ratio");
  add(out, "net.bytes_in_per_job",
      frac(static_cast<double>(run.bytes_in), jobs), "count");
  add(out, "net.bytes_out_per_job",
      frac(static_cast<double>(run.bytes_out), jobs), "count");
}

}  // namespace perfbench
