// bench_service — closed-loop throughput/latency benchmark of the
// scheduler service, the serving-tier counterpart of the paper-artifact
// benches.
//
// N client threads each submit-and-wait in a loop (closed loop: a client's
// next job leaves only when its previous one returned), drawing round-robin
// from a pool of distinct small instances — the sweep-campaign regime the
// solution cache targets. Two arms run by default: cache enabled (repeats
// are hits) and cache disabled (every job is a real solve), so the JSON
// shows both the cache win and the raw solver throughput.
//
// A third scenario exercises the sharded core: mixed-shape multi-tenancy.
// Several tenants, each with its own instance SHAPE, submit concurrently
// (cache off, generation-capped CGA — every job is a real solve), swept
// across worker counts. Shape-affine sharding routes each tenant's jobs to
// the worker whose warm arena matches, so throughput should scale with
// workers instead of flatlining on arena thrash; the JSON records jobs/sec
// per sweep point, speedup vs 1 worker, arena builds, and steal counts.
// Every worker keeps one warm arena per shape (service::kWarmArenas is at
// least the tenant count), so the run FAILS (exit 1) when a sweep point
// builds more than one arena per shape per worker.
// The sweep deliberately does NOT clamp workers to the core count: on a
// small box the extra workers oversubscribe and the speedup is flat —
// read the scaling claim from a >= 4-core run (CI uploads the artifact).
//
// Emits BENCH_service.json with jobs/sec, client-observed p50/p99 latency,
// deadline-miss rate, cache hit rate, and service-side histogram
// percentiles (queue-wait and solve p50/p99 from the obs layer) per arm.
// Defaults are smoke-scale (>= 1000 jobs, a few seconds); --full scales
// the stream up.
//
// --obs-overhead switches to the observability overhead gate: the cached
// arm (the hottest path — cache hits make instrumentation the largest
// relative cost) runs interleaved with span tracing on (the default
// trace capacity) and off (trace capacity 0), best-of-N per arm, and the
// run FAILS (exit 1) if the traced throughput is more than
// --obs-overhead-max-pct (default 2%) below the untraced one. The latency
// histograms run in both arms: they are the service's only latency
// record. Writes BENCH_obs_overhead.json.
//
// --failpoint-overhead is the same gate for the fault-injection layer:
// the cached arm runs with the hot-path failpoint sites (queue.submit,
// cache.lookup) ARMED on a schedule that never fires vs fully disarmed.
// Armed-but-silent is the worst case a production box with a forgotten
// PACGA_FAILPOINTS setting would see — every hit takes the site's slow
// path (mutex + counter) without misbehaving. FAILS (exit 1) when the
// loss exceeds --failpoint-overhead-max-pct (default 1%). Writes
// BENCH_failpoint_overhead.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "etc/etc_matrix.hpp"

#include "etc/braun.hpp"
#include "heuristics/minmin.hpp"
#include "service/service.hpp"
#include "support/cli.hpp"
#include "support/failpoints.hpp"
#include "support/stats.hpp"
#include "support/threading.hpp"
#include "support/timer.hpp"

namespace {

using namespace pacga;

struct Options {
  std::size_t jobs = 2000;       ///< total jobs per arm
  std::size_t clients = 4;       ///< closed-loop client threads
  std::size_t workers = 3;       ///< solver workers
  std::size_t queue_capacity = 256;
  std::size_t tasks = 32;        ///< small-instance shape
  std::size_t machines = 8;
  std::size_t unique = 64;       ///< distinct instances in the pool
  double deadline_ms = 20.0;
  std::uint64_t seed = 1;
  std::string policy = "auto";
  bool full = false;
  std::size_t mixed_jobs = 600;  ///< jobs per sweep point (0 disables)
  /// Worker counts of the mixed-shape sweep; NOT clamped to core count
  /// (see the file comment).
  std::string sweep_workers = "1,2,4";
  bool obs_overhead = false;          ///< run the overhead gate instead
  std::size_t obs_overhead_trials = 3;  ///< best-of-N per arm
  double obs_overhead_max_pct = 2.0;  ///< gate threshold (percent)
  bool failpoint_overhead = false;    ///< run the failpoint overhead gate
  double failpoint_overhead_max_pct = 1.0;  ///< gate threshold (percent)
};

struct ArmResult {
  std::string name;
  std::size_t jobs = 0;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double deadline_miss_rate = 0.0;
  double cache_hit_rate = 0.0;
  double mean_queue_wait_ms = 0.0;
  double mean_solve_ms = 0.0;
  double mean_makespan = 0.0;
  /// Service-side histogram percentiles (0 when no job completed, like
  /// the mean_* figures read from the same histograms).
  double wait_p50_ms = 0.0;
  double wait_p99_ms = 0.0;
  double solve_p50_ms = 0.0;
  double solve_p99_ms = 0.0;
};

/// NaN-free JSON figure: empty distributions report 0 rather than `nan`.
double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

/// Distinct small instances, generated once and shared by every job.
std::vector<std::shared_ptr<const etc::EtcMatrix>> make_pool(
    const Options& opts) {
  std::vector<std::shared_ptr<const etc::EtcMatrix>> pool;
  pool.reserve(opts.unique);
  for (std::size_t i = 0; i < opts.unique; ++i) {
    etc::GenSpec spec;
    spec.tasks = opts.tasks;
    spec.machines = opts.machines;
    spec.consistency = etc::Consistency::kInconsistent;
    spec.seed = opts.seed + i;
    pool.push_back(std::make_shared<const etc::EtcMatrix>(etc::generate(spec)));
  }
  return pool;
}

ArmResult run_arm(const Options& opts, bool use_cache, const char* name) {
  service::ServiceOptions service_options;
  service_options.workers = support::clamp_threads(opts.workers);
  service_options.queue_capacity = opts.queue_capacity;
  service_options.cache_capacity = use_cache ? 4096 : 0;
  service::SchedulerService svc(service_options);

  const auto pool = make_pool(opts);
  const service::SolvePolicy policy = service::parse_policy(opts.policy);

  std::vector<std::vector<double>> latencies(opts.clients);
  std::vector<support::RunningStats> makespans(opts.clients);
  support::WallTimer wall;
  {
    support::ScopedThreads clients(opts.clients, [&](std::size_t c) {
      std::vector<double>& lat = latencies[c];
      lat.reserve(opts.jobs / opts.clients + 1);
      for (std::size_t j = c; j < opts.jobs; j += opts.clients) {
        service::JobSpec spec;
        spec.etc = pool[j % pool.size()];
        spec.seed = opts.seed + j;
        spec.deadline_ms = opts.deadline_ms;
        spec.policy = policy;
        spec.use_cache = use_cache;
        support::WallTimer t;
        const service::JobId id = svc.submit(std::move(spec));
        const service::JobResult r = svc.wait(id);
        lat.push_back(t.elapsed_seconds() * 1e3);
        makespans[c].add(r.makespan);
      }
    });
  }
  svc.drain();
  const double wall_s = wall.elapsed_seconds();
  const auto snap = svc.metrics();
  svc.shutdown();

  std::vector<double> all;
  all.reserve(opts.jobs);
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  support::RunningStats lat_stats, mk;
  for (double x : all) lat_stats.add(x);
  for (const auto& m : makespans) mk.merge(m);

  ArmResult a;
  a.name = name;
  a.jobs = all.size();
  a.wall_seconds = wall_s;
  a.jobs_per_second = wall_s > 0.0 ? static_cast<double>(all.size()) / wall_s : 0.0;
  a.p50_ms = support::quantile(all, 0.50);
  a.p99_ms = support::quantile(all, 0.99);
  a.mean_ms = lat_stats.mean();
  a.deadline_miss_rate = snap.deadline_miss_rate();
  a.cache_hit_rate = snap.cache_hit_rate();
  a.mean_queue_wait_ms = snap.queue_wait_hist.mean_ms();
  a.mean_solve_ms = snap.solve_hist.mean_ms();
  a.mean_makespan = mk.mean();
  a.wait_p50_ms = finite_or_zero(snap.queue_wait_hist.quantile_ms(0.50));
  a.wait_p99_ms = finite_or_zero(snap.queue_wait_hist.quantile_ms(0.99));
  a.solve_p50_ms = finite_or_zero(snap.solve_hist.quantile_ms(0.50));
  a.solve_p99_ms = finite_or_zero(snap.solve_hist.quantile_ms(0.99));
  return a;
}

// --- observability overhead gate -------------------------------------------

/// Shared between the obs gate and the failpoint gate: arm A is the
/// instrumented/armed configuration, arm B the baseline.
struct OverheadResult {
  std::vector<double> jps_a;  ///< per-trial cached jobs/sec, arm A
  std::vector<double> jps_b;  ///< per-trial cached jobs/sec, arm B
  double best_a = 0.0;
  double best_b = 0.0;
  double overhead_pct = 0.0;  ///< (best_b - best_a) / best_b
  bool pass = false;
};

/// Best-of-N reduction + the pass/fail verdict, common to both gates.
void finish_overhead(OverheadResult& r, double max_pct) {
  r.best_a = *std::max_element(r.jps_a.begin(), r.jps_a.end());
  r.best_b = *std::max_element(r.jps_b.begin(), r.jps_b.end());
  r.overhead_pct =
      r.best_b > 0.0 ? 100.0 * (r.best_b - r.best_a) / r.best_b : 0.0;
  r.pass = r.overhead_pct <= max_pct;
}

/// One pure-hit throughput trial: warms the cache with every pool instance
/// first (untimed), then times `opts.jobs` round-robin submissions that
/// all hit. A hit replays the stored assignment in O(tasks), so the timed
/// window measures the service's PER-JOB FIXED COST — submit, queue hop,
/// cache probe, completion — which is exactly where the instrumentation
/// (span pushes + histogram records) lives. Timing real solves instead
/// would bury a 2% fixed-cost regression under solver variance.
///
/// Deliberately single-lane (1 client, 1 worker) regardless of the bench
/// options: with more threads than cores the closed loop's throughput is
/// a context-switch lottery with +-20% run-to-run swings, which no
/// best-of-N can average down to a 2% resolution. One submit lane and one
/// serve lane give the steadiest per-job cost the box can produce.
double cached_hit_throughput(const Options& opts, bool traced) {
  service::ServiceOptions service_options;
  service_options.workers = 1;
  service_options.queue_capacity = opts.queue_capacity;
  service_options.cache_capacity = 4096;
  if (!traced) service_options.trace_capacity = 0;
  service::SchedulerService svc(service_options);

  const auto pool = make_pool(opts);
  for (const auto& etc : pool) {  // warmup: populate the cache (untimed)
    service::JobSpec spec;
    spec.etc = etc;
    spec.seed = opts.seed;
    spec.deadline_ms = opts.deadline_ms;
    spec.policy = service::SolvePolicy::kMinMin;  // quality is irrelevant
    spec.use_cache = true;
    svc.wait(svc.submit(std::move(spec)));
  }

  support::WallTimer wall;
  for (std::size_t j = 0; j < opts.jobs; ++j) {
    service::JobSpec spec;
    spec.etc = pool[j % pool.size()];
    spec.seed = opts.seed;
    spec.deadline_ms = opts.deadline_ms;
    spec.use_cache = true;
    svc.wait(svc.submit(std::move(spec)));
  }
  svc.drain();
  const double wall_s = wall.elapsed_seconds();
  svc.shutdown();
  return wall_s > 0.0 ? static_cast<double>(opts.jobs) / wall_s : 0.0;
}

/// Interleaved best-of-N pure-hit throughput comparison with span tracing
/// on vs off. Interleaving (on, off, on, off, ...) spreads any
/// thermal/noisy-neighbor drift evenly across both arms; best-of-N drops
/// the cold-start and outlier trials that dominate smoke-scale variance.
OverheadResult run_obs_overhead(const Options& opts) {
  OverheadResult r;
  for (std::size_t t = 0; t < opts.obs_overhead_trials; ++t) {
    r.jps_a.push_back(cached_hit_throughput(opts, true));
    r.jps_b.push_back(cached_hit_throughput(opts, false));
  }
  finish_overhead(r, opts.obs_overhead_max_pct);
  return r;
}

/// The failpoint sites on the pure-hit path: queue.submit fires on every
/// submission, cache.lookup on every probe — two slow-path entries per
/// timed job when armed.
void arm_hot_sites(const char* spec) {
  support::failpoints().configure("queue.submit", spec);
  support::failpoints().configure("cache.lookup", spec);
}

/// Interleaved best-of-N pure-hit throughput with the hot-path failpoint
/// sites armed-but-never-firing (`after=1e9:throw` — every hit pays the
/// slow path, none triggers) vs disarmed. Tracing stays ON in both arms:
/// the question is the marginal cost of the failpoint layer, not a
/// re-measure of the obs layer.
OverheadResult run_failpoint_overhead(const Options& opts) {
  OverheadResult r;
  for (std::size_t t = 0; t < opts.obs_overhead_trials; ++t) {
    arm_hot_sites("after=1000000000:throw");
    r.jps_a.push_back(cached_hit_throughput(opts, true));
    arm_hot_sites("off");
    r.jps_b.push_back(cached_hit_throughput(opts, true));
  }
  arm_hot_sites("off");  // leave nothing armed behind
  finish_overhead(r, opts.failpoint_overhead_max_pct);
  return r;
}

/// `arm_a` / `arm_b` name the two arms in the JSON keys
/// ("traced"/"untraced", "armed"/"off") so the two gates' artifacts stay
/// self-describing.
void write_overhead_json(const char* path, const Options& opts,
                         const OverheadResult& r, const char* arm_a,
                         const char* arm_b, double max_pct) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  auto list = [](const std::vector<double>& v) {
    std::string s;
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.2f", i ? ", " : "", v[i]);
      s += buf;
    }
    return s;
  };
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"config\": {\"jobs\": %zu, \"clients\": 1, \"workers\": 1, "
               "\"unique_instances\": %zu, \"trials\": %zu, "
               "\"max_overhead_pct\": %.3f},\n",
               opts.jobs, opts.unique, opts.obs_overhead_trials, max_pct);
  std::fprintf(out, "  \"jobs_per_sec_%s\": [%s],\n", arm_a,
               list(r.jps_a).c_str());
  std::fprintf(out, "  \"jobs_per_sec_%s\": [%s],\n", arm_b,
               list(r.jps_b).c_str());
  std::fprintf(out,
               "  \"best_%s\": %.2f, \"best_%s\": %.2f, "
               "\"overhead_pct\": %.4f, \"pass\": %s\n",
               arm_a, r.best_a, arm_b, r.best_b, r.overhead_pct,
               r.pass ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

// --- mixed-shape multi-tenant sweep ----------------------------------------

struct MixedResult {
  std::size_t workers = 0;
  std::size_t jobs = 0;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  double speedup_vs_1 = 0.0;
  std::uint64_t arena_builds = 0;
  std::uint64_t steals = 0;
  std::vector<std::uint64_t> worker_completed;
};

/// The tenant shapes. Four distinct (tasks x machines) shapes so a 4-worker
/// service can give every shape its own warm arena; two closed-loop clients
/// per shape emulate two tenants sharing it. These four hash to FOUR
/// DISTINCT shards at 4 shards (and split 2/2 at 2), so the sweep measures
/// affinity rather than an accident of modulo collisions — a production
/// mix won't be this clean, which is what stealing is for.
struct TenantShape {
  std::size_t tasks;
  std::size_t machines;
};

constexpr TenantShape kTenantShapes[] = {
    {24, 6}, {32, 8}, {48, 12}, {80, 16}};
static_assert(std::size(kTenantShapes) <= service::kWarmArenas,
              "every worker must be able to keep every tenant shape warm");

MixedResult run_mixed(const Options& opts, std::size_t workers) {
  service::ServiceOptions service_options;
  service_options.workers = workers;  // deliberately unclamped (sweep axis)
  service_options.queue_capacity = opts.queue_capacity;
  service_options.cache_capacity = 0;  // every job is a real solve
  service::SchedulerService svc(service_options);

  constexpr std::size_t kShapes = std::size(kTenantShapes);
  const std::size_t clients = 2 * kShapes;  // two tenants per shape

  // One instance per tenant, generated once: the shape is what matters,
  // and a fixed matrix keeps per-job work identical across sweep points.
  std::vector<std::shared_ptr<const etc::EtcMatrix>> tenant_etc;
  tenant_etc.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    etc::GenSpec spec;
    spec.tasks = kTenantShapes[c % kShapes].tasks;
    spec.machines = kTenantShapes[c % kShapes].machines;
    spec.consistency = etc::Consistency::kInconsistent;
    spec.seed = opts.seed + 1000 + c;
    tenant_etc.push_back(
        std::make_shared<const etc::EtcMatrix>(etc::generate(spec)));
  }

  support::WallTimer wall;
  {
    support::ScopedThreads tenants(clients, [&](std::size_t c) {
      for (std::size_t j = c; j < opts.mixed_jobs; j += clients) {
        service::JobSpec spec;
        spec.etc = tenant_etc[c];
        spec.seed = opts.seed + j;
        spec.deadline_ms = 10000.0;  // the generation cap is the budget
        spec.policy = service::SolvePolicy::kCga;
        spec.max_generations = 6;
        spec.use_cache = false;
        svc.wait(svc.submit(std::move(spec)));
      }
    });
  }
  svc.drain();
  const double wall_s = wall.elapsed_seconds();
  const auto snap = svc.metrics();

  MixedResult m;
  m.workers = workers;
  m.jobs = snap.completed;
  m.wall_seconds = wall_s;
  m.jobs_per_second =
      wall_s > 0.0 ? static_cast<double>(snap.completed) / wall_s : 0.0;
  m.arena_builds = snap.arena_builds;
  m.steals = svc.queue_steals();
  m.worker_completed = snap.worker_completed;
  svc.shutdown();
  return m;
}

// --- large-shape warm-reschedule scenario ----------------------------------

struct WarmRescheduleResult {
  std::size_t tasks = 0;
  std::size_t machines = 0;
  std::size_t jobs = 0;
  double seed_makespan = 0.0;       ///< the Min-min repair every job seeds
  double warm_mean_solve_ms = 0.0;  ///< seeded PA-CGA reschedules
  double warm_mean_makespan = 0.0;
  double cold_mean_solve_ms = 0.0;  ///< same jobs without the seed
  double cold_mean_makespan = 0.0;
  double warm_improvement_pct = 0.0;  ///< warm result vs the seed
  bool all_warm_started = false;      ///< every warm job reported the seed
  bool all_pacga = false;             ///< every warm job stayed on PA-CGA
  bool never_worse_than_seed = false;
};

/// The dynamic-rescheduling shape the service escalates to PA-CGA: a large
/// instance (>= kParallelMinTasks), a Min-min repair as the warm seed, and
/// a generation-capped budget. The warm arm measures the seeded engine
/// path end to end; the cold arm re-solves from scratch for contrast.
WarmRescheduleResult run_warm_reschedule(const Options& opts) {
  WarmRescheduleResult r;
  r.tasks = 512;
  r.machines = 16;
  r.jobs = opts.full ? 24 : 6;

  etc::GenSpec gen;
  gen.tasks = r.tasks;
  gen.machines = r.machines;
  gen.consistency = etc::Consistency::kInconsistent;
  gen.seed = opts.seed + 2000;
  const auto m =
      std::make_shared<const etc::EtcMatrix>(etc::generate(gen));
  const sched::Schedule repair = heur::min_min(*m);
  r.seed_makespan = repair.makespan();

  service::ServiceOptions so;
  so.workers = 1;
  so.cache_capacity = 0;
  service::SchedulerService svc(so);

  const auto run = [&](bool warm, double& mean_solve_ms,
                       double& mean_makespan) {
    double solve_s = 0.0, makespan = 0.0;
    bool all_warm = true, all_pacga = true, never_worse = true;
    for (std::size_t j = 0; j < r.jobs; ++j) {
      service::JobSpec spec;
      spec.etc = m;
      spec.seed = opts.seed + j;
      spec.policy = service::SolvePolicy::kAuto;
      spec.deadline_ms = 10000.0;  // the generation cap is the budget
      spec.max_generations = 8;
      spec.use_cache = false;
      if (warm) {
        spec.warm_start.assign(repair.assignment().begin(),
                               repair.assignment().end());
      }
      const service::JobResult res =
          svc.wait(svc.submit_reschedule(std::move(spec)));
      solve_s += res.solve_seconds;
      makespan += res.makespan;
      all_warm = all_warm && res.warm_started;
      all_pacga =
          all_pacga && res.policy_used == service::SolvePolicy::kPaCga;
      never_worse = never_worse && res.makespan <= r.seed_makespan + 1e-9;
    }
    mean_solve_ms = solve_s * 1e3 / static_cast<double>(r.jobs);
    mean_makespan = makespan / static_cast<double>(r.jobs);
    if (warm) {
      r.all_warm_started = all_warm;
      r.all_pacga = all_pacga;
      r.never_worse_than_seed = never_worse;
    }
  };
  run(true, r.warm_mean_solve_ms, r.warm_mean_makespan);
  run(false, r.cold_mean_solve_ms, r.cold_mean_makespan);
  r.warm_improvement_pct =
      100.0 * (r.seed_makespan - r.warm_mean_makespan) / r.seed_makespan;
  svc.shutdown();
  return r;
}

void print_warm_reschedule(const WarmRescheduleResult& r) {
  std::printf(
      "warm-reschedule %zux%zu: seed %9.1f | warm %9.1f (%.2f %% better, "
      "%6.1f ms/job) | cold %9.1f (%6.1f ms/job) | warm_started %s | "
      "pa-cga %s | never-worse %s\n",
      r.tasks, r.machines, r.seed_makespan, r.warm_mean_makespan,
      r.warm_improvement_pct, r.warm_mean_solve_ms, r.cold_mean_makespan,
      r.cold_mean_solve_ms, r.all_warm_started ? "yes" : "NO",
      r.all_pacga ? "yes" : "NO", r.never_worse_than_seed ? "yes" : "NO");
}

std::vector<std::size_t> parse_sweep(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t used = 0;
    const unsigned long v = std::stoul(spec.substr(pos), &used);
    if (v == 0) throw std::invalid_argument("sweep-workers: 0 is not a count");
    out.push_back(static_cast<std::size_t>(v));
    pos += used;
    if (pos < spec.size()) {
      if (spec[pos] != ',')
        throw std::invalid_argument("sweep-workers: expected comma in " + spec);
      ++pos;
    }
  }
  if (out.empty())
    throw std::invalid_argument("sweep-workers: empty sweep list");
  return out;
}

void print_mixed(const MixedResult& m) {
  std::printf(
      "mixed-shape %2zu workers: %5zu jobs in %6.2f s -> %8.1f jobs/s | "
      "speedup %4.2fx | arena builds %4llu | steals %6llu\n",
      m.workers, m.jobs, m.wall_seconds, m.jobs_per_second, m.speedup_vs_1,
      static_cast<unsigned long long>(m.arena_builds),
      static_cast<unsigned long long>(m.steals));
}

void print_arm(const ArmResult& a) {
  std::printf(
      "%-10s %6zu jobs in %6.2f s -> %8.1f jobs/s | p50 %7.2f ms  p99 %7.2f "
      "ms | miss %5.1f %% | cache %5.1f %%\n",
      a.name.c_str(), a.jobs, a.wall_seconds, a.jobs_per_second, a.p50_ms,
      a.p99_ms, 100.0 * a.deadline_miss_rate, 100.0 * a.cache_hit_rate);
}

void write_json(const char* path, const Options& opts,
                const std::vector<ArmResult>& arms,
                const std::vector<MixedResult>& mixed,
                const WarmRescheduleResult& warm) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"config\": {\"jobs\": %zu, \"clients\": %zu, \"workers\": "
               "%zu, \"tasks\": %zu, \"machines\": %zu, \"unique_instances\": "
               "%zu, \"deadline_ms\": %.3f, \"policy\": \"%s\"},\n",
               opts.jobs, opts.clients, opts.workers, opts.tasks, opts.machines,
               opts.unique, opts.deadline_ms, opts.policy.c_str());
  std::fprintf(out, "  \"arms\": [\n");
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    std::fprintf(
        out,
        "    {\"arm\": \"%s\", \"jobs\": %zu, \"wall_seconds\": %.4f, "
        "\"jobs_per_sec\": %.2f, \"latency_p50_ms\": %.4f, "
        "\"latency_p99_ms\": %.4f, \"latency_mean_ms\": %.4f, "
        "\"deadline_miss_rate\": %.6f, \"cache_hit_rate\": %.6f, "
        "\"mean_queue_wait_ms\": %.4f, \"mean_solve_ms\": %.4f, "
        "\"mean_makespan\": %.4f, "
        "\"wait_p50_ms\": %.4f, \"wait_p99_ms\": %.4f, "
        "\"solve_p50_ms\": %.4f, \"solve_p99_ms\": %.4f}%s\n",
        a.name.c_str(), a.jobs, a.wall_seconds, a.jobs_per_second, a.p50_ms,
        a.p99_ms, a.mean_ms, a.deadline_miss_rate, a.cache_hit_rate,
        a.mean_queue_wait_ms, a.mean_solve_ms, a.mean_makespan, a.wait_p50_ms,
        a.wait_p99_ms, a.solve_p50_ms, a.solve_p99_ms,
        i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"mixed_shape\": [\n");
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    const MixedResult& m = mixed[i];
    std::string per_worker;
    for (std::size_t w = 0; w < m.worker_completed.size(); ++w) {
      if (w > 0) per_worker += ", ";
      per_worker += std::to_string(m.worker_completed[w]);
    }
    std::fprintf(
        out,
        "    {\"workers\": %zu, \"jobs\": %zu, \"wall_seconds\": %.4f, "
        "\"jobs_per_sec\": %.2f, \"speedup_vs_1\": %.4f, "
        "\"arena_builds\": %llu, \"steals\": %llu, "
        "\"worker_completed\": [%s]}%s\n",
        m.workers, m.jobs, m.wall_seconds, m.jobs_per_second, m.speedup_vs_1,
        static_cast<unsigned long long>(m.arena_builds),
        static_cast<unsigned long long>(m.steals), per_worker.c_str(),
        i + 1 < mixed.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(
      out,
      "  \"warm_reschedule\": {\"tasks\": %zu, \"machines\": %zu, "
      "\"jobs\": %zu, \"seed_makespan\": %.4f, "
      "\"warm_mean_makespan\": %.4f, \"warm_mean_solve_ms\": %.4f, "
      "\"cold_mean_makespan\": %.4f, \"cold_mean_solve_ms\": %.4f, "
      "\"warm_improvement_pct\": %.4f, \"all_warm_started\": %s, "
      "\"all_pacga\": %s, \"never_worse_than_seed\": %s}\n",
      warm.tasks, warm.machines, warm.jobs, warm.seed_makespan,
      warm.warm_mean_makespan, warm.warm_mean_solve_ms,
      warm.cold_mean_makespan, warm.cold_mean_solve_ms,
      warm.warm_improvement_pct, warm.all_warm_started ? "true" : "false",
      warm.all_pacga ? "true" : "false",
      warm.never_worse_than_seed ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  support::Cli cli(
      "bench_service — closed-loop throughput/latency bench of the "
      "scheduler service (smoke-scale by default; --full for a long run)");
  cli.option("jobs", &opts.jobs, "jobs per arm")
      .option("clients", &opts.clients, "closed-loop client threads")
      .option("workers", &opts.workers, "solver workers")
      .option("queue", &opts.queue_capacity, "queue capacity")
      .option("tasks", &opts.tasks, "instance tasks")
      .option("machines", &opts.machines, "instance machines")
      .option("unique", &opts.unique, "distinct instances in the pool")
      .option("deadline-ms", &opts.deadline_ms, "per-job deadline")
      .option("seed", &opts.seed, "master seed")
      .option("policy", &opts.policy,
              {"auto", "minmin", "sufferage", "cga", "pacga"},
              "solve policy for every job")
      .option("mixed-jobs", &opts.mixed_jobs,
              "jobs per mixed-shape sweep point (0 disables the sweep)")
      .option("sweep-workers", &opts.sweep_workers,
              "comma-separated worker counts of the mixed-shape sweep")
      .option("obs-overhead-trials", &opts.obs_overhead_trials,
              "best-of-N trials per arm of the overhead gate")
      .option("obs-overhead-max-pct", &opts.obs_overhead_max_pct,
              "max tolerated instrumented-throughput loss (percent)")
      .option("failpoint-overhead-max-pct", &opts.failpoint_overhead_max_pct,
              "max tolerated armed-failpoint throughput loss (percent)")
      .flag("obs-overhead", &opts.obs_overhead,
            "run the observability overhead gate instead of the bench")
      .flag("failpoint-overhead", &opts.failpoint_overhead,
            "run the failpoint overhead gate instead of the bench")
      .flag("full", &opts.full, "10x jobs, paper-style campaign");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (opts.full) opts.jobs *= 10;
  if (opts.clients == 0 || opts.jobs == 0) {
    std::fprintf(stderr, "need clients >= 1 and jobs >= 1\n");
    return 2;
  }

  if (opts.full) opts.mixed_jobs *= 4;

  if (opts.obs_overhead || opts.failpoint_overhead) {
    if (opts.obs_overhead_trials == 0) {
      std::fprintf(stderr, "need obs-overhead-trials >= 1\n");
      return 2;
    }
  }
  if (opts.obs_overhead) {
    const OverheadResult r = run_obs_overhead(opts);
    std::printf(
        "obs overhead: best traced %8.1f jobs/s vs best untraced %8.1f "
        "jobs/s -> %+.2f %% (max %.2f %%) %s\n",
        r.best_a, r.best_b, r.overhead_pct, opts.obs_overhead_max_pct,
        r.pass ? "PASS" : "FAIL");
    write_overhead_json("BENCH_obs_overhead.json", opts, r, "traced",
                        "untraced", opts.obs_overhead_max_pct);
    return r.pass ? 0 : 1;
  }
  if (opts.failpoint_overhead) {
    const OverheadResult r = run_failpoint_overhead(opts);
    std::printf(
        "failpoint overhead: best armed %8.1f jobs/s vs best off %8.1f "
        "jobs/s -> %+.2f %% (max %.2f %%) %s\n",
        r.best_a, r.best_b, r.overhead_pct, opts.failpoint_overhead_max_pct,
        r.pass ? "PASS" : "FAIL");
    write_overhead_json("BENCH_failpoint_overhead.json", opts, r, "armed",
                        "off", opts.failpoint_overhead_max_pct);
    return r.pass ? 0 : 1;
  }

  std::vector<ArmResult> arms;
  arms.push_back(run_arm(opts, /*use_cache=*/true, "cached"));
  print_arm(arms.back());
  arms.push_back(run_arm(opts, /*use_cache=*/false, "uncached"));
  print_arm(arms.back());

  std::vector<MixedResult> mixed;
  if (opts.mixed_jobs > 0) {
    std::vector<std::size_t> sweep;
    try {
      sweep = parse_sweep(opts.sweep_workers);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    for (std::size_t w : sweep) {
      mixed.push_back(run_mixed(opts, w));
      // Speedup against the sweep's first point (1 worker by default).
      const MixedResult& base = mixed.front();
      mixed.back().speedup_vs_1 =
          base.jobs_per_second > 0.0
              ? mixed.back().jobs_per_second / base.jobs_per_second
              : 0.0;
      print_mixed(mixed.back());
    }
  }
  const WarmRescheduleResult warm = run_warm_reschedule(opts);
  print_warm_reschedule(warm);

  write_json("BENCH_service.json", opts, arms, mixed, warm);
  // Each worker builds each tenant shape's arena at most once.
  bool pass = true;
  for (const MixedResult& m : mixed) {
    if (m.arena_builds <= std::size(kTenantShapes) * m.workers) continue;
    std::fprintf(stderr,
                 "FAIL: mixed-shape %zu workers built %llu arenas, more than "
                 "%zu shapes x %zu workers\n",
                 m.workers, static_cast<unsigned long long>(m.arena_builds),
                 std::size(kTenantShapes), m.workers);
    pass = false;
  }
  return pass ? 0 : 1;
}
