// bench_streaming — streamed-warm epochs vs cold-per-epoch solves.
//
// The question the streaming subsystem must answer quantitatively: when
// every epoch's batch is a submit_reschedule of the previous epoch's tail
// (warm-seeded, never worse than the seed), how much solver wall-clock
// does it take to match what independent cold solves achieve? Per
// scenario:
//
//   1. COLD arm: StreamingSession with warm = false — every epoch is an
//      independent solve under the per-epoch deadline D (serving with
//      no memory between epochs);
//   2. WARM arm: the same arrival trace with warm seeding, at deadlines
//      D, D/2 and D/4. The smallest-budget warm run whose final
//      completion time is no worse than the cold arm's is the headline:
//      its total solver wall-clock vs the cold arm's is the speedup.
//
// Warm epochs start from the previous tail, so they reach cold-level
// quality with a fraction of the per-epoch budget — that fraction is what
// the bench measures (expect wins to grow with batch overlap: long tails
// and bursty arrivals recycle the most work).
//
// Also verifies the replay contract end to end: a
// batch::generate_event_stream scenario serialized through format_event,
// re-parsed with parse_event and driven through two fresh
// RescheduleSession + capped warm reschedules must produce byte-identical
// result lines (the same determinism the daemon's REPLAY verb + a capped
// RESCHEDULE rely on; `--deterministic` strips the remaining timing
// fields there).
//
// Emits BENCH_streaming.json. Smoke-scale by default; --full for a
// longer campaign.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "batch/event_stream.hpp"
#include "dynamic/session.hpp"
#include "service/service.hpp"
#include "service/streaming.hpp"
#include "support/cli.hpp"

namespace {

using namespace pacga;

struct Options {
  double deadline_ms = 30.0;  ///< cold arm's per-epoch budget D
  std::uint64_t seed = 1;
  bool full = false;
};

struct ArmResult {
  double deadline_ms = 0.0;
  double completion_time = 0.0;
  double mean_response = 0.0;
  double solve_seconds = 0.0;
  std::size_t epochs = 0;
  std::size_t solved = 0;
  std::size_t carried = 0;
  /// Obs-layer histogram percentiles of the arm's service (0 when
  /// observability is off or the arm solved nothing).
  double wait_p50_ms = 0.0;
  double wait_p99_ms = 0.0;
  double solve_p50_ms = 0.0;
  double solve_p99_ms = 0.0;
};

struct ScenarioResult {
  std::string name;
  ArmResult cold;
  std::vector<ArmResult> warm;  ///< at D, D/2, D/4
  int best_warm = -1;           ///< cheapest warm arm matching cold quality
  double speedup = 0.0;         ///< cold solve time / best warm solve time
  bool reached = false;         ///< some warm arm matched cold in less time
};

ArmResult run_arm(const service::StreamingSpec& spec) {
  service::ServiceOptions options;
  options.workers = 2;
  service::SchedulerService svc(options);
  service::StreamingSession session(svc, spec);
  const service::StreamingMetrics& m = session.run();
  ArmResult r;
  r.deadline_ms = spec.deadline_ms;
  r.completion_time = m.completion_time;
  r.mean_response = m.mean_response;
  r.solve_seconds = m.solve_seconds;
  r.epochs = m.epochs;
  r.solved = m.solved_batches;
  r.carried = m.carried_tasks;
  r.wait_p50_ms = m.wait_p50_ms;
  r.wait_p99_ms = m.wait_p99_ms;
  r.solve_p50_ms = m.solve_p50_ms;
  r.solve_p99_ms = m.solve_p99_ms;
  return r;
}

ScenarioResult run_scenario(const std::string& name,
                            service::StreamingSpec spec,
                            const Options& opts) {
  ScenarioResult r;
  r.name = name;

  spec.warm = false;
  spec.deadline_ms = opts.deadline_ms;
  r.cold = run_arm(spec);

  spec.warm = true;
  for (const double frac : {1.0, 0.5, 0.25}) {
    spec.deadline_ms = opts.deadline_ms * frac;
    r.warm.push_back(run_arm(spec));
  }
  // Cheapest warm arm that still matches the cold arm's final quality.
  for (int i = static_cast<int>(r.warm.size()) - 1; i >= 0; --i) {
    if (r.warm[i].completion_time <= r.cold.completion_time * (1.0 + 1e-9)) {
      r.best_warm = i;
      break;
    }
  }
  if (r.best_warm >= 0) {
    const ArmResult& best = r.warm[static_cast<std::size_t>(r.best_warm)];
    r.speedup = best.solve_seconds > 0.0
                    ? r.cold.solve_seconds / best.solve_seconds
                    : 0.0;
    r.reached = best.solve_seconds < r.cold.solve_seconds;
  }
  return r;
}

/// One replay trial: a serialized stream driven through a fresh session +
/// a capped warm reschedule; returns the deterministic result line.
std::string replay_trial(const std::vector<std::string>& lines,
                         std::size_t workers) {
  batch::WorkloadSpec w;
  w.tasks = 48;
  w.machines = 8;
  w.seed = 5;
  dynamic::RescheduleSession session(w);
  for (const std::string& line : lines) {
    (void)session.apply(dynamic::parse_event(line));
  }
  service::ServiceOptions options;
  options.workers = workers;
  service::SchedulerService svc(options);
  service::JobSpec spec = session.make_reschedule_spec(0, 5000.0, 9);
  spec.policy = service::SolvePolicy::kCga;
  spec.max_generations = 40;
  const service::JobResult r = svc.wait(svc.submit_reschedule(std::move(spec)));
  const bool adopted =
      r.status == service::JobStatus::kDone && session.adopt(r.assignment);
  std::ostringstream out;
  out.precision(10);
  out << "status=" << service::to_string(r.status)
      << " makespan=" << r.makespan
      << " policy=" << service::to_string(r.policy_used)
      << " warm_started=" << (r.warm_started ? 1 : 0)
      << " generations=" << r.generations
      << " evaluations=" << r.evaluations << " adopted=" << (adopted ? 1 : 0)
      << " events=" << lines.size() << " tasks=" << session.tasks()
      << " machines=" << session.machines()
      << " final_makespan=" << session.schedule().makespan();
  return out.str();
}

/// Serializes a generated churn scenario to disk and replays it twice
/// (different worker counts), returning true when the runs are
/// byte-identical — the REPLAY determinism contract.
bool replay_round_trip(const Options& opts, std::string& line_out) {
  batch::EventStreamSpec stream;
  stream.initial_tasks = 48;
  stream.initial_machines = 8;
  stream.up_ready_hi = 200.0;  // returning machines carry in-flight work
  stream.max_events = 64;
  stream.seed = opts.seed;

  const char* path = "BENCH_streaming_replay.txt";
  {
    std::ofstream file(path);
    for (const auto& e : batch::generate_event_stream(stream)) {
      file << dynamic::format_event(e) << '\n';
    }
  }
  std::vector<std::string> lines;
  {
    std::ifstream file(path);
    std::string line;
    while (std::getline(file, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  const std::string first = replay_trial(lines, 1);
  const std::string second = replay_trial(lines, 3);
  line_out = first;
  return first == second;
}

void write_json(const char* path, const Options& opts,
                const std::vector<ScenarioResult>& scenarios,
                bool replay_identical, const std::string& replay_line) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"config\": {\"deadline_ms\": %.3f, \"seed\": %llu, "
               "\"full\": %s},\n",
               opts.deadline_ms, static_cast<unsigned long long>(opts.seed),
               opts.full ? "true" : "false");
  std::fprintf(out, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult& r = scenarios[i];
    std::fprintf(out, "    {\"scenario\": \"%s\",\n", r.name.c_str());
    std::fprintf(out,
                 "     \"cold\": {\"deadline_ms\": %.3f, \"completion\": "
                 "%.4f, \"solve_s\": %.6f, \"epochs\": %zu, "
                 "\"wait_p50_ms\": %.4f, \"wait_p99_ms\": %.4f, "
                 "\"solve_p50_ms\": %.4f, \"solve_p99_ms\": %.4f},\n",
                 r.cold.deadline_ms, r.cold.completion_time,
                 r.cold.solve_seconds, r.cold.epochs, r.cold.wait_p50_ms,
                 r.cold.wait_p99_ms, r.cold.solve_p50_ms,
                 r.cold.solve_p99_ms);
    std::fprintf(out, "     \"warm\": [");
    for (std::size_t j = 0; j < r.warm.size(); ++j) {
      std::fprintf(out,
                   "%s{\"deadline_ms\": %.3f, \"completion\": %.4f, "
                   "\"solve_s\": %.6f, \"carried\": %zu, "
                   "\"wait_p50_ms\": %.4f, \"wait_p99_ms\": %.4f, "
                   "\"solve_p50_ms\": %.4f, \"solve_p99_ms\": %.4f}",
                   j ? ", " : "", r.warm[j].deadline_ms,
                   r.warm[j].completion_time, r.warm[j].solve_seconds,
                   r.warm[j].carried, r.warm[j].wait_p50_ms,
                   r.warm[j].wait_p99_ms, r.warm[j].solve_p50_ms,
                   r.warm[j].solve_p99_ms);
    }
    std::fprintf(out, "],\n");
    std::fprintf(out,
                 "     \"best_warm\": %d, \"speedup\": %.2f, "
                 "\"reached_cold_quality_faster\": %s}%s\n",
                 r.best_warm, r.speedup, r.reached ? "true" : "false",
                 i + 1 < scenarios.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"replay\": {\"byte_identical\": %s, \"result_line\": "
               "\"%s\"}\n",
               replay_identical ? "true" : "false", replay_line.c_str());
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  support::Cli cli(
      "bench_streaming — streamed-warm epochs vs cold-per-epoch solves "
      "(writes BENCH_streaming.json)");
  cli.option("deadline-ms", &opts.deadline_ms,
             "cold arm's per-epoch solve budget")
      .option("seed", &opts.seed, "master seed")
      .flag("full", &opts.full, "4x instances and budgets");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const std::size_t scale = opts.full ? 4 : 1;
  if (opts.full) opts.deadline_ms *= 4.0;

  // Three serving regimes with different batch overlap profiles.
  std::vector<std::pair<std::string, service::StreamingSpec>> scenarios;
  {
    service::StreamingSpec spec;  // long tails: most of each batch carries
    spec.workload.tasks = 192 * scale;
    spec.workload.machines = 12;
    spec.workload.seed = opts.seed;
    spec.epoch_length = 300.0;
    spec.seed = opts.seed;
    scenarios.emplace_back("steady_trickle", spec);
  }
  {
    service::StreamingSpec spec;  // bursty: big batches, heavy overlap
    spec.workload.tasks = 256 * scale;
    spec.workload.machines = 16;
    spec.workload.arrival_rate = 50.0;
    spec.workload.seed = opts.seed + 1;
    spec.epoch_length = 200.0;
    spec.seed = opts.seed + 1;
    scenarios.emplace_back("bursty_waves", spec);
  }
  {
    service::StreamingSpec spec;  // inconsistent machines: placement matters
    spec.workload.tasks = 160 * scale;
    spec.workload.machines = 8;
    spec.workload.inconsistency = 1.5;
    spec.workload.seed = opts.seed + 2;
    spec.epoch_length = 400.0;
    spec.seed = opts.seed + 2;
    scenarios.emplace_back("heavy_tail", spec);
  }

  std::vector<ScenarioResult> results;
  std::size_t wins = 0;
  for (auto& [name, spec] : scenarios) {
    results.push_back(run_scenario(name, spec, opts));
    const ScenarioResult& r = results.back();
    const double warm_s =
        r.best_warm >= 0
            ? r.warm[static_cast<std::size_t>(r.best_warm)].solve_seconds
            : -1.0;
    std::printf(
        "%-15s cold %9.4f in %7.3fs | warm best %9.4f in %7.3fs "
        "(deadline %5.1fms) | speedup %5.2fx %s\n",
        r.name.c_str(), r.cold.completion_time, r.cold.solve_seconds,
        r.best_warm >= 0
            ? r.warm[static_cast<std::size_t>(r.best_warm)].completion_time
            : 0.0,
        warm_s,
        r.best_warm >= 0
            ? r.warm[static_cast<std::size_t>(r.best_warm)].deadline_ms
            : 0.0,
        r.speedup, r.reached ? "(reached)" : "(NOT reached)");
    wins += r.reached ? 1 : 0;
  }

  std::string replay_line;
  const bool replay_identical = replay_round_trip(opts, replay_line);
  std::printf("replay byte-identical across runs/worker counts: %s\n",
              replay_identical ? "yes" : "NO");

  write_json("BENCH_streaming.json", opts, results, replay_identical,
             replay_line);
  std::printf("streamed-warm matched cold quality in less wall-clock on "
              "%zu/%zu scenarios\n",
              wins, results.size());
  return 0;
}
