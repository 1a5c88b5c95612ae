// perfbench — one workload per invocation:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// --trace 0 measures the end-to-end metrics (tracing off). --trace 1 runs
// the workload twice in the same process, untraced then traced, reports
// the difference as the tracing overhead, then measures every per-layer
// metric and writes the recorded spans to --spans. The last stdout line is
// the result object; the exit code is non-zero when any check failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

enum class Kind { kArm, kService };

struct WorkloadDef {
  const char* name;
  Kind kind;
  const Arm* arm;
};

constexpr WorkloadDef kWorkloads[] = {
    {"braun_pacga", Kind::kArm, &kArmLs10},
    {"service_mix", Kind::kService, nullptr},
};

/// Set-up runs this many times; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// The traced run takes the service.* figures from a service_mix probe when
/// the workload does not serve jobs, and net.* always from an edge_pipeline
/// probe: no tracked workload goes through net::Server.
constexpr double kServiceProbeSeconds = 1.5;
constexpr double kEdgeProbeSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

/// The end-to-end figures every workload reports besides set-up and memory.
struct E2E {
  WindowFigures window;
  double quality = 0.0;
};

/// The engine arm's instances are 12 classes of different cost, so a median
/// over instances (or of the pooled sweeps) would jump between classes from
/// seed to seed. Throughput is the pooled rate; the p50 and p99 are the
/// geometric means of the per-instance quantiles, so that one noisy stretch
/// of the host, which fills the pooled tail, moves only one of twelve.
E2E e2e_of(const ArmRun& r) {
  E2E e;
  e.window = summarize(r.slices);
  e.window.throughput = r.evals_per_s();
  std::vector<double> medians, tails;
  e.window.p99_q = 1.0;
  for (const Slice& s : r.slices) {
    medians.push_back(s.latency.quantile(0.5).value);
    const Quantile p99 = s.latency.quantile(0.99);
    tails.push_back(p99.value);
    e.window.p99_q = std::min(e.window.p99_q, p99.q);
  }
  e.window.p50_ms = geomean(medians);
  e.window.p99_ms = geomean(tails);
  e.window.groups = 1;
  e.quality = geomean(r.ratios);
  return e;
}

E2E e2e_of(const ServiceMixRun& r) {
  return {summarize(r.slices),
          r.completed ? r.ratio_sum / static_cast<double>(r.completed) : 0.0};
}

/// Builds the workload kSetupRepeats times (tearing each previous one down
/// untimed) and keeps the last; setup_s is the median build time.
template <typename T, typename Make>
std::unique_ptr<T> timed_setup(Make&& make, double& setup_s) {
  std::vector<double> seconds;
  std::unique_ptr<T> kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();
    const std::uint64_t t0 = now_ns();
    kept = make();
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  setup_s = median(seconds);
  return kept;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return false;
      a.trace = value[0] == '1';
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

void print_latency_note(const char* label, const WindowFigures& w) {
  std::printf("%s latency: n=%llu in %zu groups, p50=%.4f ms, p99=%.4f ms "
              "(lowest quantile the ten-beyond rule allowed: %.4f)\n",
              label, static_cast<unsigned long long>(w.samples), w.groups,
              w.p50_ms, w.p99_ms, w.p99_q);
}

int run(const Args& args, const WorkloadDef& w) {
  std::printf("host %s\n", host_fingerprint().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Tally tally;
  SpanLog spans(args.trace);
  std::vector<SpanLog> client_spans;
  for (std::size_t c = 0; c < kServiceClients; ++c)
    client_spans.emplace_back(args.trace);
  std::vector<SpanLog> untraced_clients;
  SpanLog untraced(false);

  // Untraced runs measure one window of `seconds`; the traced run splits it
  // into an untraced and a traced half over the same inputs.
  const double window = args.trace ? args.seconds / 2.0 : args.seconds;
  double setup_s = 0.0;
  E2E plain, traced;
  std::unique_ptr<ArmInputs> braun;
  std::optional<ServiceMixRun> mix_run;
  double peak_rss = 0.0;  // read after the untraced window, before analysis

  switch (w.kind) {
    case Kind::kArm: {
      const Arm& arm = *w.arm;
      auto in = timed_setup<ArmInputs>(
          [&] {
            auto made = std::make_unique<ArmInputs>(make_arm_inputs(arm, args.seed));
            ArmInputs first;  // warm-up: threads, pages, kernel dispatch
            first.etc.push_back(made->etc.front());
            first.minmin.push_back(made->minmin.front());
            Tally warm;
            run_arm(arm, first, kEngineThreads, 0.05, args.seed, warm, untraced);
            if (warm.failed() != 0)
              throw std::runtime_error("engine warm-up failed its checks");
            return made;
          },
          setup_s);
      const double per_instance = window / static_cast<double>(in->etc.size());
      const ArmRun r = run_arm(arm, *in, kEngineThreads, per_instance,
                               args.seed, tally, untraced);
      peak_rss = peak_rss_mib();
      plain = e2e_of(r);
      if (args.trace) {
        traced = e2e_of(run_arm(arm, *in, kEngineThreads, per_instance,
                                args.seed, tally, spans));
      }
      if (arm.tasks == kArmLs10.tasks) braun = std::move(in);
      break;
    }
    case Kind::kService: {
      auto mix = timed_setup<ServiceMix>(
          [&] { return std::make_unique<ServiceMix>(args.seed); }, setup_s);
      const ServiceMixRun r = mix->run(window, 1, tally, untraced_clients);
      peak_rss = peak_rss_mib();
      plain = e2e_of(r);
      if (args.trace) {
        mix_run = mix->run(window, 1, tally, client_spans);
        traced = e2e_of(*mix_run);
      }
      break;
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    print_latency_note(w.name, plain.window);
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss, "MiB"});
    metrics.push_back({"throughput_per_s", plain.window.throughput, "1/s"});
    metrics.push_back({"latency_p50_ms", plain.window.p50_ms, "ms"});
    metrics.push_back({"latency_p99_ms", plain.window.p99_ms, "ms"});
    metrics.push_back({"quality_ratio", plain.quality, "ratio"});
  } else {
    print_latency_note("untraced", plain.window);
    print_latency_note("traced", traced.window);
    if (!braun) {
      braun = std::make_unique<ArmInputs>(make_arm_inputs(kArmLs10, args.seed));
    }
    ArmInputs wide;
    wide.etc.push_back(make_arm_instance({512, 128, 10, 1, 8}, 0, args.seed));
    measure_kernels(*braun, wide, spans, metrics);
    measure_heuristics(*braun, args.seed, spans, metrics);
    const double ls0 = measure_breeder(*braun, spans, metrics);
    measure_engine(*braun, ls0, args.seed, tally, spans, metrics);
    if (!mix_run) {
      ServiceMix probe(args.seed);
      mix_run = probe.run(kServiceProbeSeconds, 1, tally, client_spans);
    }
    service_layer(*mix_run, metrics);
    EdgePipeline edge(args.seed);
    net_layer(edge.run(kEdgeProbeSeconds, 1, tally, spans), metrics);
    metrics.push_back({"trace.throughput_delta_frac",
                       (traced.window.throughput - plain.window.throughput) /
                           plain.window.throughput,
                       "ratio"});
    metrics.push_back({"trace.latency_p50_delta_ms",
                       traced.window.p50_ms - plain.window.p50_ms, "ms"});
    if (!args.spans.empty()) {
      std::vector<const SpanLog*> logs{&spans};
      for (const SpanLog& l : client_spans) logs.push_back(&l);
      if (!write_spans(args.spans, logs))
        std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    }
  }
  std::printf("failed_frac %.6f (%llu of %llu attempted)\n",
              tally.failed_frac(),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted()));
  print_result(stdout, metrics, tally);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\n");
    return 2;
  }
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload != w.name) continue;
    try {
      return run(args, w);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 2;
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
