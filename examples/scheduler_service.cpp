// scheduler_service — the solve service as a scriptable daemon.
//
// Speaks a newline-delimited request protocol (docs/DAEMON_PROTOCOL.md)
// over one of two transports, both running the same net::Session:
//
//   * default: stdin/stdout (net::serve_stream) — one client, one request
//     per line, one response line per request; drivable from a shell pipe
//     or CI script.
//   * --listen <port>: a TCP socket served by a single-threaded poll()
//     event loop (src/net/server.hpp) — many concurrent clients, each
//     with its own protocol session, session-local job ids and dynamic
//     grid. Port 0 binds an ephemeral port; the daemon announces
//     "LISTENING <host>:<port>" on stdout either way so scripts can
//     connect. Disconnecting mid-flight cancels and drains that client's
//     jobs without disturbing the others.
//
// The transports differ in one thing only, admission on a full queue
// shard: the pipe blocks until the shard has room, a socket client gets
// "ERR BUSY queue full" instead of stalling the loop.
//
// Verbs (full grammar in docs/DAEMON_PROTOCOL.md):
//
//   INSTANCE <priority> <deadline_ms> <seed> <name>
//       Submit a Braun-suite instance by name (e.g. u_c_hihi.0).
//       -> JOB <id>
//   WORKLOAD <priority> <deadline_ms> <seed> <tasks> <machines> <wseed>
//       Submit a generated workload (batch::WorkloadSpec defaults with
//       the given shape/seed) as one full batch.
//       -> JOB <id>
//   SUBMIT <priority> <deadline_ms> <seed> <tasks> <machines> <v...>
//       Submit an inline ETC matrix (tasks*machines task-major values).
//       -> JOB <id>
//   WAIT <id>
//       Block until the job finishes (socket clients: other connections
//       keep being served while this one waits).
//       -> RESULT id=<id> status=<s> makespan=<m> policy=<p> cache_hit=<0|1>
//                 deadline_missed=<0|1> generations=<g> evaluations=<e>
//                 wait_ms=<w> solve_ms=<s>
//   CANCEL <id>   -> CANCELLED <id> <1|0>
//   STATS         -> STATS completed=... jobs_per_sec=... (key=value line;
//                    latency min/max and p50/p90/p99/p99.9 fields print `-`
//                    while no job has completed)
//   METRICS       -> Prometheus text exposition, terminated by `# EOF`
//                    (the one multi-line response in the protocol)
//   TRACE <id>    -> TRACE id=<id> spans=<n> <kind>@<start_ms>+<dur_ms> ...
//                    (the job's span timeline from the flight recorder;
//                    spans=0 once the ring has wrapped past the job)
//   TRACE DUMP <file>
//                 -> TRACE dump=<file> spans=<n>  (writes Chrome
//                    trace_event JSON loadable in chrome://tracing)
//   DRAIN         -> DRAINED  (socket clients: drains THIS connection's
//                    in-flight jobs; the pipe drains the whole service)
//   QUIT (or EOF) -> pipe: graceful shutdown, exit 0; socket: closes the
//                    connection, the daemon keeps serving
//
// Dynamic-grid verbs (one live rescheduling session per client session):
//
//   DYNAMIC <tasks> <machines> <wseed>
//       Open (or replace) the dynamic session: generate the workload,
//       build the initial heuristic schedule.
//       -> DYNAMIC tasks=<T> machines=<M> makespan=<x>
//   EVENT DOWN <machine> | UP <mips> [ready] | SLOW <machine> <factor>
//         | ARRIVE <workload> | CANCEL <task> | COMMIT <elapsed>
//       Apply one grid event and repair the schedule in place (UP takes
//       an optional ready time; COMMIT is the epoch boundary — started
//       work leaves the batch and becomes machine ready time).
//       -> EVENT kind=<k> orphans=<n> tasks=<T> machines=<M> makespan=<x>
//   RESCHEDULE <priority> <deadline_ms> <seed> [max_generations]
//       Re-optimize the repaired schedule on the solver pool (warm CGA
//       seeded with it) under the deadline; adopt an improvement. The
//       optional generation cap makes the result timing-independent.
//       -> RESULT ... warm_started=<0|1> adopted=<0|1>
//   REPLAY <file>
//       Stream a serialized event log (one format_event line per event —
//       batch::generate_event_stream output, or a recorded session)
//       through the dynamic session. Stops at the first bad line.
//       -> REPLAY events=<n> tasks=<T> machines=<M> makespan=<x>
//
// Errors never kill the daemon: a malformed request gets "ERR <reason>".
// --deterministic suppresses the timing fields (wait_ms/solve_ms) of
// RESULT lines, so a scripted run (REPLAY + capped RESCHEDULE) produces
// byte-identical output across runs.
//
// Diagnostics go through support/log (stderr), OFF unless PACGA_LOG_LEVEL
// is set — stdout carries only protocol responses either way.
// --trace-capacity 0 disables span tracing (TRACE returns empty); the
// latency histograms behind STATS and METRICS always run.
#include <csignal>
#include <iostream>
#include <string>

#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "support/cli.hpp"
#include "support/log.hpp"
#include "support/threading.hpp"

namespace {

using namespace pacga;

struct DaemonOptions {
  std::size_t workers = 2;
  std::size_t queue_capacity = 256;
  std::size_t cache_capacity = 1024;
  std::size_t trace_capacity = 8192;
  /// TCP mode: port to listen on (0 = ephemeral); negative = pipe mode.
  int listen = -1;
  std::string bind = "127.0.0.1";
  std::size_t max_connections = 512;
  /// Reap TCP connections silent for this long (0 disables; parked
  /// continuations are exempt — see ServerOptions::idle_timeout_ms).
  double idle_timeout_ms = 0.0;
  /// JobSpec::max_retries for every admitted job (0 = fail fast).
  std::size_t max_retries = 0;
  /// Shed admissions once a shard is this full (fraction; >= 1 disables).
  double shed_watermark = 1.0;
  /// Watchdog stall threshold as a multiple of the job's deadline.
  double stall_factor = 8.0;
  net::ProtocolOptions protocol;
};

net::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server) g_server->stop();  // async-signal-safe
}

int serve_socket(service::SchedulerService& svc, const DaemonOptions& opts) {
  net::ServerOptions server_options;
  server_options.bind = opts.bind;
  server_options.port = static_cast<std::uint16_t>(opts.listen);
  server_options.max_connections = opts.max_connections;
  server_options.idle_timeout_ms = opts.idle_timeout_ms;
  server_options.protocol = opts.protocol;
  net::Server server(svc, std::move(server_options));
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Announced on stdout (not the log) so scripts binding port 0 can read
  // the ephemeral port back without parsing stderr.
  std::cout << "LISTENING " << opts.bind << ":" << server.port() << std::endl;
  support::log_info() << "scheduler_service: listening on " << opts.bind << ":"
                      << server.port();
  server.run();
  g_server = nullptr;
  support::log_info() << "scheduler_service: shutting down";
  svc.shutdown();
  return 0;
}

int serve_pipe(service::SchedulerService& svc, const DaemonOptions& opts) {
  net::InstancePool instances;
  net::Session session(svc, opts.protocol, instances, /*fail_fast=*/false);
  net::serve_stream(session, std::cin, std::cout);
  support::log_info() << "scheduler_service: shutting down";
  svc.shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions opts;
  support::Cli cli(
      "scheduler_service — multi-tenant solve service daemon "
      "(newline-delimited protocol on stdin/stdout, or TCP via --listen)");
  cli.option("workers", &opts.workers, "solver worker threads")
      .option("queue-capacity", &opts.queue_capacity, "bounded job queue size")
      .option("cache-capacity", &opts.cache_capacity,
              "solution cache entries (0 disables)")
      .option("policy", &opts.protocol.policy,
              {"auto", "minmin", "sufferage", "cga", "pacga"},
              "solve policy applied to every job")
      .option("repair-policy", &opts.protocol.repair_policy,
              {"minmin", "sufferage"},
              "orphan reassignment order of the dynamic session")
      .option("default-deadline-ms", &opts.protocol.default_deadline_ms,
              "deadline used when a request passes 0")
      .option("trace-capacity", &opts.trace_capacity,
              "span flight-recorder entries per worker (0 disables tracing)")
      .option("listen", &opts.listen,
              "serve the protocol on this TCP port instead of stdin/stdout "
              "(0 = ephemeral; prints LISTENING <host>:<port>)")
      .option("bind", &opts.bind, "address to bind with --listen")
      .option("max-connections", &opts.max_connections,
              "concurrent TCP connections accepted with --listen")
      .option("idle-timeout-ms", &opts.idle_timeout_ms,
              "reap TCP connections silent for this long (0 disables; "
              "connections waiting on a result are never reaped)")
      .option("max-retries", &opts.max_retries,
              "transient-failure retries per job before quarantine (0 = "
              "first failure is terminal)")
      .option("shed-watermark", &opts.shed_watermark,
              "refuse admissions once a queue shard is this full "
              "(fraction of shard capacity; >= 1 disables)")
      .option("stall-factor", &opts.stall_factor,
              "watchdog declares a worker stalled past stall-factor x the "
              "job's deadline (respawns the worker, fails the job)")
      .flag("deterministic", &opts.protocol.deterministic,
            "omit timing fields from RESULT lines (byte-identical replays)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 2;
  }

  service::ServiceOptions options;
  options.workers = pacga::support::clamp_threads(opts.workers);
  options.queue_capacity = opts.queue_capacity;
  options.cache_capacity = opts.cache_capacity;
  options.trace_capacity = opts.trace_capacity;
  options.shed_watermark = opts.shed_watermark;
  options.supervision.stall_factor = opts.stall_factor;
  opts.protocol.max_retries = static_cast<std::uint32_t>(opts.max_retries);
  service::SchedulerService svc(options);
  support::log_info() << "scheduler_service: workers=" << options.workers
                      << " queue=" << options.queue_capacity
                      << " cache=" << options.cache_capacity
                      << " trace=" << options.trace_capacity;

  try {
    return opts.listen >= 0 ? serve_socket(svc, opts) : serve_pipe(svc, opts);
  } catch (const std::exception& e) {
    std::cerr << "scheduler_service: " << e.what() << '\n';
    return 1;
  }
}
