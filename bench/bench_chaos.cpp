// bench_chaos — fault-injection soak of the self-healing service stack.
//
// Stands up the scheduler service + TCP edge in-process (like bench_net)
// and drives three identical closed-loop client phases:
//
//   calm     every failpoint disarmed — the healthy-throughput baseline
//   storm    a mixed failure storm armed through the failpoint registry:
//            solver throws (exercises retry/backoff + quarantine), cache
//            inserts and socket reads get latency injections, and two
//            cache lookups WEDGE their worker threads (exercises the
//            stall watchdog + worker respawn)
//   recover  every failpoint disarmed again — the same offered load as
//            calm, measured after the self-healing machinery cleaned up
//
// Every client validates its own transcript exactly as bench_net does
// (dense session-local ids, a RESULT for precisely the id each WAIT
// asked), except that status=failed is an ACCEPTED terminal answer during
// any phase — chaos may quarantine or stall a job, but it must never
// lose, duplicate or cross-wire one.
//
// The run fails (exit 1) unless all of:
//   - zero transcript violations across all phases,
//   - every admitted job reached a terminal state:
//       submitted == completed + failed + cancelled after drain,
//   - the storm actually bit (storm-phase failed or retried > 0),
//   - recover throughput >= --min-recovery-ratio x calm throughput
//     (default 0.9): restarts and released wedges must not leave the
//     service limping.
//
// Emits BENCH_chaos.json with per-phase throughput/latency and the
// robustness counter deltas (retries, quarantined, stalled,
// worker_restarts, shed).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "service/service.hpp"
#include "support/cli.hpp"
#include "support/failpoints.hpp"
#include "support/stats.hpp"
#include "support/threading.hpp"
#include "support/timer.hpp"

namespace {

using namespace pacga;

struct Options {
  std::size_t clients = 12;        ///< concurrent socket clients per phase
  std::size_t jobs_per_client = 12;
  std::size_t workers = 3;         ///< solver workers
  std::size_t queue_capacity = 256;
  std::size_t tasks = 24;          ///< workload shape per job
  std::size_t machines = 6;
  /// Small on purpose: the stall threshold is
  /// max(min_stall_ms, stall_factor x deadline_ms), and the wedged-worker
  /// part of the storm needs the watchdog to act within the phase.
  double deadline_ms = 50.0;
  std::uint64_t seed = 1;
  std::string policy = "minmin";   ///< fast jobs: robustness is the subject
  double backoff_ms = 2.0;         ///< client retry pause after ERR BUSY
  double min_recovery_ratio = 0.9; ///< recover vs calm throughput gate
  bool full = false;
};

/// The storm. Rates are primes so the injections drift across jobs
/// instead of synchronizing; counters reset at configure(), so the same
/// spec bites at the same hit numbers every run.
///   solver.solve  every 5th solve throws -> retry/backoff, eventually
///                 quarantine when three attempts line up on multiples
///   cache.insert  every 7th insert +1 ms  -> slow post-solve path
///   net.read      every 97th socket read +1 ms -> event-loop hiccups
///                 (delay, never throw: a thrown net failpoint kills the
///                 connection, which is a different test)
///   cache.lookup  the next TWO lookups park their worker thread ->
///                 stall watchdog must fail the jobs and respawn
constexpr struct {
  const char* site;
  const char* spec;
} kStorm[] = {
    {"solver.solve", "every=5:throw"},
    {"cache.insert", "every=7:delay=1"},
    {"net.read", "every=97:delay=1"},
    {"cache.lookup", "times=2:wedge"},
};

void arm_storm(bool on) {
  for (const auto& s : kStorm)
    support::failpoints().configure(s.site, on ? s.spec : "off");
}

/// Minimal blocking loopback client: buffered line reader, send-all.
class SockClient {
 public:
  explicit SockClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error(std::string("connect failed: ") +
                               std::strerror(errno));
  }
  ~SockClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  SockClient(const SockClient&) = delete;
  SockClient& operator=(const SockClient&) = delete;

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                               MSG_NOSIGNAL
#else
                               0
#endif
      );
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed by daemon");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct ClientTally {
  std::size_t served = 0;   ///< terminal RESULT received (done OR failed)
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;  ///< ERR BUSY answers (both full and shed)
  std::vector<double> e2e_ms;
  std::string error;  ///< first transcript violation ("" = clean)
};

/// One closed-loop client. Identical transcript discipline to bench_net,
/// with two chaos-specific relaxations: status=failed is a valid terminal
/// answer, and every job gets a fresh seed so the storm hits real solves
/// instead of cache replays.
void run_client(std::uint16_t port, const Options& opts, std::size_t phase,
                std::size_t index, ClientTally& tally) {
  try {
    SockClient c(port);
    tally.e2e_ms.reserve(opts.jobs_per_client);
    for (std::size_t j = 1; j <= opts.jobs_per_client; ++j) {
      const std::uint64_t job_seed =
          opts.seed + phase * 1000003 + index * 1009 + j;
      const std::string submit =
          "WORKLOAD 0 " + std::to_string(opts.deadline_ms) + " " +
          std::to_string(job_seed) + " " + std::to_string(opts.tasks) + " " +
          std::to_string(opts.machines) + " " + std::to_string(job_seed);
      support::WallTimer t;
      std::string reply;
      for (;;) {
        c.send_line(submit);
        reply = c.read_line();
        if (reply.compare(0, 19, "ERR BUSY queue full") != 0) break;
        ++tally.rejected;
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(opts.backoff_ms));
      }
      const std::string expected_job = "JOB " + std::to_string(j);
      if (reply != expected_job)
        throw std::runtime_error("expected '" + expected_job + "', got '" +
                                 reply + "'");
      c.send_line("WAIT " + std::to_string(j));
      const std::string result = c.read_line();
      const std::string expected_prefix = "RESULT id=" + std::to_string(j) + " ";
      if (result.compare(0, expected_prefix.size(), expected_prefix) != 0)
        throw std::runtime_error("bad RESULT for job " + std::to_string(j) +
                                 ": '" + result + "'");
      if (result.find(" status=done ") != std::string::npos)
        ++tally.done;
      else if (result.find(" status=failed ") != std::string::npos)
        ++tally.failed;
      else
        throw std::runtime_error("non-terminal RESULT for job " +
                                 std::to_string(j) + ": '" + result + "'");
      tally.e2e_ms.push_back(t.elapsed_seconds() * 1e3);
      ++tally.served;
    }
    c.send_line("QUIT");
    if (c.read_line() != "BYE") throw std::runtime_error("missing BYE");
  } catch (const std::exception& e) {
    tally.error = e.what();
  }
}

/// Robustness counters of one metrics snapshot, for per-phase deltas.
struct RobustCounters {
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t stalled = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
};

RobustCounters counters(const service::ServiceMetrics::Snapshot& s) {
  RobustCounters c;
  c.failed = s.failed;
  c.retries = s.retries;
  c.quarantined = s.quarantined;
  c.stalled = s.stalled;
  c.worker_restarts = s.worker_restarts;
  c.shed = s.shed;
  c.rejected = s.rejected;
  return c;
}

RobustCounters delta(const RobustCounters& a, const RobustCounters& b) {
  RobustCounters d;
  d.failed = b.failed - a.failed;
  d.retries = b.retries - a.retries;
  d.quarantined = b.quarantined - a.quarantined;
  d.stalled = b.stalled - a.stalled;
  d.worker_restarts = b.worker_restarts - a.worker_restarts;
  d.shed = b.shed - a.shed;
  d.rejected = b.rejected - a.rejected;
  return d;
}

struct PhaseResult {
  std::string name;
  std::size_t served = 0;
  std::size_t done = 0;
  std::size_t failed_jobs = 0;  ///< client-observed status=failed
  std::size_t rejected = 0;
  std::size_t broken = 0;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  RobustCounters d;  ///< service counter deltas across the phase
};

PhaseResult run_phase(const char* name, std::uint16_t port,
                      const Options& opts, std::size_t phase_index,
                      service::SchedulerService& svc) {
  const RobustCounters before = counters(svc.metrics());
  std::vector<ClientTally> tallies(opts.clients);
  support::WallTimer wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(opts.clients);
    for (std::size_t i = 0; i < opts.clients; ++i)
      threads.emplace_back(run_client, port, std::cref(opts), phase_index, i,
                           std::ref(tallies[i]));
    for (auto& t : threads) t.join();
  }
  PhaseResult p;
  p.name = name;
  p.wall_seconds = wall.elapsed_seconds();
  std::vector<double> e2e;
  for (std::size_t i = 0; i < tallies.size(); ++i) {
    p.served += tallies[i].served;
    p.done += tallies[i].done;
    p.failed_jobs += tallies[i].failed;
    p.rejected += tallies[i].rejected;
    e2e.insert(e2e.end(), tallies[i].e2e_ms.begin(), tallies[i].e2e_ms.end());
    if (!tallies[i].error.empty()) {
      ++p.broken;
      std::fprintf(stderr, "[%s] client %zu transcript violation: %s\n", name,
                   i, tallies[i].error.c_str());
    }
  }
  p.jobs_per_second = p.wall_seconds > 0.0
                          ? static_cast<double>(p.served) / p.wall_seconds
                          : 0.0;
  p.p50_ms = support::quantile(e2e, 0.50);
  p.p99_ms = support::quantile(e2e, 0.99);
  p.d = delta(before, counters(svc.metrics()));
  return p;
}

void print_phase(const PhaseResult& p) {
  std::printf(
      "%-8s %4zu served (%4zu done, %3zu failed) %4zu busy in %6.2f s -> "
      "%8.1f jobs/s | p50 %7.2f ms p99 %7.2f ms | retries %llu quarantined "
      "%llu stalled %llu restarts %llu | %zu broken\n",
      p.name.c_str(), p.served, p.done, p.failed_jobs, p.rejected,
      p.wall_seconds, p.jobs_per_second, p.p50_ms, p.p99_ms,
      static_cast<unsigned long long>(p.d.retries),
      static_cast<unsigned long long>(p.d.quarantined),
      static_cast<unsigned long long>(p.d.stalled),
      static_cast<unsigned long long>(p.d.worker_restarts), p.broken);
}

void write_json(const char* path, const Options& opts,
                const std::vector<PhaseResult>& phases, double recovery_ratio,
                const service::ServiceMetrics::Snapshot& snap, bool pass) {
  std::FILE* out = std::fopen(path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"config\": {\"clients\": %zu, \"jobs_per_client\": %zu, "
               "\"workers\": %zu, \"queue_capacity\": %zu, \"tasks\": %zu, "
               "\"machines\": %zu, \"deadline_ms\": %.3f, \"policy\": \"%s\", "
               "\"min_recovery_ratio\": %.3f},\n",
               opts.clients, opts.jobs_per_client, opts.workers,
               opts.queue_capacity, opts.tasks, opts.machines, opts.deadline_ms,
               opts.policy.c_str(), opts.min_recovery_ratio);
  std::fprintf(out, "  \"phases\": [\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    std::fprintf(
        out,
        "    {\"phase\": \"%s\", \"served\": %zu, \"done\": %zu, "
        "\"failed\": %zu, \"busy_rejections\": %zu, \"broken\": %zu, "
        "\"wall_seconds\": %.4f, \"jobs_per_sec\": %.2f, "
        "\"e2e_p50_ms\": %.4f, \"e2e_p99_ms\": %.4f, "
        "\"retries\": %llu, \"quarantined\": %llu, \"stalled\": %llu, "
        "\"worker_restarts\": %llu, \"shed\": %llu}%s\n",
        p.name.c_str(), p.served, p.done, p.failed_jobs, p.rejected, p.broken,
        p.wall_seconds, p.jobs_per_second, p.p50_ms, p.p99_ms,
        static_cast<unsigned long long>(p.d.retries),
        static_cast<unsigned long long>(p.d.quarantined),
        static_cast<unsigned long long>(p.d.stalled),
        static_cast<unsigned long long>(p.d.worker_restarts),
        static_cast<unsigned long long>(p.d.shed),
        i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"recovery_ratio\": %.4f,\n", recovery_ratio);
  std::fprintf(out,
               "  \"service\": {\"submitted\": %llu, \"completed\": %llu, "
               "\"failed\": %llu, \"cancelled\": %llu, \"retries\": %llu, "
               "\"quarantined\": %llu, \"stalled\": %llu, "
               "\"worker_restarts\": %llu},\n",
               static_cast<unsigned long long>(snap.submitted),
               static_cast<unsigned long long>(snap.completed),
               static_cast<unsigned long long>(snap.failed),
               static_cast<unsigned long long>(snap.cancelled),
               static_cast<unsigned long long>(snap.retries),
               static_cast<unsigned long long>(snap.quarantined),
               static_cast<unsigned long long>(snap.stalled),
               static_cast<unsigned long long>(snap.worker_restarts));
  std::fprintf(out, "  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  support::Cli cli(
      "bench_chaos — fault-injection soak of retry/quarantine, the stall "
      "watchdog and worker respawn (calm -> storm -> recover phases)");
  cli.option("clients", &opts.clients, "concurrent socket clients per phase")
      .option("jobs-per-client", &opts.jobs_per_client,
              "closed-loop jobs per client per phase")
      .option("workers", &opts.workers, "solver workers")
      .option("queue", &opts.queue_capacity, "queue capacity")
      .option("tasks", &opts.tasks, "workload tasks per job")
      .option("machines", &opts.machines, "workload machines per job")
      .option("deadline-ms", &opts.deadline_ms,
              "per-job deadline (also scales the stall threshold)")
      .option("seed", &opts.seed, "master seed")
      .option("policy", &opts.policy,
              {"auto", "minmin", "sufferage", "cga", "pacga"},
              "solve policy for every job")
      .option("backoff-ms", &opts.backoff_ms,
              "client retry pause after ERR BUSY")
      .option("min-recovery-ratio", &opts.min_recovery_ratio,
              "recover-phase throughput must reach this fraction of calm")
      .flag("full", &opts.full, "4x clients, 4x jobs per client");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (opts.full) {
    opts.clients *= 4;
    opts.jobs_per_client *= 4;
  }
  if (opts.clients == 0 || opts.jobs_per_client == 0) {
    std::fprintf(stderr, "need clients >= 1 and jobs-per-client >= 1\n");
    return 2;
  }

  service::ServiceOptions service_options;
  service_options.workers = support::clamp_threads(opts.workers);
  // The cache stays ON (distinct per-job seeds keep the solves real, but
  // cache.lookup/cache.insert must be live sites for the storm) ...
  service_options.cache_capacity = 512;
  service_options.queue_capacity = opts.queue_capacity;
  // ... and supervision is tightened so the wedge storm resolves within
  // the phase: stall after max(150 ms, 2 x deadline), 10 ms ticks.
  service_options.supervision.stall_factor = 2.0;
  service_options.supervision.min_stall_ms = 150.0;
  service_options.supervision.poll_ms = 10.0;
  service::SchedulerService svc(service_options);

  net::ServerOptions server_options;
  server_options.max_connections = opts.clients + 16;
  server_options.protocol.policy = opts.policy;
  // Two retry attempts: the every=5 solver storm makes most first
  // failures succeed on retry, with the occasional triple-hit quarantine.
  server_options.protocol.max_retries = 2;
  net::Server server(svc, server_options);
  std::thread loop([&server] { server.run(); });

  arm_storm(false);  // registers the sites; also clears any env leftovers
  std::vector<PhaseResult> phases;
  phases.push_back(run_phase("calm", server.port(), opts, 0, svc));
  print_phase(phases.back());

  arm_storm(true);
  phases.push_back(run_phase("storm", server.port(), opts, 1, svc));
  print_phase(phases.back());

  arm_storm(false);  // releases wedged workers; superseded threads exit
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  phases.push_back(run_phase("recover", server.port(), opts, 2, svc));
  print_phase(phases.back());

  server.stop();
  loop.join();
  svc.drain();
  const auto snap = svc.metrics();
  svc.shutdown();

  const double recovery_ratio =
      phases[0].jobs_per_second > 0.0
          ? phases[2].jobs_per_second / phases[0].jobs_per_second
          : 0.0;

  // --- the invariants --------------------------------------------------------
  std::size_t broken = 0, served = 0;
  for (const PhaseResult& p : phases) {
    broken += p.broken;
    served += p.served;
  }
  const std::size_t expected = 3 * opts.clients * opts.jobs_per_client;
  bool pass = true;
  if (broken > 0 || served != expected) {
    std::fprintf(stderr, "FAIL: served %zu of %zu with %zu broken clients\n",
                 served, expected, broken);
    pass = false;
  }
  if (snap.submitted != snap.completed + snap.failed + snap.cancelled) {
    std::fprintf(stderr,
                 "FAIL: non-terminal accounting: submitted %llu != "
                 "completed %llu + failed %llu + cancelled %llu\n",
                 static_cast<unsigned long long>(snap.submitted),
                 static_cast<unsigned long long>(snap.completed),
                 static_cast<unsigned long long>(snap.failed),
                 static_cast<unsigned long long>(snap.cancelled));
    pass = false;
  }
  if (phases[1].d.retries == 0 && phases[1].d.failed == 0) {
    std::fprintf(stderr, "FAIL: the storm never bit (no retries, no "
                         "failures) — failpoints dead?\n");
    pass = false;
  }
  if (recovery_ratio < opts.min_recovery_ratio) {
    std::fprintf(stderr,
                 "FAIL: recover throughput %.1f jobs/s is %.2fx calm "
                 "(%.1f jobs/s), need >= %.2fx\n",
                 phases[2].jobs_per_second, recovery_ratio,
                 phases[0].jobs_per_second, opts.min_recovery_ratio);
    pass = false;
  }

  std::printf("chaos soak: recovery ratio %.2fx (need >= %.2fx) %s\n",
              recovery_ratio, opts.min_recovery_ratio,
              pass ? "PASS" : "FAIL");
  write_json("BENCH_chaos.json", opts, phases, recovery_ratio, snap, pass);
  return pass ? 0 : 1;
}
