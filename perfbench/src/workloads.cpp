#include "workloads.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "etc/braun.hpp"
#include "etc/suite.hpp"
#include "heuristics/minmin.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace etc = pacga::etc;
namespace service = pacga::service;

namespace {

double ms_between(std::uint64_t a_ns, std::uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

/// One report line per failed check on stderr, capped so a systematic
/// failure cannot flood the output.
void report_failure(const std::string& what) {
  static int reported = 0;
  if (reported++ < 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  return pacga::support::hash_mix(pacga::support::hash_mix(seed, a), b);
}

// ---- engine arms ----------------------------------------------------------

std::string class_name(std::size_t index, std::uint64_t seed) {
  const std::vector<std::string> classes = etc::braun_suite_names();
  const std::string& base = classes[index % classes.size()];
  return base.substr(0, base.find('.') + 1) + std::to_string(seed);
}

}  // namespace

etc::EtcMatrix make_arm_instance(const Arm& arm, std::size_t i,
                                 std::uint64_t seed) {
  etc::GenSpec spec =
      *etc::parse_instance_name(class_name(arm.first_class + i, seed));
  spec.tasks = arm.tasks;
  spec.machines = arm.machines;
  return etc::generate(spec);
}

ArmInputs make_arm_inputs(const Arm& arm, std::uint64_t seed) {
  ArmInputs in;
  for (std::size_t i = 0; i < arm.instances; ++i) {
    in.etc.push_back(make_arm_instance(arm, i, seed));
    in.minmin.push_back(pacga::heur::min_min(in.etc.back()).makespan());
  }
  return in;
}

ArmRun run_arm(const Arm& arm, const ArmInputs& in, std::size_t threads,
               double seconds_per_instance, std::uint64_t seed, Tally& tally,
               SpanLog& spans) {
  ArmRun run;
  run.thread_evals.assign(threads, 0);
  run.slices.resize(in.etc.size());
  LatencyHist* sweeps = nullptr;
  double previous = 0.0;
  const pacga::cga::GenerationObserver observer =
      [&](const pacga::cga::GenerationEvent& e) {
        sweeps->add((e.elapsed_seconds - previous) * 1e3);
        previous = e.elapsed_seconds;
      };
  for (std::size_t i = 0; i < in.etc.size(); ++i) {
    pacga::cga::Config config;  // paper Table 1 defaults
    config.local_search.iterations = arm.ls_iterations;
    config.threads = threads;
    config.termination =
        pacga::cga::Termination::after_seconds(seconds_per_instance);
    config.seed = stream_seed(seed, 17, i);
    Slice& slice = run.slices[i];
    sweeps = &slice.latency;
    previous = 0.0;
    const std::int64_t span = spans.open("engine.run_parallel", i);
    const pacga::par::ParallelResult r =
        pacga::par::run_parallel(in.etc[i], config, observer);
    spans.close(span);

    slice.work = static_cast<double>(r.total_evaluations());
    slice.seconds = r.result.elapsed_seconds;
    run.evaluations += r.total_evaluations();
    run.elapsed_s += r.result.elapsed_seconds;
    for (std::size_t t = 0; t < r.threads.size() && t < threads; ++t) {
      run.thread_evals[t] += r.threads[t].evaluations;
      run.replacements += r.threads[t].replacements;
    }
    const double best = r.result.best_fitness;
    run.ratios.push_back(best / in.minmin[i]);

    std::string err =
        check_schedule(in.etc[i], r.result.best.assignment(), best);
    if (err.empty()) err = check_not_worse(best, in.minmin[i]);
    if (!err.empty())
      report_failure("instance " + std::to_string(i) + ": " + err);
    tally.record(err.empty() ? Outcome::kDone : Outcome::kWrong);
  }
  return run;
}

// ---- service_mix ----------------------------------------------------------

namespace {

/// Per shape, instances [0, kPlainInstances) serve plain jobs, drawn with a
/// quadratic skew so a few are hot (cache hits) and the rest mostly miss;
/// the remaining ones serve reschedules only, so a warm-started result
/// never lands in the cache entry a plain job reads.
constexpr std::size_t kPlainInstances = 24;
constexpr double kRescheduleShare = 0.2;
/// LRU entries across the service's cache stripes: sized so that about
/// half of all jobs hit.
constexpr std::size_t kServiceCacheEntries = 64;
constexpr double kServiceDeadlineMs = 10000.0;

struct ServiceDraw {
  std::size_t instance;
  bool reschedule;
};

ServiceDraw draw_service_job(pacga::support::Xoshiro256& rng) {
  const auto shape =
      static_cast<std::size_t>(rng.uniform_int(0, std::size(kServiceShapes) - 1));
  if (rng.uniform() < kRescheduleShare) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(
        kPlainInstances, kInstancesPerShape - 1));
    return {shape * kInstancesPerShape + k, true};
  }
  const double u = rng.uniform();
  const auto k = static_cast<std::size_t>(
      std::floor(static_cast<double>(kPlainInstances) * u * u));
  return {shape * kInstancesPerShape + k, false};
}

}  // namespace

etc::EtcMatrix make_service_instance(std::size_t s, std::size_t k,
                                     std::uint64_t seed) {
  etc::GenSpec spec = *etc::parse_instance_name(class_name(k, 0));
  spec.tasks = kServiceShapes[s].tasks;
  spec.machines = kServiceShapes[s].machines;
  spec.seed = stream_seed(seed, 31 + s, k);
  return etc::generate(spec);
}

ServiceMix::ServiceMix(std::uint64_t seed) : seed_(seed) {
  for (std::size_t s = 0; s < std::size(kServiceShapes); ++s) {
    for (std::size_t k = 0; k < kInstancesPerShape; ++k) {
      auto m = std::make_shared<const etc::EtcMatrix>(
          make_service_instance(s, k, seed));
      const pacga::sched::Schedule mm = pacga::heur::min_min(*m);
      minmin_.push_back(mm.makespan());
      minmin_assignment_.emplace_back(mm.assignment().begin(),
                                      mm.assignment().end());
      etc_.push_back(std::move(m));
    }
  }
  service::ServiceOptions options;
  options.workers = kServiceWorkers;
  options.cache_capacity = kServiceCacheEntries;
  svc_ = std::make_unique<service::SchedulerService>(options);

  Tally warm;
  std::vector<SpanLog> no_spans;
  run(0.3, 0, warm, no_spans);
  if (warm.failed() != 0)
    throw std::runtime_error("service_mix warm-up failed its checks");
}

ServiceMixRun ServiceMix::run(double seconds, std::uint64_t stream,
                              Tally& tally, std::vector<SpanLog>& spans) {
  struct ClientOut {
    std::vector<Slice> slices = std::vector<Slice>(kTimeSlices);
    double ratio_sum = 0.0;
    std::uint64_t completed = 0;
    std::vector<ServiceRecord> jobs;
    Tally tally;
  };
  const bool traced = !spans.empty();
  std::vector<ClientOut> outs(kServiceClients);
  const auto before = svc_->metrics();
  const std::uint64_t steals_before = svc_->queue_steals();
  const std::uint64_t start = now_ns();
  const std::uint64_t window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t end = start + window_ns;

  const auto client = [&](std::size_t c) {
    pacga::support::Xoshiro256 rng(stream_seed(seed_, 1000 + stream, c));
    SpanLog* log = traced ? &spans[c] : nullptr;
    ClientOut& out = outs[c];
    if (traced) out.jobs.reserve(1 << 14);
    for (std::uint64_t seq = 0; now_ns() < end; ++seq) {
      const ServiceDraw d = draw_service_job(rng);
      const std::size_t shape = d.instance / kInstancesPerShape;
      service::JobSpec spec;
      spec.etc = etc_[d.instance];
      spec.seed = 1 + d.instance;
      spec.deadline_ms = kServiceDeadlineMs;
      spec.max_generations = kServiceShapes[shape].max_generations;
      if (d.reschedule) spec.warm_start = minmin_assignment_[d.instance];

      const std::uint64_t t0 = now_ns();
      const service::JobId id = d.reschedule
                                    ? svc_->submit_reschedule(std::move(spec))
                                    : svc_->submit(std::move(spec));
      const std::uint64_t t1 = now_ns();
      const service::JobResult r = svc_->wait(id);
      const std::uint64_t t2 = now_ns();
      if (log) {
        const std::int64_t job = log->add("service.job", t0, t2, seq);
        log->add("service.submit", t0, t1, seq, job);
        log->add("service.wait", t1, t2, seq, job);
      }

      if (r.status != service::JobStatus::kDone) {
        report_failure("service job " + std::to_string(id) + " ended " +
                       service::to_string(r.status) + " " + r.error);
        out.tally.record(r.status == service::JobStatus::kCancelled
                             ? Outcome::kCancelled
                             : Outcome::kFailed);
        continue;
      }
      std::string err =
          check_schedule(*etc_[d.instance], r.assignment, r.makespan);
      if (err.empty() && d.reschedule)
        err = check_not_worse(r.makespan, minmin_[d.instance]);
      if (err.empty()) {
        // Same (instance, seed, policy) must give the same makespan whether
        // it was solved, re-solved after eviction, or served from the cache.
        const std::lock_guard<std::mutex> lock(repeats_mutex_);
        err = repeats_.check({d.instance, 1 + d.instance, d.reschedule ? 1 : 0},
                             r.makespan);
      }
      if (!err.empty()) {
        report_failure("service job " + std::to_string(id) + ": " + err);
        out.tally.record(Outcome::kWrong);
        continue;
      }
      out.tally.record(Outcome::kDone);
      Slice& slice = out.slices[std::min<std::size_t>(
          (t2 - start) * kTimeSlices / window_ns, kTimeSlices - 1)];
      slice.latency.add(ms_between(t0, t2));
      slice.work += 1.0;
      out.ratio_sum += r.makespan / minmin_[d.instance];
      ++out.completed;
      if (!traced) continue;
      ServiceRecord rec;
      rec.latency_ms = ms_between(t0, t2);
      rec.wait_ms = r.queue_wait_seconds * 1e3;
      rec.solve_ms = r.solve_seconds * 1e3;
      rec.policy = r.policy_used;
      rec.cache_hit = r.cache_hit;
      rec.reschedule = d.reschedule;
      rec.ratio = r.makespan / minmin_[d.instance];
      out.jobs.push_back(rec);
    }
  };
  {
    std::thread other(client, 1);
    client(0);
    other.join();
  }
  ServiceMixRun run;
  run.slices.resize(kTimeSlices);
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
  for (std::size_t k = 0; k < kTimeSlices; ++k) {
    run.slices[k].seconds = k + 1 < kTimeSlices
                                ? seconds / kTimeSlices
                                : wall_s - seconds * (kTimeSlices - 1) /
                                               kTimeSlices;
  }
  const auto after = svc_->metrics();
  run.delta.completed = after.completed - before.completed;
  run.delta.arena_builds = after.arena_builds - before.arena_builds;
  run.delta.steals = svc_->queue_steals() - steals_before;
  for (ClientOut& out : outs) {
    for (std::size_t k = 0; k < kTimeSlices; ++k) {
      run.slices[k].latency.merge(out.slices[k].latency);
      run.slices[k].work += out.slices[k].work;
    }
    run.ratio_sum += out.ratio_sum;
    run.completed += out.completed;
    tally.merge(out.tally);
    run.jobs.insert(run.jobs.end(), out.jobs.begin(), out.jobs.end());
  }
  return run;
}

// ---- edge_pipeline --------------------------------------------------------

namespace {

constexpr std::size_t kEdgeNames = 8;
constexpr std::size_t kEdgePayloads = 1024;
constexpr std::size_t kPayloadTasks = 32;
constexpr std::size_t kPayloadMachines = 8;
constexpr double kEdgeSubmitShare = 0.5;
/// A session keeps per-job id maps for its lifetime, so a connection is
/// replaced after this many jobs: memory then reflects per-session state,
/// not how many jobs a fast run squeezed into one session.
constexpr std::uint64_t kJobsPerConnection = 2000;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

struct EdgePipeline::Conn {
  enum class State { kIdle, kAwaitJob, kAwaitWaitError, kAwaitResult };
  int fd = -1;
  std::string inbuf;
  TranscriptCheck transcript;
  State state = State::kIdle;
  const Request* request = nullptr;
  std::uint64_t local_id = 0;
  std::uint64_t t_send = 0;
  std::uint64_t t_job = 0;
  bool broken = false;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

EdgePipeline::EdgePipeline(std::uint64_t seed) : seed_(seed) {
  // INSTANCE requests: Braun classes by name; the server memoizes each
  // matrix, so after warm-up every one is a cache hit.
  for (std::size_t i = 0; i < kEdgeNames; ++i) {
    const std::string name = class_name(i, seed);
    Request r;
    r.text = "INSTANCE 0 60000 1 " + name + "\n";
    r.makespan = format_makespan(
        pacga::heur::min_min(etc::generate_by_name(name)).makespan());
    instance_requests_.push_back(std::move(r));
  }
  // SUBMIT requests: distinct inline matrices, more than a cache stripe
  // holds, so each one is parsed, built, fingerprinted and inserted. The
  // expected makespan is computed from the values exactly as printed.
  pacga::support::Xoshiro256 rng(stream_seed(seed, 77, 0));
  std::vector<double> values(kPayloadTasks * kPayloadMachines);
  char number[32];
  for (std::size_t p = 0; p < kEdgePayloads; ++p) {
    Request r;
    r.submit = true;
    r.text = "SUBMIT 0 60000 1 " + std::to_string(kPayloadTasks) + " " +
             std::to_string(kPayloadMachines);
    for (double& v : values) {
      std::snprintf(number, sizeof number, "%.3f", rng.uniform(1.0, 3000.0));
      v = std::strtod(number, nullptr);
      r.text += ' ';
      r.text += number;
    }
    r.text += '\n';
    const etc::EtcMatrix m(kPayloadTasks, kPayloadMachines, values);
    r.makespan = format_makespan(pacga::heur::min_min(m).makespan());
    submit_requests_.push_back(std::move(r));
  }

  service::ServiceOptions options;
  options.workers = kServiceWorkers;
  svc_ = std::make_unique<service::SchedulerService>(options);
  pacga::net::ServerOptions server_options;
  server_options.protocol.policy = "minmin";
  server_ = std::make_unique<pacga::net::Server>(*svc_, server_options);
  loop_ = std::thread([this] { server_->run(); });
  try {
    for (std::size_t c = 0; c < kEdgeConnections; ++c) {
      conns_.push_back(std::make_unique<Conn>());
      conns_.back()->fd = connect_loopback(server_->port());
    }
    Tally warm;
    SpanLog no_spans(false);
    run(0.2, 0, warm, no_spans);
    if (warm.failed() != 0)
      throw std::runtime_error("edge_pipeline warm-up failed its checks");
  } catch (...) {
    stop_serving();
    throw;
  }
}

EdgePipeline::~EdgePipeline() { stop_serving(); }

void EdgePipeline::stop_serving() noexcept {
  conns_.clear();  // disconnects; the server reaps each session
  if (server_) server_->stop();
  if (loop_.joinable()) loop_.join();
  server_.reset();
  if (svc_) svc_->shutdown();
}

EdgeRun EdgePipeline::run(double seconds, std::uint64_t stream, Tally& tally,
                          SpanLog& spans) {
  EdgeRun run;
  const bool traced = spans.enabled();
  if (traced) run.jobs.reserve(1 << 18);
  pacga::support::Xoshiro256 rng(stream_seed(seed_, 2000 + stream, 0));
  const std::uint64_t start = now_ns();
  const std::uint64_t window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t end = start + window_ns;
  std::size_t name_cursor = 0;

  const auto send_next = [&](Conn& c) {
    const Request* r;
    if (rng.uniform() < kEdgeSubmitShare) {
      r = &submit_requests_[submit_cursor_++ % submit_requests_.size()];
    } else {
      // Warm-up walks every name once, in order, so the timed window only
      // ever sees memoized, cached instances.
      r = stream == 0 && name_cursor < instance_requests_.size()
              ? &instance_requests_[name_cursor++]
              : &instance_requests_[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(instance_requests_.size()) -
                           1))];
    }
    c.request = r;
    c.local_id = c.transcript.admitted() + 1;
    const std::string wire =
        r->text + "WAIT " + std::to_string(c.local_id) + "\n";
    c.t_send = now_ns();
    send_all(c.fd, wire);
    run.bytes_in += wire.size();
    c.state = Conn::State::kAwaitJob;
  };
  const auto finish_job = [&](Conn& c) {
    if (c.transcript.admitted() >= kJobsPerConnection) {
      ::close(c.fd);
      c.fd = connect_loopback(server_->port());
      c.transcript = TranscriptCheck();
    }
    if (now_ns() < end) {
      send_next(c);
    } else {
      c.state = Conn::State::kIdle;
    }
  };
  const auto fail_conn = [&](Conn& c, Outcome o, const std::string& why) {
    report_failure("edge connection " + std::to_string(c.fd) + ": " + why);
    tally.record(o);
    c.broken = true;
    c.state = Conn::State::kIdle;
  };
  const auto on_line = [&](Conn& c, std::string_view line) {
    const std::uint64_t t = now_ns();
    switch (c.state) {
      case Conn::State::kAwaitJob: {
        bool refused = false;
        const std::string err = c.transcript.on_admission(line, refused);
        if (refused) {
          ++run.refused;
          c.state = Conn::State::kAwaitWaitError;
        } else if (!err.empty()) {
          fail_conn(c, Outcome::kViolation, err);
        } else {
          c.t_job = t;
          c.state = Conn::State::kAwaitResult;
        }
        break;
      }
      case Conn::State::kAwaitWaitError:
        // The pipelined WAIT named an id that was never issued.
        tally.record(Outcome::kRefused);
        finish_job(c);
        break;
      case Conn::State::kAwaitResult: {
        ResultLine parsed;
        const std::string err = c.transcript.on_result(
            line, c.local_id, c.request->makespan, &parsed);
        if (!err.empty()) {
          fail_conn(c, parsed.status == "done" || parsed.status.empty()
                           ? Outcome::kViolation
                           : Outcome::kFailed,
                    err);
          break;
        }
        tally.record(Outcome::kDone);
        if (traced) {
          EdgeRecord rec;
          rec.submit = c.request->submit;
          rec.latency_ms = ms_between(c.t_send, t);
          rec.admit_ms = ms_between(c.t_send, c.t_job);
          rec.wait_leg_ms = ms_between(c.t_job, t);
          rec.wait_ms = parsed.wait_ms;
          rec.solve_ms = parsed.solve_ms;
          rec.cache_hit = parsed.cache_hit;
          run.jobs.push_back(rec);
          const std::int64_t job =
              spans.add("edge.job", c.t_send, t, c.local_id);
          spans.add(rec.submit ? "net.submit" : "net.instance", c.t_send,
                    c.t_job, c.local_id, job);
          spans.add("net.wait", c.t_job, t, c.local_id, job);
        }
        finish_job(c);
        break;
      }
      case Conn::State::kIdle:
        fail_conn(c, Outcome::kViolation,
                  "unexpected line '" + std::string(line) + "'");
        break;
    }
  };

  for (auto& c : conns_) {
    if (!c->broken) send_next(*c);
  }
  std::vector<pollfd> fds(conns_.size());
  char chunk[1 << 16];
  for (;;) {
    std::size_t live = 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const bool waiting = conns_[i]->state != Conn::State::kIdle;
      fds[i] = {waiting ? conns_[i]->fd : -1, POLLIN, 0};
      live += waiting ? 1 : 0;
    }
    if (live == 0) break;
    const int ready = ::poll(fds.data(), fds.size(), 10000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      for (auto& c : conns_) {
        if (c->state != Conn::State::kIdle)
          fail_conn(*c, Outcome::kViolation, "no reply within 10 s");
      }
      break;
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = *conns_[i];
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        fail_conn(c, Outcome::kViolation, "connection closed by the server");
        continue;
      }
      run.bytes_out += static_cast<std::uint64_t>(n);
      c.inbuf.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos = 0;
      for (std::size_t nl; (nl = c.inbuf.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        if (c.broken) break;
        on_line(c, std::string_view(c.inbuf).substr(pos, nl - pos));
      }
      c.inbuf.erase(0, pos);
    }
  }
  return run;
}

}  // namespace perfbench
