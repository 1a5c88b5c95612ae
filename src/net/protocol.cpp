#include "net/protocol.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "batch/workload.hpp"
#include "etc/suite.hpp"
#include "service/exposition.hpp"
#include "support/failpoints.hpp"
#include "support/log.hpp"

namespace pacga::net {

namespace {

/// Comma-joins a vector of counters (no spaces: one STATS token per field).
template <typename T>
std::string join_counts(const std::vector<T>& v) {
  std::ostringstream out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out << ',';
    out << v[i];
  }
  return out.str();
}

std::string stats_line(const service::SchedulerService& svc) {
  const service::ServiceMetrics::Snapshot s = svc.metrics();
  std::ostringstream out;
  // Append-only: scripts key on leading fields by prefix, and greps anchor
  // the robustness block at the end of the line, so a new field goes at
  // the end of its block. admission_hits closes the per-worker block:
  // sum(worker_completed) + admission_hits == completed.
  out << "STATS submitted=" << s.submitted << " completed=" << s.completed
      << " cancelled=" << s.cancelled << " failed=" << s.failed
      << " rejected=" << s.rejected << " reschedules=" << s.reschedules
      << " cache_hits=" << s.cache_hits
      << " deadline_misses=" << s.deadline_misses
      << " jobs_per_sec=" << s.jobs_per_second()
      << " deadline_miss_rate=" << s.deadline_miss_rate()
      << " cache_hit_rate=" << s.cache_hit_rate()
      << " mean_wait_ms=" << s.queue_wait_hist.mean_ms()
      << " mean_solve_ms=" << s.solve_hist.mean_ms()
      << " workers=" << s.worker_completed.size()
      << " shards=" << svc.shards() << " steals=" << svc.queue_steals()
      << " arena_builds=" << s.arena_builds
      << " shard_depth=" << join_counts(svc.shard_depths())
      << " shard_hits=" << join_counts(svc.cache().stripe_hits())
      << " worker_completed=" << join_counts(s.worker_completed)
      << " admission_hits=" << s.admission_hits;
  // Latency distribution fields (newest appendix). All through
  // format_metric: an empty distribution's min/max/quantiles are NaN,
  // which must print as `-`, never "nan".
  const auto& fm = service::format_metric;
  out << " min_wait_ms=" << fm(s.queue_wait_hist.min_ms(), 3)
      << " max_wait_ms=" << fm(s.queue_wait_hist.max_ms(), 3)
      << " min_solve_ms=" << fm(s.solve_hist.min_ms(), 3)
      << " max_solve_ms=" << fm(s.solve_hist.max_ms(), 3)
      << " p50_wait_ms=" << fm(s.queue_wait_hist.quantile_ms(0.5), 3)
      << " p90_wait_ms=" << fm(s.queue_wait_hist.quantile_ms(0.9), 3)
      << " p99_wait_ms=" << fm(s.queue_wait_hist.quantile_ms(0.99), 3)
      << " p999_wait_ms=" << fm(s.queue_wait_hist.quantile_ms(0.999), 3)
      << " p50_solve_ms=" << fm(s.solve_hist.quantile_ms(0.5), 3)
      << " p90_solve_ms=" << fm(s.solve_hist.quantile_ms(0.9), 3)
      << " p99_solve_ms=" << fm(s.solve_hist.quantile_ms(0.99), 3)
      << " p999_solve_ms=" << fm(s.solve_hist.quantile_ms(0.999), 3)
      << " p50_e2e_ms=" << fm(s.e2e_hist.quantile_ms(0.5), 3)
      << " p99_e2e_ms=" << fm(s.e2e_hist.quantile_ms(0.99), 3);
  // Robustness counters (newest appendix): retry/quarantine/watchdog/shed
  // activity. All zero on a healthy service.
  out << " retries=" << s.retries << " quarantined=" << s.quarantined
      << " stalled=" << s.stalled << " worker_restarts=" << s.worker_restarts
      << " shed=" << s.shed;
  return out.str();
}

/// The congestion rejection, with a back-off hint derived from observed
/// solve latency times backlog depth. Scripts key on the "ERR BUSY queue
/// full" prefix; the hint is append-only.
std::string busy_line(const service::SchedulerService& svc) {
  std::ostringstream out;
  out << "ERR BUSY queue full retry_ms="
      << static_cast<long long>(std::llround(svc.retry_hint_ms()));
  return out.str();
}

/// Failure reasons travel in a space-delimited line; whitespace inside the
/// reason (exception texts) must not break tokenization.
std::string sanitize_token(std::string s) {
  for (char& c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return s;
}

std::string event_line(const dynamic::RescheduleSession& session,
                       const dynamic::RepairStats& stats) {
  std::ostringstream out;
  out.precision(10);
  out << "EVENT kind=" << dynamic::to_string(stats.kind)
      << " orphans=" << stats.orphaned << " committed=" << stats.committed
      << " tasks=" << session.tasks() << " machines=" << session.machines()
      << " makespan=" << session.schedule().makespan();
  return out.str();
}

/// Reads an optional trailing numeric argument. Returns false when the
/// stream is exhausted; throws std::invalid_argument naming `what` when a
/// token is present but does not parse completely as a T.
template <typename T>
bool parse_optional(std::istringstream& in, const char* what, T& out) {
  std::string token;
  if (!(in >> token)) return false;
  std::istringstream value(token);
  // istream extraction into an unsigned target accepts "-40" by modulo
  // wraparound; reject the sign explicitly.
  const bool bad_sign =
      std::is_unsigned_v<T> && !token.empty() && token.front() == '-';
  if (bad_sign || !(value >> out) || value.peek() != EOF)
    throw std::invalid_argument(std::string("malformed ") + what + " " +
                                token);
  return true;
}

/// Parses the EVENT sub-command into a GridEvent; throws on bad input.
dynamic::GridEvent parse_event(std::istringstream& in) {
  std::string what;
  if (!(in >> what))
    throw std::invalid_argument(
        "EVENT expects DOWN|UP|SLOW|ARRIVE|CANCEL|COMMIT ...");
  if (what == "DOWN") {
    std::size_t m = 0;
    if (!(in >> m)) throw std::invalid_argument("EVENT DOWN expects <machine>");
    return dynamic::machine_down(m);
  }
  if (what == "UP") {
    double mips = 0.0;
    if (!(in >> mips))
      throw std::invalid_argument("EVENT UP expects <mips> [ready]");
    double ready = 0.0;
    if (parse_optional(in, "EVENT UP ready", ready))
      return dynamic::machine_up_ready(mips, ready);
    return dynamic::machine_up(mips);
  }
  if (what == "COMMIT") {
    double elapsed = 0.0;
    if (!(in >> elapsed))
      throw std::invalid_argument("EVENT COMMIT expects <elapsed>");
    return dynamic::epoch_commit(elapsed);
  }
  if (what == "SLOW") {
    std::size_t m = 0;
    double factor = 0.0;
    if (!(in >> m >> factor))
      throw std::invalid_argument("EVENT SLOW expects <machine> <factor>");
    return dynamic::machine_slowdown(m, factor);
  }
  if (what == "ARRIVE") {
    double workload = 0.0;
    if (!(in >> workload))
      throw std::invalid_argument("EVENT ARRIVE expects <workload>");
    return dynamic::task_arrival(workload);
  }
  if (what == "CANCEL") {
    std::size_t t = 0;
    if (!(in >> t)) throw std::invalid_argument("EVENT CANCEL expects <task>");
    return dynamic::task_cancel(t);
  }
  throw std::invalid_argument("unknown EVENT kind " + what);
}

}  // namespace

Session::Session(service::SchedulerService& svc, const ProtocolOptions& opts,
                 InstancePool& instances, bool fail_fast)
    : svc_(svc), opts_(opts), instances_(instances), fail_fast_(fail_fast) {}

std::uint64_t Session::map_job(service::JobId global_id) {
  const std::uint64_t local = next_local_++;
  local_to_global_.emplace(local, global_id);
  global_to_local_.emplace(global_id, local);
  return local;
}

std::uint64_t Session::local_of(service::JobId global_id) const {
  const auto it = global_to_local_.find(global_id);
  return it == global_to_local_.end() ? 0 : it->second;
}

std::string Session::result_line(std::uint64_t local_id,
                                 const service::JobResult& r) const {
  std::ostringstream out;
  out.precision(10);
  out << "RESULT id=" << local_id
      << " status=" << service::to_string(r.status)
      << " makespan=" << r.makespan
      << " policy=" << service::to_string(r.policy_used)
      << " cache_hit=" << (r.cache_hit ? 1 : 0)
      << " warm_started=" << (r.warm_started ? 1 : 0)
      << " deadline_missed=" << (r.deadline_missed ? 1 : 0)
      << " generations=" << r.generations
      << " evaluations=" << r.evaluations;
  if (!opts_.deterministic) {
    out << " wait_ms=" << r.queue_wait_seconds * 1e3
        << " solve_ms=" << r.solve_seconds * 1e3;
  }
  // Failure-only appendix: RESULT lines for successful jobs stay
  // byte-identical to the pre-failpoint protocol (replay determinism);
  // a failed or retried job carries its story at the end of the line.
  if (r.retries > 0) out << " retries=" << r.retries;
  if (r.status == service::JobStatus::kFailed && !r.error.empty())
    out << " error=" << sanitize_token(r.error);
  return out.str();
}

std::string Session::finish_wait(service::JobId global_id,
                                 const service::JobResult& result) {
  return result_line(local_of(global_id), result);
}

std::string Session::finish_reschedule(service::JobId global_id,
                                       const service::JobResult& result) {
  const bool adopted = result.status == service::JobStatus::kDone &&
                       dynamic_ && dynamic_->adopt(result.assignment);
  return result_line(local_of(global_id), result) +
         " adopted=" + (adopted ? "1" : "0");
}

std::string Session::trace(std::istringstream& in) {
  std::string target;
  if (!(in >> target)) return "ERR TRACE expects <job-id> or DUMP <file>";
  if (target == "DUMP") {
    std::string path;
    if (!(in >> path)) return "ERR TRACE DUMP expects a file path";
    std::ofstream file(path);
    if (!file) return "ERR TRACE DUMP cannot open " + path;
    svc_.trace().write_chrome_trace(file);
    // A full disk or I/O error surfaces on the stream state, not as an
    // exception — an unchecked dump would answer success over a truncated
    // (unloadable) trace file.
    file.flush();
    if (!file.good()) return "ERR TRACE DUMP write failed " + path;
    std::ostringstream out;
    out << "TRACE dump=" << path
        << " spans=" << svc_.trace().snapshot().size();
    return out.str();
  }
  std::uint64_t id = 0;
  std::istringstream value(target);
  if (!(value >> id) || value.peek() != EOF)
    return "ERR TRACE expects <job-id> or DUMP <file>";
  // An id never issued on this session has no spans to show: same answer
  // as for a job the flight recorder has wrapped past.
  const auto it = local_to_global_.find(id);
  const std::vector<obs::SpanEvent> spans =
      it == local_to_global_.end() ? std::vector<obs::SpanEvent>{}
                                   : svc_.trace().job_spans(it->second);
  std::ostringstream out;
  out << "TRACE id=" << id << " spans=" << spans.size();
  if (!spans.empty()) out << ' ' << obs::format_job_timeline(spans);
  return out.str();
}

std::optional<service::JobId> Session::admit(service::JobSpec spec,
                                            bool reschedule) {
  if (fail_fast_)
    return reschedule ? svc_.try_submit_reschedule(std::move(spec))
                      : svc_.try_submit(std::move(spec));
  return reschedule ? svc_.submit_reschedule(std::move(spec))
                    : svc_.submit(std::move(spec));
}

std::string Session::submit_job(std::istringstream& in, const std::string& cmd,
                                Reply& reply) {
  int priority = 0;
  double deadline_ms = 0.0;
  std::uint64_t seed = 1;
  if (!(in >> priority >> deadline_ms >> seed))
    return "ERR " + cmd + " expects <priority> <deadline_ms> <seed> ...";
  service::JobSpec spec;
  spec.priority = priority;
  spec.deadline_ms =
      deadline_ms > 0.0 ? deadline_ms : opts_.default_deadline_ms;
  spec.seed = seed;
  spec.policy = service::parse_policy(opts_.policy);
  spec.max_retries = opts_.max_retries;
  if (cmd == "INSTANCE") {
    std::string name;
    if (!(in >> name)) return "ERR INSTANCE expects an instance name";
    auto it = instances_.find(name);
    if (it == instances_.end()) {
      it = instances_
               .emplace(name, std::make_shared<const etc::EtcMatrix>(
                                  etc::generate_by_name(name)))
               .first;
    }
    spec.etc = it->second;
  } else if (cmd == "WORKLOAD") {
    batch::WorkloadSpec w;
    if (!(in >> w.tasks >> w.machines >> w.seed))
      return "ERR WORKLOAD expects <tasks> <machines> <wseed>";
    spec.etc =
        std::make_shared<const etc::EtcMatrix>(batch::make_workload_etc(w));
  } else {
    std::size_t tasks = 0, machines = 0;
    if (!(in >> tasks >> machines))
      return "ERR SUBMIT expects <tasks> <machines> <values...>";
    std::vector<double> data(tasks * machines);
    for (auto& v : data) {
      if (!(in >> v)) return "ERR SUBMIT: too few ETC values";
    }
    spec.etc = std::make_shared<const etc::EtcMatrix>(tasks, machines,
                                                      std::move(data));
  }
  const std::optional<service::JobId> id = admit(std::move(spec), false);
  if (!id) return busy_line(svc_);
  reply.submitted = *id;
  return "JOB " + std::to_string(map_job(*id));
}

std::string Session::reschedule(std::istringstream& in, Reply& reply) {
  if (!dynamic_) return "ERR RESCHEDULE requires a DYNAMIC session";
  int priority = 0;
  double deadline_ms = 0.0;
  std::uint64_t seed = 1;
  if (!(in >> priority >> deadline_ms >> seed))
    return "ERR RESCHEDULE expects <priority> <deadline_ms> <seed> "
           "[max_generations]";
  // Optional; absent leaves the deadline in charge of the budget.
  std::uint64_t max_generations = 0;
  (void)parse_optional(in, "RESCHEDULE max_generations", max_generations);
  service::JobSpec spec = dynamic_->make_reschedule_spec(
      priority, deadline_ms > 0.0 ? deadline_ms : opts_.default_deadline_ms,
      seed);
  spec.policy = service::parse_policy(opts_.policy);
  spec.max_generations = max_generations;
  spec.max_retries = opts_.max_retries;
  const std::optional<service::JobId> id = admit(std::move(spec), true);
  if (!id) return busy_line(svc_);
  map_job(*id);
  reply.submitted = *id;
  reply.reschedule_on = *id;
  return "";
}

std::string Session::handle_checked(std::istringstream& in,
                                    const std::string& cmd, Reply& reply) {
  if (cmd == "QUIT") {
    reply.quit = true;
    return "BYE";
  }
  if (cmd == "STATS") return stats_line(svc_);
  if (cmd == "METRICS") {
    // The protocol's one multi-line response; `# EOF` marks the end so a
    // pipe client knows when to stop reading.
    std::ostringstream out;
    service::write_prometheus(out, svc_.metrics());
    std::string text = out.str();
    if (!text.empty() && text.back() == '\n') text.pop_back();
    return text;
  }
  if (cmd == "TRACE") return trace(in);
  if (cmd == "FAILPOINT") {
    // Arms / reconfigures one fault-injection site (docs/ROBUSTNESS.md).
    // Answers ERR when the spec is malformed.
    std::string name, spec;
    if (!(in >> name >> spec)) return "ERR FAILPOINT expects <name> <spec>";
    try {
      support::failpoints().configure(name, spec);
    } catch (const std::exception& e) {
      return std::string("ERR FAILPOINT ") + e.what();
    }
    return "FAILPOINT " + name + " " + spec;
  }
  if (cmd == "DRAIN") {
    // Per-session drain: the socket edge must not let one tenant stall the
    // loop on every other tenant's backlog.
    reply.drain = true;
    return "";
  }
  if (cmd == "WAIT") {
    std::uint64_t id = 0;
    if (!(in >> id)) return "ERR WAIT expects a job id";
    const auto it = local_to_global_.find(id);
    if (it == local_to_global_.end())
      return "ERR SchedulerService::wait: unknown job id";
    service::JobResult r;
    switch (svc_.poll_result(it->second, r)) {
      case service::SchedulerService::Poll::kReady:
        reply.released = it->second;
        return result_line(id, r);
      case service::SchedulerService::Poll::kPending:
        reply.wait_on = it->second;
        return "";
      case service::SchedulerService::Poll::kUnknown:
      default:
        return "ERR SchedulerService::wait: unknown job id";
    }
  }
  if (cmd == "CANCEL") {
    std::uint64_t id = 0;
    if (!(in >> id)) return "ERR CANCEL expects a job id";
    const auto it = local_to_global_.find(id);
    const bool ok = it != local_to_global_.end() && svc_.cancel(it->second);
    std::ostringstream out;
    out << "CANCELLED " << id << ' ' << (ok ? 1 : 0);
    return out.str();
  }
  if (cmd == "DYNAMIC") {
    batch::WorkloadSpec w;
    if (!(in >> w.tasks >> w.machines >> w.seed))
      return "ERR DYNAMIC expects <tasks> <machines> <wseed>";
    const auto policy = opts_.repair_policy == "sufferage"
                            ? dynamic::RepairPolicy::kSufferage
                            : dynamic::RepairPolicy::kMinMin;
    dynamic_.emplace(w, policy);
    std::ostringstream out;
    out.precision(10);
    out << "DYNAMIC tasks=" << dynamic_->tasks()
        << " machines=" << dynamic_->machines()
        << " makespan=" << dynamic_->schedule().makespan();
    return out.str();
  }
  if (cmd == "EVENT") {
    if (!dynamic_) return "ERR EVENT requires a DYNAMIC session";
    const dynamic::GridEvent e = parse_event(in);
    const dynamic::RepairStats stats = dynamic_->apply(e);
    return event_line(*dynamic_, stats);
  }
  if (cmd == "RESCHEDULE") return reschedule(in, reply);
  if (cmd == "REPLAY") {
    if (!dynamic_) return "ERR REPLAY requires a DYNAMIC session";
    std::string path;
    if (!(in >> path)) return "ERR REPLAY expects a file path";
    std::ifstream file(path);
    if (!file) return "ERR REPLAY cannot open " + path;
    std::string event_line_text;
    std::size_t applied = 0;
    std::size_t lineno = 0;
    while (std::getline(file, event_line_text)) {
      ++lineno;
      if (event_line_text.empty()) continue;
      try {
        dynamic_->apply(dynamic::parse_event(event_line_text));
      } catch (const std::exception& e) {
        std::ostringstream out;
        out << "ERR REPLAY " << path << ":" << lineno << ": " << e.what();
        return out.str();
      }
      ++applied;
    }
    std::ostringstream out;
    out.precision(10);
    out << "REPLAY events=" << applied << " tasks=" << dynamic_->tasks()
        << " machines=" << dynamic_->machines()
        << " makespan=" << dynamic_->schedule().makespan();
    return out.str();
  }
  if (cmd == "INSTANCE" || cmd == "WORKLOAD" || cmd == "SUBMIT")
    return submit_job(in, cmd, reply);
  return "ERR unknown command " + cmd;
}

Reply Session::handle(const std::string& line) {
  Reply reply;
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd)) return reply;  // blank line: no response
  try {
    reply.text = handle_checked(in, cmd, reply);
  } catch (const std::exception& e) {
    reply.text = std::string("ERR ") + e.what();
    // A request that threw must not leave a half-built continuation.
    reply.submitted.reset();
    reply.released.reset();
    reply.wait_on.reset();
    reply.reschedule_on.reset();
    reply.drain = false;
  }
  return reply;
}

void serve_stream(Session& session, std::istream& in, std::ostream& out) {
  service::SchedulerService& svc = session.service();
  std::string line;
  bool quit = false;
  while (!quit && std::getline(in, line)) {
    const Reply reply = session.handle(line);
    quit = reply.quit;
    std::string text = reply.text;
    try {
      if (reply.wait_on) {
        text = session.finish_wait(*reply.wait_on, svc.wait(*reply.wait_on));
      } else if (reply.reschedule_on) {
        text = session.finish_reschedule(*reply.reschedule_on,
                                         svc.wait(*reply.reschedule_on));
      } else if (reply.drain) {
        svc.drain();
        text = "DRAINED";
      }
    } catch (const std::exception& e) {
      // Same contract as Session::handle: a failed request answers ERR,
      // it never ends the loop.
      text = std::string("ERR ") + e.what();
    }
    // Diagnostics go to the logger (stderr, off by default), never `out`:
    // the protocol stream must stay parseable.
    if (text.compare(0, 4, "ERR ") == 0)
      support::log_warn() << "request failed: " << line << " -> " << text;
    if (!text.empty()) out << text << std::endl;  // flush: clients read live
  }
}

}  // namespace pacga::net
