// Transport-independent daemon protocol handler — one Session per client.
//
// The scheduler daemon speaks a newline-delimited request/response protocol
// (docs/DAEMON_PROTOCOL.md). This class owns the verb dispatch for ONE
// client session, and every verb behaves the same on both transports:
// a WAIT, RESCHEDULE or DRAIN that cannot answer immediately returns a
// continuation in the Reply, which the transport resolves before it reads
// the session's next line. The socket edge (net/server.hpp) parks the
// connection until the service completion callback fires; the pipe loop
// (serve_stream below) simply blocks on the service.
//
// One difference remains, and it is decided in one place (admission):
// a fail-fast session (the socket edge) answers "ERR BUSY queue full" when
// the job's queue shard is full, while the pipe's session blocks in
// submit until the shard has room — it never answers ERR BUSY and never
// counts a reject.
//
// Job ids are NAMESPACED PER SESSION: responses carry local ids (1, 2, ...
// in submission order) and the session translates them to the service's
// global ids. A single client therefore sees the same transcript whether
// it is the only pipe tenant or one of hundreds of socket tenants — which
// is what makes per-client socket transcripts byte-comparable against a
// pipe run under --deterministic. (The pipe session is the service's sole
// tenant, so its local ids equal the global ids and its DRAIN is the
// service-wide drain.)
//
// Each Session owns its dynamic RescheduleSession (one live grid per
// client); the named-instance pool is shared across sessions (memoization
// is global, all access happens on the transport thread).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "dynamic/session.hpp"
#include "etc/etc_matrix.hpp"
#include "service/service.hpp"

namespace pacga::net {

/// Behavior knobs shared by both transports (set from the daemon flags).
struct ProtocolOptions {
  std::string policy = "auto";
  std::string repair_policy = "minmin";
  double default_deadline_ms = 100.0;
  /// Suppress timing fields in RESULT lines so scripted runs (REPLAY +
  /// generation-capped RESCHEDULE) are byte-identical across runs.
  bool deterministic = false;
  /// JobSpec::max_retries stamped on every job this daemon admits (the
  /// --max-retries flag): how many transient solver failures are retried
  /// with backoff before the job is quarantined. 0 = first failure is
  /// terminal (historical semantics).
  std::uint32_t max_retries = 0;
};

/// Named instances memoized across requests AND sessions: a sweep campaign
/// repeating 'INSTANCE ... u_c_hihi.0' must hit the solution cache in
/// O(tasks), not regenerate and rehash the full matrix per request. Only
/// ever touched from the transport thread.
using InstancePool =
    std::unordered_map<std::string, std::shared_ptr<const etc::EtcMatrix>>;

/// What handling one request line produced. `text` is the immediate
/// response ("" = none, e.g. a blank line or a pending continuation).
/// At most ONE of wait_on / reschedule_on / drain is set; the transport
/// must deliver that continuation before handling the session's next line
/// (responses stay in request order).
struct Reply {
  std::string text;
  bool quit = false;  ///< QUIT: pipe daemon exits, socket connection closes
  /// Global id of a job admitted by this request (the transport tracks
  /// per-connection in-flight jobs for drain/cancel-on-disconnect).
  std::optional<service::JobId> submitted;
  /// Global id whose service-side result this request consumed (a WAIT
  /// answered immediately); the transport stops tracking its handle.
  std::optional<service::JobId> released;
  /// WAIT continuation: the result of this global id, once it is terminal,
  /// answered with Session::finish_wait.
  std::optional<service::JobId> wait_on;
  /// RESCHEDULE continuation: like wait_on, answered with
  /// Session::finish_reschedule (which also adopts the improvement).
  std::optional<service::JobId> reschedule_on;
  /// DRAIN continuation: answer "DRAINED" once the session's in-flight
  /// jobs have all reached a terminal state.
  bool drain = false;
};

class Session {
 public:
  /// `fail_fast` selects admission on a full queue shard: answer
  /// "ERR BUSY queue full" (true, the socket edge) or block until the
  /// shard has room (false, the pipe). `svc`, `opts` and `instances` must
  /// outlive the session.
  Session(service::SchedulerService& svc, const ProtocolOptions& opts,
          InstancePool& instances, bool fail_fast);

  /// Handles one request line. Never throws: malformed input answers
  /// "ERR <reason>" in Reply.text.
  Reply handle(const std::string& line);

  /// Finishes a WAIT continuation: `result` is the result of the wait_on
  /// id; returns the RESULT line (with the session-local id).
  std::string finish_wait(service::JobId global_id,
                          const service::JobResult& result);

  /// Finishes a RESCHEDULE continuation: adopts an improvement into the
  /// dynamic session and returns the RESULT ... adopted= line.
  std::string finish_reschedule(service::JobId global_id,
                                const service::JobResult& result);

  /// The service this session submits to (serve_stream blocks on it).
  service::SchedulerService& service() const noexcept { return svc_; }

 private:
  std::string handle_checked(std::istringstream& in, const std::string& cmd,
                             Reply& reply);
  std::string submit_job(std::istringstream& in, const std::string& cmd,
                         Reply& reply);
  std::string reschedule(std::istringstream& in, Reply& reply);
  std::string trace(std::istringstream& in);
  /// The one transport-dependent step: admits `spec` (as a reschedule when
  /// `reschedule`), or nullopt when a fail-fast session meets a full shard.
  std::optional<service::JobId> admit(service::JobSpec spec, bool reschedule);
  /// Allocates the next session-local id for an admitted global id.
  std::uint64_t map_job(service::JobId global_id);
  /// Session-local view of a global id ("?" when unknown — cannot happen
  /// for ids that went through map_job).
  std::uint64_t local_of(service::JobId global_id) const;
  std::string result_line(std::uint64_t local_id,
                          const service::JobResult& r) const;

  service::SchedulerService& svc_;
  const ProtocolOptions& opts_;
  InstancePool& instances_;
  const bool fail_fast_;
  /// One live rescheduling session per client session.
  std::optional<dynamic::RescheduleSession> dynamic_;
  /// Local ids are allocated per admitted job, in submission order. The
  /// maps live for the session (two words per job) so TRACE keeps working
  /// after WAIT released the service-side handle.
  std::uint64_t next_local_ = 1;
  std::unordered_map<std::uint64_t, service::JobId> local_to_global_;
  std::unordered_map<service::JobId, std::uint64_t> global_to_local_;
};

/// The pipe transport: serves `session` one request line at a time from
/// `in` until QUIT or EOF, writing (and flushing) each response to `out`.
/// Continuations resolve inline by blocking on the session's service —
/// WAIT and RESCHEDULE on SchedulerService::wait, DRAIN on
/// SchedulerService::drain — so responses stay in request order.
void serve_stream(Session& session, std::istream& in, std::ostream& out);

}  // namespace pacga::net
