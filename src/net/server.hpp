// TCP edge of the scheduler daemon: a single-threaded poll() event loop
// serving the line protocol (net/protocol.hpp) to many concurrent client
// connections.
//
// Architecture (in the style of small production network daemons):
//
//   * One listener socket + one wake pipe + N connection sockets, all
//     non-blocking, multiplexed by poll(). The loop thread owns every
//     connection's state; solver workers never touch a socket.
//   * Each connection gets its own protocol Session (local job ids, its
//     own dynamic RescheduleSession) and its own read/write buffers.
//     Partial reads/writes are buffered; lines split across packets
//     reassemble transparently.
//   * WAIT never blocks the loop: a WAIT whose job is still in flight
//     parks the connection (its later requests stay buffered, so replies
//     keep request order) while OTHER connections keep being served. The
//     service completion callback enqueues finished job ids into a
//     mailbox and wakes the loop through the self-pipe; the loop then
//     delivers the RESULT line and resumes the connection. RESCHEDULE and
//     DRAIN park the same way.
//   * Backpressure: admission uses try_submit — a full queue shard answers
//     "ERR BUSY queue full" instead of blocking the loop (the paper's
//     broker sheds load; a closed-loop client backs off and retries).
//     Slow readers are bounded by an output-buffer cap and oversized
//     request lines by an input cap; both drop the offending connection,
//     never the daemon.
//   * Disconnect drains gracefully: the connection's queued jobs are
//     cancelled, running ones finish on their worker, and every orphaned
//     result is reaped through the completion mailbox — no leaked job
//     handles, no worker ever stalled by a vanished tenant.
//
// Lifecycle: construct (binds + listens; port 0 picks an ephemeral port,
// see port()) -> run() on the serving thread -> stop() from any thread or
// signal handler (async-signal-safe) -> destructor closes every fd. The
// SchedulerService must outlive the server.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/protocol.hpp"
#include "service/service.hpp"

namespace pacga::net {

struct ServerOptions {
  /// IPv4 address to bind (dotted quad). Loopback by default: exposing
  /// the daemon beyond the host is a deployment decision, not a default.
  std::string bind = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Accepted connections beyond this answer "ERR BUSY too many
  /// connections" and are closed immediately.
  std::size_t max_connections = 512;
  /// A request line longer than this (no newline seen) drops the
  /// connection — there is no way to resync a runaway line.
  std::size_t max_line = 1 << 20;
  /// Pending-output cap per connection; a reader slower than this drops.
  std::size_t max_output = 16u << 20;
  /// Reap a connection that has sent nothing for this long (0 disables).
  /// A connection parked on a WAIT/RESCHEDULE/DRAIN continuation is NOT
  /// idle — the daemon owes it a reply, however long the solve takes; the
  /// idle clock restarts when the reply is delivered. A silent connection
  /// that abandoned in-flight jobs has them cancelled on reap, so a
  /// vanished tenant cannot pin queue slots forever.
  double idle_timeout_ms = 0.0;
  ProtocolOptions protocol;
};

class Server {
 public:
  /// Binds and listens; throws std::runtime_error on socket errors.
  /// Registers the service completion callback (replacing any other).
  Server(service::SchedulerService& svc, ServerOptions options);

  /// Unregisters the completion callback and closes every fd. Call stop()
  /// and join the serving thread first when run() is on another thread.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actual bound port (resolves port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Serves until stop(). Must be called from exactly one thread.
  void run();

  /// Requests run() to return. Async-signal-safe (an atomic store and one
  /// write() to the self-pipe) and callable from any thread.
  void stop() noexcept;

 private:
  /// Test access to the open connections and their unreaped jobs
  /// (defined with the tests).
  friend struct ServerTestPeer;

  /// Cross-thread completion mailbox. Shared with the service completion
  /// callback closure so a callback racing teardown still writes into
  /// live storage and a live fd (the mailbox owns the pipe's write end).
  struct Mailbox {
    std::mutex mutex;
    std::vector<service::JobId> ids;
    int wake_fd = -1;
    ~Mailbox();
    void push(service::JobId id);
    void wake() noexcept;
  };

  enum class PendingKind { kNone, kWait, kReschedule, kDrain };

  struct Connection {
    int fd = -1;
    std::unique_ptr<Session> session;
    std::string inbuf;
    std::string outbuf;
    std::size_t out_off = 0;  ///< bytes of outbuf already sent
    /// The one parked continuation (protocol replies are strictly request
    /// ordered, so a connection never has more than one).
    PendingKind pending = PendingKind::kNone;
    service::JobId pending_id = 0;
    /// Global ids submitted here that have not reached a terminal state.
    std::unordered_set<service::JobId> inflight;
    /// Global ids submitted here whose result may still be registered in
    /// the service (erased when WAIT or RESCHEDULE delivers the result,
    /// reaped on disconnect; stale entries are harmless — reaping
    /// tolerates kUnknown).
    std::unordered_set<service::JobId> unreaped;
    /// Last inbound bytes or delivered reply; drives the idle reaper.
    std::chrono::steady_clock::time_point last_activity{};
    bool closing = false;  ///< QUIT: flush outbuf, then disconnect
    /// Peer half-closed (FIN). Buffered requests still run and their
    /// replies still flush — mirroring the pipe daemon, which serves every
    /// line it read before EOF — then the connection is reaped.
    bool eof = false;
    bool dead = false;  ///< swept by the loop at the next iteration
  };

  void accept_clients();
  void read_from(Connection& c);
  void process_lines(Connection& c);
  void send_line(Connection& c, const std::string& line);
  void flush_out(Connection& c);
  /// Delivers a parked continuation if its condition is met; resumes the
  /// connection's buffered requests when it does.
  void try_resolve(Connection& c);
  void drain_completions();
  /// Cancel + reap the connection's jobs, close the socket, forget it.
  void disconnect(int fd);
  void sweep_dead();

  service::SchedulerService& svc_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  std::uint16_t port_ = 0;
  std::shared_ptr<Mailbox> mailbox_;
  std::atomic<bool> stop_{false};
  InstancePool instances_;  ///< shared across connections (loop thread only)
  std::map<int, std::unique_ptr<Connection>> conns_;  ///< keyed by fd
  /// Routes a completion event to the connection that submitted the job;
  /// erased once the event is consumed or the connection dies.
  std::unordered_map<service::JobId, int> job_owner_;
  /// Jobs of vanished connections still in flight: their completion reaps
  /// (releases) the result instead of delivering it.
  std::unordered_set<service::JobId> orphans_;
};

}  // namespace pacga::net
