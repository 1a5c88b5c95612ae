#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "support/failpoints.hpp"
#include "support/log.hpp"

namespace pacga::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// send() that never raises SIGPIPE — a peer that vanished mid-write must
/// surface as an error code on the loop thread, not kill the daemon.
ssize_t send_nosignal(int fd, const char* data, std::size_t len) {
#ifdef MSG_NOSIGNAL
  return ::send(fd, data, len, MSG_NOSIGNAL);
#else
  return ::send(fd, data, len, 0);
#endif
}

}  // namespace

Server::Mailbox::~Mailbox() {
  if (wake_fd >= 0) ::close(wake_fd);
}

void Server::Mailbox::push(service::JobId id) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    ids.push_back(id);
  }
  wake();
}

void Server::Mailbox::wake() noexcept {
  // A full pipe means a wakeup is already pending — dropping the byte is
  // correct, the loop drains the whole mailbox per wake.
  const char byte = 1;
  ssize_t rc;
  do {
    rc = ::write(wake_fd, &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

Server::Server(service::SchedulerService& svc, ServerOptions options)
    : svc_(svc), options_(std::move(options)) {
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0)
    throw std::runtime_error("net::Server: pipe() failed");
  set_nonblocking(pipe_fds[0]);
  set_nonblocking(pipe_fds[1]);
  wake_read_fd_ = pipe_fds[0];
  mailbox_ = std::make_shared<Mailbox>();
  mailbox_->wake_fd = pipe_fds[1];

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("net::Server: socket() failed");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("net::Server: bad bind address " + options_.bind);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    throw std::runtime_error("net::Server: cannot bind " + options_.bind + ":" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno));
  if (::listen(listen_fd_, 128) != 0)
    throw std::runtime_error("net::Server: listen() failed");
  set_nonblocking(listen_fd_);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    throw std::runtime_error("net::Server: getsockname() failed");
  port_ = ntohs(bound.sin_port);

  // The callback closure shares the mailbox, NOT the server: if a worker
  // finishes a job while the server is being torn down, it writes into
  // storage (and a pipe end) kept alive by the shared_ptr.
  std::shared_ptr<Mailbox> mailbox = mailbox_;
  svc_.set_completion_callback(
      [mailbox](service::JobId id) { mailbox->push(id); });
}

Server::~Server() {
  svc_.set_completion_callback({});
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
}

void Server::stop() noexcept {
  stop_.store(true, std::memory_order_release);
  mailbox_->wake();
}

void Server::send_line(Connection& c, const std::string& line) {
  c.outbuf += line;
  c.outbuf += '\n';
  // A delivered reply restarts the idle clock: a client whose WAIT just
  // resolved gets a full window to issue its next request.
  c.last_activity = std::chrono::steady_clock::now();
  flush_out(c);
}

void Server::flush_out(Connection& c) {
  if (c.dead) return;
  // An armed net.write failpoint fails THIS connection, never the loop: a
  // thrown FailpointError is the injected equivalent of a peer reset.
  try {
    PACGA_FAILPOINT("net.write");
  } catch (const support::FailpointError& e) {
    support::log_warn() << "net: " << e.what() << " fd=" << c.fd;
    c.dead = true;
    return;
  }
  while (c.out_off < c.outbuf.size()) {
    const ssize_t n = send_nosignal(c.fd, c.outbuf.data() + c.out_off,
                                    c.outbuf.size() - c.out_off);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    c.dead = true;  // peer gone mid-write
    return;
  }
  if (c.out_off == c.outbuf.size()) {
    c.outbuf.clear();
    c.out_off = 0;
    if (c.closing) c.dead = true;  // QUIT fully flushed
  } else if (c.outbuf.size() - c.out_off > options_.max_output) {
    support::log_warn() << "net: dropping slow reader fd=" << c.fd << " ("
                        << c.outbuf.size() - c.out_off << " bytes pending)";
    c.dead = true;
  }
}

void Server::try_resolve(Connection& c) {
  if (c.dead) return;
  switch (c.pending) {
    case PendingKind::kNone:
      return;
    case PendingKind::kDrain:
      if (!c.inflight.empty()) return;
      c.pending = PendingKind::kNone;
      send_line(c, "DRAINED");
      break;
    case PendingKind::kWait:
    case PendingKind::kReschedule: {
      service::JobResult result;
      if (svc_.poll_result(c.pending_id, result) !=
          service::SchedulerService::Poll::kReady)
        return;  // still in flight; the completion wake will retry
      const std::string line =
          c.pending == PendingKind::kWait
              ? c.session->finish_wait(c.pending_id, result)
              : c.session->finish_reschedule(c.pending_id, result);
      c.unreaped.erase(c.pending_id);
      c.pending = PendingKind::kNone;
      c.pending_id = 0;
      send_line(c, line);
      break;
    }
  }
  // Unparked: requests buffered behind the continuation resume, in order.
  process_lines(c);
}

void Server::process_lines(Connection& c) {
  while (!c.dead && !c.closing && c.pending == PendingKind::kNone) {
    const std::size_t nl = c.inbuf.find('\n');
    std::string line;
    if (nl != std::string::npos) {
      line = c.inbuf.substr(0, nl);
      c.inbuf.erase(0, nl + 1);
    } else if (c.inbuf.size() > options_.max_line) {
      support::log_warn() << "net: dropping fd=" << c.fd
                          << " (request line exceeds " << options_.max_line
                          << " bytes)";
      send_line(c, "ERR line too long");
      c.closing = true;  // flushed BYE-less goodbye, then dead
      flush_out(c);
      return;
    } else if (c.eof && !c.inbuf.empty()) {
      // Final unterminated line before the FIN — getline semantics.
      line.swap(c.inbuf);
    } else {
      return;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();  // telnet CRLF

    Reply reply = c.session->handle(line);
    if (reply.submitted) {
      c.inflight.insert(*reply.submitted);
      c.unreaped.insert(*reply.submitted);
      job_owner_[*reply.submitted] = c.fd;
    }
    if (reply.released) c.unreaped.erase(*reply.released);
    if (reply.text.compare(0, 4, "ERR ") == 0) {
      support::log_warn() << "net: request failed: " << line << " -> "
                          << reply.text;
    }
    if (!reply.text.empty()) send_line(c, reply.text);
    if (reply.wait_on) {
      c.pending = PendingKind::kWait;
      c.pending_id = *reply.wait_on;
    } else if (reply.reschedule_on) {
      c.pending = PendingKind::kReschedule;
      c.pending_id = *reply.reschedule_on;
    } else if (reply.drain) {
      c.pending = PendingKind::kDrain;
    }
    if (reply.quit) {
      c.closing = true;
      flush_out(c);
      return;
    }
    if (c.pending != PendingKind::kNone) {
      // Close the submit/complete race: the job may have finished between
      // the session's poll and this registration — re-poll once now; the
      // mailbox covers every completion from here on.
      try_resolve(c);
      return;
    }
  }
}

void Server::read_from(Connection& c) {
  try {
    PACGA_FAILPOINT("net.read");
  } catch (const support::FailpointError& e) {
    support::log_warn() << "net: " << e.what() << " fd=" << c.fd;
    c.dead = true;
    return;
  }
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      c.inbuf.append(chunk, static_cast<std::size_t>(n));
      c.last_activity = std::chrono::steady_clock::now();
      // Paced read: a parked or oversized connection stops pulling more
      // input (poll drops POLLIN below) — TCP backpressure reaches the
      // client instead of the daemon buffering without bound.
      if (c.inbuf.size() > options_.max_line) break;
      continue;
    }
    if (n == 0) {  // FIN: serve what was buffered, then reap (see eof)
      c.eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c.dead = true;  // reset / error
    return;
  }
  process_lines(c);
}

void Server::accept_clients() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      support::log_warn() << "net: accept failed: " << std::strerror(errno);
      return;
    }
    if (conns_.size() >= options_.max_connections) {
      static const char busy[] = "ERR BUSY too many connections\n";
      (void)send_nosignal(fd, busy, sizeof busy - 1);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->last_activity = std::chrono::steady_clock::now();
    conn->session = std::make_unique<Session>(svc_, options_.protocol,
                                              instances_, /*fail_fast=*/true);
    conns_.emplace(fd, std::move(conn));
    support::log_debug() << "net: accepted fd=" << fd << " ("
                         << conns_.size() << " connections)";
  }
}

void Server::drain_completions() {
  // Drain the wake pipe first: a completion arriving after the swap below
  // re-arms it, so no wakeup is ever lost.
  char sink[64];
  while (::read(wake_read_fd_, sink, sizeof sink) > 0) {
  }
  std::vector<service::JobId> done;
  {
    std::lock_guard<std::mutex> lock(mailbox_->mutex);
    done.swap(mailbox_->ids);
  }
  for (const service::JobId id : done) {
    if (orphans_.erase(id) > 0) {
      service::JobResult discard;
      (void)svc_.poll_result(id, discard);  // release the orphaned handle
      continue;
    }
    const auto owner = job_owner_.find(id);
    if (owner == job_owner_.end()) continue;  // not one of ours (or reaped)
    const auto conn_it = conns_.find(owner->second);
    job_owner_.erase(owner);
    if (conn_it == conns_.end()) continue;
    Connection& c = *conn_it->second;
    c.inflight.erase(id);
    try_resolve(c);
  }
}

void Server::disconnect(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& c = *it->second;
  // Graceful drain: queued jobs are cancelled (finished immediately),
  // running ones stop within a generation or complete on their worker —
  // either way each reaches a terminal state and its completion event
  // reaps the handle below or via orphans_.
  for (const service::JobId id : c.inflight) (void)svc_.cancel(id);
  for (const service::JobId id : c.unreaped) {
    job_owner_.erase(id);
    service::JobResult discard;
    switch (svc_.poll_result(id, discard)) {
      case service::SchedulerService::Poll::kReady:   // released now
      case service::SchedulerService::Poll::kUnknown: // already released
        break;
      case service::SchedulerService::Poll::kPending:
        orphans_.insert(id);  // reaped when its completion event arrives
        break;
    }
  }
  ::close(fd);
  conns_.erase(it);
  support::log_debug() << "net: closed fd=" << fd << " (" << conns_.size()
                       << " connections)";
}

void Server::sweep_dead() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> dead;
  for (const auto& [fd, conn] : conns_) {
    // A half-closed connection lives until its buffered requests are
    // answered and the answers flushed (a parked continuation keeps it
    // alive too — the client is still reading).
    if (!conn->dead && conn->eof && conn->pending == PendingKind::kNone &&
        conn->inbuf.empty() && conn->out_off == conn->outbuf.size())
      conn->dead = true;
    // Idle reap: silent past the timeout with nothing owed to it. A
    // parked continuation exempts the connection — slow-but-live clients
    // waiting on a long solve are exactly who must NOT be dropped.
    if (!conn->dead && !conn->closing && options_.idle_timeout_ms > 0.0 &&
        conn->pending == PendingKind::kNone &&
        std::chrono::duration<double, std::milli>(now - conn->last_activity)
                .count() > options_.idle_timeout_ms) {
      support::log_warn() << "net: reaping idle fd=" << fd;
      conn->dead = true;
    }
    if (conn->dead) dead.push_back(fd);
  }
  for (const int fd : dead) disconnect(fd);
}

void Server::run() {
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      short events = 0;
      // Stop reading while parked on a continuation or holding an overlong
      // line — buffered requests are served in order when the park lifts.
      if (!conn->closing && !conn->eof &&
          conn->pending == PendingKind::kNone &&
          conn->inbuf.size() <= options_.max_line)
        events |= POLLIN;
      if (conn->out_off < conn->outbuf.size()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    // Without an idle timeout the loop sleeps until traffic; with one it
    // must wake on its own to notice silence (half the window keeps reap
    // latency under 1.5x the configured timeout).
    int poll_timeout = -1;
    if (options_.idle_timeout_ms > 0.0 && !conns_.empty()) {
      poll_timeout = std::max(
          1, static_cast<int>(std::lround(options_.idle_timeout_ms / 2.0)));
    }
    const int rc = ::poll(fds.data(), fds.size(), poll_timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      support::log_error() << "net: poll failed: " << std::strerror(errno);
      break;
    }
    if (fds[1].revents & POLLIN) drain_completions();
    if (fds[0].revents & POLLIN) accept_clients();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const auto it = conns_.find(fds[i].fd);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      Connection& c = *it->second;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Flush what we can (a QUIT's BYE races the peer's half-close),
        // then drop.
        if (fds[i].revents & POLLHUP) read_from(c);
        c.dead = true;
      } else {
        if (fds[i].revents & POLLOUT) flush_out(c);
        if (fds[i].revents & POLLIN) read_from(c);
      }
    }
    sweep_dead();
  }
  // Leave remaining connections to the destructor: runs after the caller
  // stops submitting and (typically) drains the service.
}

}  // namespace pacga::net
