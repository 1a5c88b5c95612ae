// The transports of the scheduler daemon (src/net): multi-client
// correctness, protocol equivalence between the socket edge and the pipe
// loop, malformed input, backpressure, and disconnect draining.
//
// Socket tests stand up a real Server on an ephemeral loopback port with
// the event loop on a background thread, and talk to it through real
// sockets — the same code path production clients take, including partial
// reads, pipelining and half-closes. Pipe tests run net::serve_stream, the
// loop the daemon serves stdin/stdout with, over string streams.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstddef>
#include <chrono>
#include <cstring>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/service.hpp"

namespace pacga::net {

/// Result handles the open connections still track for reaping on
/// disconnect (the loop thread's view). A job whose result was delivered
/// is no longer counted.
struct ServerTestPeer {
  static std::size_t connections(const Server& s) { return s.conns_.size(); }
  static std::size_t unreaped_jobs(const Server& s) {
    std::size_t n = 0;
    for (const auto& [fd, conn] : s.conns_) n += conn->unreaped.size();
    return n;
  }
};

}  // namespace pacga::net

namespace {

using namespace pacga;
using namespace std::chrono_literals;

/// Blocking loopback test client with a line-buffered reader and a recv
/// timeout, so a lost response fails the test instead of hanging it.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client socket() failed");
    timeval tv{};
    tv.tv_sec = 20;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error(std::string("connect failed: ") +
                               std::strerror(errno));
  }

  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& data) {
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
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  void send_line(const std::string& line) { send(line + "\n"); }

  /// Next response line, or "" on EOF/timeout.
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
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return "";  // EOF or timeout
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the peer closed the connection (and no buffered line left).
  bool at_eof() { return buf_.find('\n') == std::string::npos && drained(); }

  void half_close() { ::shutdown(fd_, SHUT_WR); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  bool drained() {
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n == 0) return true;
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // timeout: peer still open
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
      if (buf_.find('\n') != std::string::npos) return false;
    }
  }

  int fd_ = -1;
  std::string buf_;
};

/// Scheduler service + TCP server on an ephemeral port, loop on a
/// background thread. Deterministic protocol defaults (minmin, no timing
/// fields) so response bytes are assertable.
class NetTest : public ::testing::Test {
 protected:
  void start(service::ServiceOptions svc_options = {},
             net::ServerOptions server_options = {}) {
    svc_options.workers = svc_options.workers ? svc_options.workers : 2;
    svc_.emplace(svc_options);
    server_options.protocol.policy =
        server_options.protocol.policy == "auto"
            ? "minmin"
            : server_options.protocol.policy;
    server_options.protocol.deterministic = true;
    server_.emplace(*svc_, server_options);
    loop_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_) {
      stop_loop();
      server_.reset();
    }
    if (svc_) svc_->shutdown();
  }

  /// Stops the event loop and joins its thread; afterwards the server's
  /// loop-thread state is safe to read from the test thread.
  void stop_loop() {
    server_->stop();
    if (loop_.joinable()) loop_.join();
  }

  std::uint16_t port() const { return server_->port(); }

  std::optional<service::SchedulerService> svc_;
  std::optional<net::Server> server_;
  std::thread loop_;
};

constexpr char kSubmit[] = "INSTANCE 0 60000 1 u_c_hihi.0";
constexpr char kResultPrefix[] = "RESULT id=1 status=done makespan=";

TEST_F(NetTest, SubmitWaitQuitRoundTrip) {
  start();
  Client c(port());
  c.send_line(kSubmit);
  EXPECT_EQ(c.read_line(), "JOB 1");
  c.send_line("WAIT 1");
  const std::string result = c.read_line();
  EXPECT_EQ(result.compare(0, std::strlen(kResultPrefix), kResultPrefix), 0)
      << result;
  c.send_line("QUIT");
  EXPECT_EQ(c.read_line(), "BYE");
  EXPECT_TRUE(c.at_eof());  // QUIT closes the connection, not the daemon
}

TEST_F(NetTest, JobIdsAreNamespacedPerConnection) {
  start();
  Client a(port());
  Client b(port());
  a.send_line(kSubmit);
  EXPECT_EQ(a.read_line(), "JOB 1");
  // b's first job is global id 2 but must be announced as ITS id 1.
  b.send_line(kSubmit);
  EXPECT_EQ(b.read_line(), "JOB 1");
  a.send_line("WAIT 1");
  b.send_line("WAIT 1");
  EXPECT_EQ(a.read_line().compare(0, std::strlen(kResultPrefix),
                                  kResultPrefix), 0);
  EXPECT_EQ(b.read_line().compare(0, std::strlen(kResultPrefix),
                                  kResultPrefix), 0);
  // Neither session can address the other's job.
  a.send_line("WAIT 2");
  EXPECT_EQ(a.read_line(), "ERR SchedulerService::wait: unknown job id");
}

TEST_F(NetTest, PipelinedScriptAnswersInRequestOrder) {
  start();
  Client c(port());
  // The whole script in one packet: the WAIT parks the connection, so the
  // later submissions and STATS must NOT be answered before the RESULT.
  c.send(std::string(kSubmit) + "\nWAIT 1\n" + kSubmit + "\nWAIT 2\nQUIT\n");
  EXPECT_EQ(c.read_line(), "JOB 1");
  EXPECT_EQ(c.read_line().compare(0, 10, "RESULT id="), 0);
  EXPECT_EQ(c.read_line(), "JOB 2");
  const std::string second = c.read_line();
  EXPECT_EQ(second.compare(0, 12, "RESULT id=2 "), 0) << second;
  EXPECT_EQ(c.read_line(), "BYE");
}

TEST_F(NetTest, ManyConcurrentClientsLoseNoResults) {
  start();
  constexpr int kClients = 24;
  constexpr int kJobs = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &failures] {
      try {
        Client c(port());
        for (int j = 1; j <= kJobs; ++j) {
          // Distinct shapes per client so results are attributable.
          c.send_line("WORKLOAD 0 60000 " + std::to_string(i + 1) + " " +
                      std::to_string(32 + i) + " 8 " + std::to_string(i + 1));
          const std::string job = c.read_line();
          if (job != "JOB " + std::to_string(j))
            throw std::runtime_error("bad JOB reply: " + job);
          c.send_line("WAIT " + std::to_string(j));
          const std::string result = c.read_line();
          if (result.compare(0, 7, "RESULT ") != 0 ||
              result.find("id=" + std::to_string(j) + " ") == std::string::npos ||
              result.find("status=done") == std::string::npos)
            throw std::runtime_error("bad RESULT reply: " + result);
        }
        c.send_line("QUIT");
        if (c.read_line() != "BYE") throw std::runtime_error("no BYE");
      } catch (const std::exception& e) {
        failures[i] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i)
    EXPECT_EQ(failures[i], "") << "client " << i;
}

TEST_F(NetTest, FullQueueAnswersBusyInsteadOfBlocking) {
  service::ServiceOptions svc_options;
  svc_options.workers = 1;
  svc_options.queue_capacity = 1;
  net::ServerOptions server_options;
  server_options.protocol.policy = "pacga";  // runs until the deadline
  start(svc_options, server_options);
  Client c(port());
  // Worker busy for ~2s, queue holds one: the burst must shed load fast
  // (a blocking admission would stall every other connection).
  for (int i = 0; i < 6; ++i) c.send_line("WORKLOAD 0 2000 1 64 8 1");
  int admitted = 0, busy = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string reply = c.read_line();
    if (reply.compare(0, 4, "JOB ") == 0)
      ++admitted;
    else if (reply.compare(0, 19, "ERR BUSY queue full") == 0)
      ++busy;
    else
      FAIL() << reply;
  }
  EXPECT_GE(admitted, 1);
  EXPECT_GE(busy, 1);
  EXPECT_EQ(admitted + busy, 6);
  // The shed connection is still healthy.
  c.send_line("DRAIN");
  EXPECT_EQ(c.read_line(), "DRAINED");
}

TEST_F(NetTest, DrainIsPerConnection) {
  start();
  Client busy(port());
  Client idle(port());
  busy.send_line(kSubmit);
  EXPECT_EQ(busy.read_line(), "JOB 1");
  busy.send_line("DRAIN");
  // The idle connection's DRAIN must not wait for busy's job.
  idle.send_line("DRAIN");
  EXPECT_EQ(idle.read_line(), "DRAINED");
  EXPECT_EQ(busy.read_line(), "DRAINED");
}

TEST_F(NetTest, MalformedLinesAnswerErrWithoutKillingTheConnection) {
  start();
  Client c(port());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"WAIT", "ERR WAIT expects a job id"},
      {"WAIT notanumber", "ERR WAIT expects a job id"},
      {"WAIT 42", "ERR SchedulerService::wait: unknown job id"},
      {"CANCEL", "ERR CANCEL expects a job id"},
      {"CANCEL 42", "CANCELLED 42 0"},  // unknown local id: nothing to stop
      {"TRACE", "ERR TRACE expects <job-id> or DUMP <file>"},
      {"TRACE DUMP", "ERR TRACE DUMP expects a file path"},
      {"EVENT DOWN 0", "ERR EVENT requires a DYNAMIC session"},
      {"RESCHEDULE 0 10 1", "ERR RESCHEDULE requires a DYNAMIC session"},
      {"INSTANCE 0", "ERR INSTANCE expects <priority> <deadline_ms> <seed> ..."},
      {"INSTANCE 0 10 1 no_such_instance.9",
       "ERR unknown instance name: no_such_instance.9"},
      {"SUBMIT 0 10 1 4 2 1 2 3", "ERR SUBMIT: too few ETC values"},
      {"BOGUS VERB", "ERR unknown command BOGUS"},
  };
  for (const auto& [request, expected] : cases) {
    c.send_line(request);
    EXPECT_EQ(c.read_line(), expected) << request;
  }
  // Blank lines and CRLF line endings are tolerated silently.
  c.send("\n\r\nSTATS\r\n");
  EXPECT_EQ(c.read_line().compare(0, 6, "STATS "), 0);
}

TEST_F(NetTest, RequestLineSplitAcrossManyPackets) {
  start();
  Client c(port());
  const std::string script = std::string(kSubmit) + "\nWAIT 1\n";
  for (char ch : script) {
    c.send(std::string(1, ch));  // one byte per segment
    std::this_thread::yield();
  }
  EXPECT_EQ(c.read_line(), "JOB 1");
  EXPECT_EQ(c.read_line().compare(0, std::strlen(kResultPrefix),
                                  kResultPrefix), 0);
}

TEST_F(NetTest, OversizedRequestLineDropsOnlyThatConnection) {
  net::ServerOptions server_options;
  server_options.max_line = 128;
  start({}, server_options);
  Client offender(port());
  offender.send(std::string(4096, 'x'));  // no newline, over the cap
  EXPECT_EQ(offender.read_line(), "ERR line too long");
  EXPECT_TRUE(offender.at_eof());
  // The daemon survives and keeps serving others.
  Client ok(port());
  ok.send_line("STATS");
  EXPECT_EQ(ok.read_line().compare(0, 6, "STATS "), 0);
}

TEST_F(NetTest, HalfCloseServesBufferedScriptToCompletion) {
  start();
  Client c(port());
  // No QUIT and no trailing newline: FIN must still flush every reply,
  // including the final unterminated line (pipe getline semantics).
  c.send(std::string(kSubmit) + "\nWAIT 1\nSTATS");
  c.half_close();
  EXPECT_EQ(c.read_line(), "JOB 1");
  EXPECT_EQ(c.read_line().compare(0, std::strlen(kResultPrefix),
                                  kResultPrefix), 0);
  EXPECT_EQ(c.read_line().compare(0, 6, "STATS "), 0);
  EXPECT_TRUE(c.at_eof());
}

TEST_F(NetTest, AbruptDisconnectDrainsInflightJobs) {
  service::ServiceOptions svc_options;
  svc_options.workers = 1;
  net::ServerOptions server_options;
  server_options.protocol.policy = "pacga";  // long-running under deadline
  start(svc_options, server_options);
  {
    Client doomed(port());
    for (int i = 1; i <= 3; ++i) {
      doomed.send_line("WORKLOAD 0 30000 1 64 8 1");
      EXPECT_EQ(doomed.read_line(), "JOB " + std::to_string(i));
    }
    // Vanish with three ~30s jobs in flight.
  }
  // Disconnect must cancel them: a full drain completes in far less than
  // the 30s deadline, and no result handle leaks.
  const auto deadline = std::chrono::steady_clock::now() + 15s;
  std::thread waiter([this] { svc_->drain(); });
  waiter.join();
  EXPECT_LT(std::chrono::steady_clock::now(), deadline);
  // The daemon still serves new clients afterwards.
  Client after(port());
  after.send_line("DRAIN");
  EXPECT_EQ(after.read_line(), "DRAINED");
}

TEST_F(NetTest, ConnectionCapAnswersBusy) {
  net::ServerOptions server_options;
  server_options.max_connections = 2;
  start({}, server_options);
  Client a(port());
  Client b(port());
  a.send_line("STATS");
  EXPECT_EQ(a.read_line().compare(0, 6, "STATS "), 0);
  Client over(port());
  EXPECT_EQ(over.read_line(), "ERR BUSY too many connections");
  EXPECT_TRUE(over.at_eof());
}

// ---------------------------------------------------------------------------
// Overload / idle robustness.

TEST_F(NetTest, BusyAnswerCarriesARetryHint) {
  service::ServiceOptions svc_options;
  svc_options.workers = 1;
  svc_options.queue_capacity = 1;
  net::ServerOptions server_options;
  server_options.protocol.policy = "pacga";  // runs until the deadline
  start(svc_options, server_options);
  Client c(port());
  for (int i = 0; i < 6; ++i) c.send_line("WORKLOAD 0 2000 1 64 8 1");
  bool saw_busy = false;
  for (int i = 0; i < 6; ++i) {
    const std::string reply = c.read_line();
    if (reply.compare(0, 19, "ERR BUSY queue full") != 0) continue;
    saw_busy = true;
    // The shed line carries the daemon's own backoff hint: a positive
    // integer millisecond count a client can sleep before re-sending.
    const std::string key = " retry_ms=";
    const std::size_t at = reply.find(key);
    ASSERT_NE(at, std::string::npos) << reply;
    const std::string digits = reply.substr(at + key.size());
    ASSERT_FALSE(digits.empty()) << reply;
    for (char ch : digits) EXPECT_TRUE(ch >= '0' && ch <= '9') << reply;
    EXPECT_GE(std::stol(digits), 1) << reply;
  }
  EXPECT_TRUE(saw_busy);
}

TEST_F(NetTest, IdleConnectionIsReaped) {
  net::ServerOptions server_options;
  server_options.idle_timeout_ms = 150.0;
  start({}, server_options);
  Client c(port());
  c.send_line("STATS");
  EXPECT_EQ(c.read_line().compare(0, 6, "STATS "), 0);
  // Fall silent with nothing pending: the server must hang up on its own
  // (read_line returns "" on EOF well before the 20 s recv timeout).
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(c.read_line(), "");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 100ms);  // not an instant slam
  EXPECT_LT(elapsed, 10s);    // reaped by the timeout, not our recv timeout
}

TEST_F(NetTest, SlowButLiveClientWithParkedWaitIsNotReaped) {
  // A client saying nothing because it WAITs on a slow job is NOT idle:
  // its parked continuation is pending server->client work, exempt from
  // the reaper no matter how long the solve takes.
  service::ServiceOptions svc_options;
  svc_options.workers = 1;
  net::ServerOptions server_options;
  server_options.idle_timeout_ms = 150.0;
  server_options.protocol.policy = "pacga";  // runs until the deadline
  start(svc_options, server_options);
  Client c(port());
  c.send_line("WORKLOAD 0 1200 1 64 8 1");  // ~1.2 s solve >> idle timeout
  EXPECT_EQ(c.read_line(), "JOB 1");
  c.send_line("WAIT 1");
  // Silent for ~8x the idle timeout while the job solves.
  const std::string result = c.read_line();
  EXPECT_EQ(result.compare(0, 12, "RESULT id=1 "), 0) << result;
  // And the connection survived to speak again.
  c.send_line("QUIT");
  EXPECT_EQ(c.read_line(), "BYE");
}

TEST_F(NetTest, AnsweredJobsAreNotTrackedForTheConnectionsLife) {
  start();
  Client c(port());
  constexpr int kJobs = 20;
  for (int j = 1; j <= kJobs; ++j) {
    const std::string id = std::to_string(j);
    c.send_line(kSubmit);
    EXPECT_EQ(c.read_line(), "JOB " + id);
    // DRAIN first so the WAIT finds the job finished and answers at once
    // instead of parking.
    c.send_line("DRAIN");
    EXPECT_EQ(c.read_line(), "DRAINED");
    c.send_line("WAIT " + id);
    const std::string result = c.read_line();
    EXPECT_EQ(result.compare(0, 11 + id.size(), "RESULT id=" + id + " "), 0)
        << result;
  }
  stop_loop();
  EXPECT_EQ(net::ServerTestPeer::connections(*server_), 1u);
  // Every result was delivered: nothing is left to reap on disconnect.
  EXPECT_EQ(net::ServerTestPeer::unreaped_jobs(*server_), 0u);
}

// ---------------------------------------------------------------------------
// Transport equivalence: the same deterministic script must produce the
// same bytes through the pipe loop (net::serve_stream) and the socket.

service::ServiceOptions transcript_service() {
  service::ServiceOptions o;
  o.workers = 2;
  // A warm cache would flip cache_hit between the two runs.
  o.cache_capacity = 0;
  return o;
}

/// Runs `script` through the daemon's pipe loop on a fresh service and
/// returns the response lines.
std::vector<std::string> run_script_pipe(
    const std::vector<std::string>& script,
    service::ServiceOptions svc_options = transcript_service(),
    const std::string& policy = "minmin") {
  service::SchedulerService svc(svc_options);
  net::ProtocolOptions protocol;
  protocol.policy = policy;
  protocol.deterministic = true;
  net::InstancePool instances;
  net::Session session(svc, protocol, instances, /*fail_fast=*/false);
  std::string joined;
  for (const std::string& line : script) joined += line + "\n";
  std::istringstream in(joined);
  std::ostringstream out;
  net::serve_stream(session, in, out);
  svc.shutdown();
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  for (std::string line; std::getline(reader, line);) lines.push_back(line);
  return lines;
}

/// A TRACE timeline carries wall-clock offsets and worker-dependent spans;
/// keep only whether the job has spans at all.
std::string without_trace_timing(const std::string& line) {
  if (line.compare(0, 6, "TRACE ") != 0) return line;
  const std::size_t at = line.find(" spans=");
  if (at == std::string::npos) return line;
  const bool none = line.compare(at, std::string::npos, " spans=0") == 0;
  return line.substr(0, at) + (none ? " spans=0" : " spans>0");
}

TEST_F(NetTest, SocketTranscriptMatchesPipeTranscript) {
  const std::vector<std::string> script = {
      "INSTANCE 0 60000 1 u_c_hihi.0",
      "WAIT 1",
      "INSTANCE 0 60000 1 u_c_hilo.0",
      "WAIT 2",
      "WAIT 2",  // double-wait: same error on both transports
      "WORKLOAD 0 60000 1 1024 32 3",
      "WAIT 3",  // pending: the solve outlasts the round trip
      "WORKLOAD 0 60000 2 64 8 4",
      "DRAIN",
      "WAIT 4",  // answered at once: DRAIN saw the job finish
      "TRACE 1",
      "TRACE 99",  // never issued on this session
      "CANCEL 1",  // own id, already finished
      "DYNAMIC 64 8 7",
      "EVENT DOWN 2",
      "EVENT ARRIVE 2500",
      "RESCHEDULE 0 60000 1 0",
      "CANCEL 99",
      "QUIT",
  };
  std::vector<std::string> pipe_lines = run_script_pipe(script);
  for (std::string& line : pipe_lines) line = without_trace_timing(line);
  ASSERT_EQ(pipe_lines.size(), script.size());  // one response per request
  EXPECT_EQ(pipe_lines[8], "DRAINED");
  EXPECT_EQ(pipe_lines[10], "TRACE id=1 spans>0");
  EXPECT_EQ(pipe_lines[11], "TRACE id=99 spans=0");
  EXPECT_EQ(pipe_lines[12], "CANCELLED 1 0");

  start(transcript_service());
  Client c(port());
  for (const std::string& line : script) c.send_line(line);
  std::vector<std::string> socket_lines;
  for (std::size_t i = 0; i < pipe_lines.size(); ++i)
    socket_lines.push_back(without_trace_timing(c.read_line()));
  EXPECT_EQ(socket_lines, pipe_lines);
}

// A repeated instance is answered from the cache at admission: its
// RESULT reports the hit, its TRACE holds only the submission lane's
// probe and completion, and STATS counts it outside every worker.
TEST_F(NetTest, RepeatedInstanceIsAnsweredAtAdmission) {
  service::ServiceOptions svc_options = transcript_service();
  svc_options.cache_capacity = 64;
  const std::vector<std::string> lines = run_script_pipe(
      {"INSTANCE 0 60000 1 u_c_hihi.0", "WAIT 1",
       "INSTANCE 0 60000 1 u_c_hihi.0", "WAIT 2", "TRACE 2", "STATS", "QUIT"},
      svc_options);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_NE(lines[1].find(" cache_hit=0 "), std::string::npos) << lines[1];
  EXPECT_EQ(lines[3].rfind("RESULT id=2 status=done ", 0), 0u) << lines[3];
  EXPECT_NE(lines[3].find(" cache_hit=1 "), std::string::npos) << lines[3];
  const std::regex timeline(
      R"(TRACE id=2 spans=2 cache_probe@[0-9.]+\+[0-9.]+ completed@[0-9.]+)");
  EXPECT_TRUE(std::regex_match(lines[4], timeline)) << lines[4];
  EXPECT_NE(lines[5].find(" completed=2 "), std::string::npos) << lines[5];
  EXPECT_NE(lines[5].find(" cache_hits=1 "), std::string::npos) << lines[5];
  EXPECT_NE(lines[5].find(" admission_hits=1 "), std::string::npos)
      << lines[5];
  EXPECT_EQ(lines[6], "BYE");
}

// The one transport difference: a full queue shard blocks the pipe's
// admission instead of answering ERR BUSY (the socket twin is
// FullQueueAnswersBusyInsteadOfBlocking).
TEST_F(NetTest, PipeAdmissionBlocksOnFullShard) {
  service::ServiceOptions svc_options;
  svc_options.workers = 1;
  svc_options.queue_capacity = 1;
  // pacga runs until the deadline and distinct workloads miss the cache:
  // the worker holds one job, the queue the next, so the rest of the
  // burst meets a full shard.
  const std::vector<std::string> lines = run_script_pipe(
      {"WORKLOAD 0 150 1 64 8 1", "WORKLOAD 0 150 1 64 8 2",
       "WORKLOAD 0 150 1 64 8 3", "WORKLOAD 0 150 1 64 8 4", "STATS", "QUIT"},
      svc_options, "pacga");
  ASSERT_EQ(lines.size(), 6u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(lines[i], "JOB " + std::to_string(i + 1));
  EXPECT_EQ(lines[4].compare(0, 6, "STATS "), 0) << lines[4];
  EXPECT_NE(lines[4].find(" rejected=0 "), std::string::npos) << lines[4];
  EXPECT_EQ(lines[5], "BYE");
}

// Same script, same transport, run twice: --deterministic means
// byte-identical (guards timing fields leaking back into RESULT lines).
TEST_F(NetTest, DeterministicScriptsAreReproducible) {
  const std::vector<std::string> script = {
      "DYNAMIC 64 8 7",  "EVENT DOWN 2",         "EVENT COMMIT 100",
      "EVENT ARRIVE 2500", "RESCHEDULE 0 60000 1 0", "QUIT",
  };
  EXPECT_EQ(run_script_pipe(script), run_script_pipe(script));
}

// ---------------------------------------------------------------------------
// TRACE DUMP error paths (satellite fix): a failed write must answer ERR,
// not a success line over a truncated file.

TEST(TraceDump, UnopenablePathAnswersCannotOpen) {
  service::SchedulerService svc;
  net::ProtocolOptions protocol;
  net::InstancePool instances;
  net::Session session(svc, protocol, instances, /*fail_fast=*/false);
  const net::Reply reply =
      session.handle("TRACE DUMP /no/such/directory/trace.json");
  EXPECT_EQ(reply.text,
            "ERR TRACE DUMP cannot open /no/such/directory/trace.json");
  svc.shutdown();
}

TEST(TraceDump, FailedWriteAnswersErrNotSuccess) {
  // /dev/full opens writable but every flush fails with ENOSPC — exactly
  // the full-disk case the dump must detect.
  if (::access("/dev/full", W_OK) != 0)
    GTEST_SKIP() << "/dev/full not available";
  service::SchedulerService svc;
  net::ProtocolOptions protocol;
  net::InstancePool instances;
  net::Session session(svc, protocol, instances, /*fail_fast=*/false);
  const net::Reply reply = session.handle("TRACE DUMP /dev/full");
  EXPECT_EQ(reply.text, "ERR TRACE DUMP write failed /dev/full");
  svc.shutdown();
}

}  // namespace
