// The benchmark's workloads, each driven through the library's public API:
//
//   * braun_pacga: par::run_parallel at a fixed wall budget per instance
//     (the H2LL-0 and large-instance arms run only in the traced probes);
//   * service_mix: a closed loop of 2 client threads against an in-process
//     SchedulerService with 2 workers;
//   * edge_pipeline: one client thread driving 3 loopback connections to
//     an in-process net::Server (1 loop thread, 2 service workers); only
//     the traced run's net.* probe uses it.
//
// Every workload uses at most 4 threads (nproc on the reference host) and
// checks every output it receives; see README.md for why each exists.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "etc/etc_matrix.hpp"
#include "harness.hpp"
#include "net/server.hpp"
#include "pacga/parallel_engine.hpp"
#include "service/service.hpp"

namespace perfbench {

// ---- engine arms ----------------------------------------------------------

struct Arm {
  std::size_t tasks;
  std::size_t machines;
  std::size_t ls_iterations;  ///< H2LL passes (0 = Fig. 4's sync-bound arm)
  std::size_t instances;      ///< taken from the 12 Braun classes in order
  std::size_t first_class;    ///< index of the first Braun class used
};

/// The paper's adopted configuration on the 12 Braun 512x16 classes.
inline constexpr Arm kArmLs10{512, 16, 10, 12, 0};
/// Same instances with local search off (the engine probe's ls0 arm).
inline constexpr Arm kArmLs0{512, 16, 0, 12, 0};
/// Inconsistent-class instances whose working set exceeds L2 (the
/// heuristics probe's 4096x128 shape).
inline constexpr Arm kArmLarge{4096, 128, 10, 3, 8};

/// PA-CGA threads in every arm (the paper's adopted count).
inline constexpr std::size_t kEngineThreads = 3;

struct ArmInputs {
  std::vector<pacga::etc::EtcMatrix> etc;
  std::vector<double> minmin;  ///< Min-min makespan per instance
};

/// Instance i of an arm: Braun class (first_class + i) with index `seed`,
/// at the arm's shape.
pacga::etc::EtcMatrix make_arm_instance(const Arm& arm, std::size_t i,
                                        std::uint64_t seed);

/// Every instance of the arm plus its Min-min reference makespan.
ArmInputs make_arm_inputs(const Arm& arm, std::uint64_t seed);

struct ArmRun {
  std::uint64_t evaluations = 0;
  std::uint64_t replacements = 0;
  double elapsed_s = 0.0;                  ///< summed engine wall time
  std::vector<std::uint64_t> thread_evals;  ///< per thread, over instances
  /// One per instance: thread 0's block-sweep durations, evaluations and
  /// engine wall time.
  std::vector<Slice> slices;
  std::vector<double> ratios;    ///< best / Min-min, per instance

  double evals_per_s() const {
    return elapsed_s > 0.0 ? static_cast<double>(evaluations) / elapsed_s
                           : 0.0;
  }
};

/// Runs every instance of `in` for `seconds_per_instance` with `threads`
/// PA-CGA threads and checks each best schedule.
ArmRun run_arm(const Arm& arm, const ArmInputs& in, std::size_t threads,
               double seconds_per_instance, std::uint64_t seed, Tally& tally,
               SpanLog& spans);

// ---- service_mix ----------------------------------------------------------

struct ServiceRecord {
  double latency_ms = 0.0;  ///< submit() until wait() returned
  double wait_ms = 0.0;     ///< JobResult::queue_wait_seconds
  double solve_ms = 0.0;    ///< JobResult::solve_seconds
  pacga::service::SolvePolicy policy = pacga::service::SolvePolicy::kAuto;
  bool cache_hit = false;
  bool reschedule = false;
  double ratio = 0.0;       ///< makespan / Min-min makespan
};

struct ServingCounters {
  std::uint64_t completed = 0;
  std::uint64_t arena_builds = 0;
  std::uint64_t steals = 0;
};

/// Serving windows are cut into this many equal time slices (the last one
/// also holds the jobs still in flight when the window closes).
inline constexpr std::size_t kTimeSlices = 5;

struct ServiceMixRun {
  std::vector<Slice> slices;  ///< job latencies and completions per slice
  double ratio_sum = 0.0;     ///< sum over completed jobs of makespan/Min-min
  std::uint64_t completed = 0;
  std::vector<ServiceRecord> jobs;  ///< per job, kept in traced windows only
  ServingCounters delta;  ///< service counters over the window
};

class ServiceMix {
 public:
  /// Set-up: instances, Min-min references, service start and warm-up.
  explicit ServiceMix(std::uint64_t seed);

  /// Closed loop for `seconds`; `stream` selects the job sequence, so two
  /// windows of one set-up can replay the same one. `spans` holds one log
  /// per client in a traced window (which also keeps per-job records) and
  /// is empty otherwise.
  ServiceMixRun run(double seconds, std::uint64_t stream, Tally& tally,
                    std::vector<SpanLog>& spans);

 private:
  std::uint64_t seed_;
  std::vector<std::shared_ptr<const pacga::etc::EtcMatrix>> etc_;
  std::vector<double> minmin_;
  std::vector<std::vector<pacga::sched::MachineId>> minmin_assignment_;
  std::mutex repeats_mutex_;
  RepeatCheck repeats_;  ///< guarded by repeats_mutex_; spans every window
  std::unique_ptr<pacga::service::SchedulerService> svc_;
};

/// Service-mix shapes: 12x4 goes to the heuristics under kAuto, the rest
/// to the warm CGA.
struct ServiceShape {
  std::size_t tasks;
  std::size_t machines;
  std::uint64_t max_generations;
};
inline constexpr ServiceShape kServiceShapes[] = {
    {12, 4, 0}, {64, 8, 6}, {128, 16, 4}, {200, 16, 3}};
inline constexpr std::size_t kInstancesPerShape = 32;

/// Instance k of service shape s (the Braun class rotates with the index).
pacga::etc::EtcMatrix make_service_instance(std::size_t s, std::size_t k,
                                            std::uint64_t seed);
inline constexpr std::size_t kServiceClients = 2;
inline constexpr std::size_t kServiceWorkers = 2;

// ---- edge_pipeline --------------------------------------------------------

struct EdgeRecord {
  bool submit = false;      ///< SUBMIT (inline matrix) vs INSTANCE (by name)
  double latency_ms = 0.0;  ///< first request byte sent until RESULT read
  double admit_ms = 0.0;    ///< request sent until its JOB line read
  double wait_leg_ms = 0.0; ///< JOB line read until RESULT read
  double wait_ms = 0.0;     ///< RESULT wait_ms
  double solve_ms = 0.0;    ///< RESULT solve_ms
  bool cache_hit = false;
};

struct EdgeRun {
  std::vector<EdgeRecord> jobs;   ///< per job, kept in traced windows only
  std::uint64_t bytes_in = 0;   ///< request bytes sent by the client
  std::uint64_t bytes_out = 0;  ///< reply bytes read by the client
  std::uint64_t refused = 0;    ///< ERR BUSY replies
};

class EdgePipeline {
 public:
  /// Set-up: instance names and inline payloads with their local Min-min
  /// makespans, service + server start, connections, warm-up.
  explicit EdgePipeline(std::uint64_t seed);
  ~EdgePipeline();
  EdgePipeline(const EdgePipeline&) = delete;
  EdgePipeline& operator=(const EdgePipeline&) = delete;

  EdgeRun run(double seconds, std::uint64_t stream, Tally& tally,
              SpanLog& spans);

 private:
  /// Closes the connections, stops the loop thread, shuts the service down.
  void stop_serving() noexcept;

  struct Conn;
  struct Request {
    std::string text;          ///< request line + WAIT line follow-up prefix
    std::string makespan;      ///< expected RESULT makespan= field
    bool submit = false;
  };

  std::uint64_t seed_;
  std::vector<Request> instance_requests_;
  std::vector<Request> submit_requests_;
  std::unique_ptr<pacga::service::SchedulerService> svc_;
  std::unique_ptr<pacga::net::Server> server_;
  std::thread loop_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::size_t submit_cursor_ = 0;
};

inline constexpr std::size_t kEdgeConnections = 3;

}  // namespace perfbench
