// Property-test harness for the dynamic subsystem.
//
// The incremental machinery (in-place ETC mutation, completion-time cache
// patching, orphan-only repair) is only trustworthy if it survives
// ARBITRARY event streams, so:
//
//  * EventFuzz10k: one seed-pinned stream of 10,000 events applied
//    through a RescheduleSession; after EVERY step the repaired
//    schedule's CT cache is cross-checked against Schedule::validate()
//    (full recomputation) and its makespan against sched::evaluate over
//    a from-scratch Schedule; periodically the incrementally maintained
//    matrix is cross-checked entry-by-entry against a from-scratch
//    rebuild of the mutator's model.
//
//  * Golden determinism: the same seed replayed twice produces
//    byte-identical event logs and identical final assignments, and the
//    warm-pool reschedule path produces the same final schedule no
//    matter how many workers serve it (per-job seeding + capped
//    generations make the solve timing-independent). A second input
//    replays the way the daemon's REPLAY verb does: every event goes
//    through its log line (parse_event(format_event(e))), and returning
//    machines carry ready times.
//
// Both run in Release and under ThreadSanitizer in CI (the tsan job).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "batch/event_stream.hpp"
#include "dynamic/session.hpp"
#include "sched/fitness.hpp"
#include "service/service.hpp"

namespace pacga::dynamic {
namespace {

batch::WorkloadSpec fuzz_workload(std::uint64_t seed) {
  batch::WorkloadSpec w;
  w.tasks = 48;
  w.machines = 8;
  w.seed = seed;
  return w;
}

/// Balanced churn: arrivals == cancels and downs == ups in rate, so the
/// instance random-walks around its starting shape instead of growing
/// without bound over 10k events.
batch::EventStreamSpec fuzz_stream(std::size_t events, std::uint64_t seed) {
  batch::EventStreamSpec s;
  s.initial_tasks = 48;
  s.initial_machines = 8;
  s.arrival_rate = 2.0;
  s.cancel_rate = 2.0;
  s.down_rate = 0.5;
  s.up_rate = 0.5;
  s.slowdown_rate = 1.0;
  s.max_events = events;
  s.seed = seed;
  return s;
}

TEST(DynamicProperty, EventFuzz10k) {
  constexpr std::size_t kEvents = 10000;
  constexpr std::uint64_t kSeed = 0xf0220ed;  // seed-pinned: reproducible
  const auto stream = batch::generate_event_stream(fuzz_stream(kEvents, kSeed));
  ASSERT_EQ(stream.size(), kEvents);

  RescheduleSession session(fuzz_workload(kSeed));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_NO_THROW(session.apply(stream[i]))
        << "event " << i << ": " << format_event(stream[i]);
    const sched::Schedule& s = session.schedule();

    // 1. The incrementally patched CT cache == full recomputation.
    ASSERT_TRUE(s.validate())
        << "CT cache diverged at event " << i << ": "
        << format_event(stream[i]);

    // 2. The repaired fitness == sched::evaluate from scratch.
    const sched::Schedule fresh(session.etc(),
                                {s.assignment().begin(), s.assignment().end()});
    const double scratch =
        sched::evaluate(fresh, sched::Objective::kMakespan, 0.75);
    ASSERT_NEAR(s.makespan(), scratch, 1e-6 * scratch)
        << "fitness diverged at event " << i;

    // 3. Shape bookkeeping never drifts.
    ASSERT_EQ(s.tasks(), session.tasks());
    ASSERT_EQ(s.machines(), session.machines());

    // 4. Periodically: the in-place mutated matrix == a from-scratch
    // materialization of the model (the slowdown path's FP drift must
    // stay far inside tolerance).
    if (i % 500 == 499) {
      const etc::EtcMatrix rebuilt = session.mutator().rebuild();
      ASSERT_EQ(rebuilt.tasks(), session.etc().tasks());
      ASSERT_EQ(rebuilt.machines(), session.etc().machines());
      for (std::size_t t = 0; t < rebuilt.tasks(); ++t) {
        for (std::size_t m = 0; m < rebuilt.machines(); ++m) {
          ASSERT_NEAR(session.etc()(t, m), rebuilt(t, m),
                      1e-9 * rebuilt(t, m))
              << "matrix drifted at event " << i << " entry (" << t << ","
              << m << ")";
        }
      }
    }
  }
  // The walk actually exercised the instance: it must have churned away
  // from the starting shape at least once (guards against a degenerate
  // stream silently testing nothing).
  EXPECT_EQ(session.events_applied(), kEvents);
  EXPECT_GT(session.shape_epoch(), 0u);
}

// --- golden determinism ----------------------------------------------------

struct GoldenRun {
  std::string event_log;
  std::vector<sched::MachineId> final_assignment;
  double final_makespan = 0.0;
};

constexpr std::uint64_t kSeed = 77;

struct GoldenInput {
  batch::EventStreamSpec stream;
  /// Apply each event as parsed back from its log line, as REPLAY does.
  bool via_log_line = false;
};

/// One fixed-seed dynamic scenario: a warm-pool reschedule every 60
/// events (generation-capped and seeded, so the solve is a pure function
/// of its inputs), improvements adopted. Deterministic by construction —
/// the point of the test is to PROVE that.
GoldenRun run_golden_scenario(const GoldenInput& input, std::size_t workers) {
  GoldenRun run;
  const auto stream = batch::generate_event_stream(input.stream);

  service::ServiceOptions options;
  options.workers = workers;
  options.cache_capacity = 0;  // cache off: adoption decides reuse here
  service::SchedulerService svc(options);

  RescheduleSession session(fuzz_workload(kSeed));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::string line = format_event(stream[i]);
    (void)session.apply(input.via_log_line ? parse_event(line) : stream[i]);
    run.event_log += line;
    run.event_log += '\n';
    if (i % 60 == 59) {
      service::JobSpec spec =
          session.make_reschedule_spec(0, /*deadline_ms=*/10000.0,
                                       /*seed=*/kSeed + i);
      spec.policy = service::SolvePolicy::kCga;
      spec.max_generations = 10;  // timing-independent determinism
      const service::JobResult r = svc.wait(svc.submit_reschedule(std::move(spec)));
      EXPECT_EQ(r.status, service::JobStatus::kDone);
      (void)session.adopt(r.assignment);
    }
  }
  const auto a = session.schedule().assignment();
  run.final_assignment.assign(a.begin(), a.end());
  run.final_makespan = session.schedule().makespan();
  return run;
}

TEST(DynamicGolden, ReplayIsByteIdenticalAcrossRunsAndThreadCounts) {
  GoldenInput replayed{fuzz_stream(300, kSeed), /*via_log_line=*/true};
  replayed.stream.up_ready_hi = 200.0;  // returning machines carry work
  for (const GoldenInput& input :
       {GoldenInput{fuzz_stream(300, kSeed)}, replayed}) {
    SCOPED_TRACE(input.via_log_line ? "via log lines" : "via structs");
    const GoldenRun first = run_golden_scenario(input, /*workers=*/1);
    const GoldenRun again = run_golden_scenario(input, /*workers=*/1);
    EXPECT_EQ(first.event_log, again.event_log)
        << "event log must replay byte-identically";
    EXPECT_EQ(first.final_assignment, again.final_assignment);
    EXPECT_DOUBLE_EQ(first.final_makespan, again.final_makespan);

    // The warm-pool path must not let worker count (scheduling, arena
    // reuse order) leak into results: per-job seeding makes each solve a
    // pure function of (etc, spec).
    const GoldenRun pooled = run_golden_scenario(input, /*workers=*/3);
    EXPECT_EQ(first.event_log, pooled.event_log);
    EXPECT_EQ(first.final_assignment, pooled.final_assignment);
    EXPECT_DOUBLE_EQ(first.final_makespan, pooled.final_makespan);
    if (input.via_log_line) {  // the stream really carries ready times
      EXPECT_NE(first.event_log.find(" ready="), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace pacga::dynamic
