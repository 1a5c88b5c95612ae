// Dynamic-subsystem unit tests:
//
//  * GridEvent factories and the stable log format (the golden contract);
//  * EtcMutator: initial instance identical to the static workload path,
//    in-place slowdown (both layouts, summary refresh), shape-changing
//    rebuilds, execution-profile stability under churn, the accumulated
//    slowdown clamp, and the grid invariants (throwing apply leaves the
//    instance untouched);
//  * ScheduleRepairer: every event kind repairs to a validate()-clean
//    schedule, only orphans move, both reassignment policies;
//  * batch::generate_event_stream: determinism, legality against a live
//    mutator, per-kind rate gating;
//  * RescheduleSession: end-to-end event application, warm-start spec
//    production, stale-shape adopt rejection;
//  * Population::seed_cell: the warm-start injection point.
#include "dynamic/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "batch/event_stream.hpp"
#include "cga/population.hpp"
#include "heuristics/minmin.hpp"
#include "sched/fitness.hpp"
#include "reference_checks.hpp"

namespace pacga::dynamic {
namespace {

batch::WorkloadSpec small_spec(std::uint64_t seed = 5) {
  batch::WorkloadSpec w;
  w.tasks = 24;
  w.machines = 6;
  w.seed = seed;
  return w;
}

// --- events ----------------------------------------------------------------

TEST(GridEvent, FactoriesSetExactlyTheirFields) {
  const GridEvent down = machine_down(3, 1.5);
  EXPECT_EQ(down.kind, EventKind::kMachineDown);
  EXPECT_EQ(down.machine, 3u);
  EXPECT_DOUBLE_EQ(down.time, 1.5);

  const GridEvent slow = machine_slowdown(2, 1.75);
  EXPECT_EQ(slow.kind, EventKind::kMachineSlowdown);
  EXPECT_DOUBLE_EQ(slow.factor, 1.75);

  const GridEvent arrive = task_arrival(123.0);
  EXPECT_EQ(arrive.kind, EventKind::kTaskArrival);
  EXPECT_DOUBLE_EQ(arrive.value, 123.0);
}

TEST(GridEvent, FormatIsStable) {
  EXPECT_EQ(format_event(machine_down(3, 1.5)), "t=1.500000 down machine=3");
  EXPECT_EQ(format_event(machine_up(2.5, 0.25)), "t=0.250000 up mips=2.500000");
  EXPECT_EQ(format_event(machine_slowdown(1, 2.0, 0.5)),
            "t=0.500000 slowdown machine=1 factor=2.000000");
  EXPECT_EQ(format_event(task_arrival(10.0, 2.0)),
            "t=2.000000 arrival workload=10.000000");
  EXPECT_EQ(format_event(task_cancel(7, 3.0)), "t=3.000000 cancel task=7");
  EXPECT_EQ(format_event(epoch_commit(250.0, 4.0)),
            "t=4.000000 commit elapsed=250.000000");
  // The optional ready field appears only when set, so pre-ready-time
  // event logs keep their byte format.
  EXPECT_EQ(format_event(machine_up_ready(2.5, 80.0, 0.25)),
            "t=0.250000 up mips=2.500000 ready=80.000000");
}

TEST(GridEvent, EveryKindRoundTripsThroughTheParser) {
  // The parser is load-bearing for the daemon's REPLAY verb: a serialized
  // stream must come back as the events it was written from. Values here
  // are exactly representable at the log's 6-decimal precision, so the
  // round trip is field-exact.
  const GridEvent cases[] = {
      machine_down(3, 1.5),
      machine_up(2.5, 0.25),
      machine_up_ready(4.75, 120.5, 2.25),
      // An INVALID ready must round-trip too: a replayed log has to
      // reproduce the live session's rejection, not silently drop the
      // field and apply a ready-free join.
      machine_up_ready(4.0, -3.0, 1.0),
      machine_slowdown(1, 2.0, 0.5),
      task_arrival(1500.125, 2.0),
      task_cancel(7, 3.0),
      epoch_commit(250.0, 4.0),
  };
  for (const GridEvent& e : cases) {
    const std::string line = format_event(e);
    EXPECT_EQ(parse_event(line), e) << line;
    // And the line itself is the fixed point of a second round trip.
    EXPECT_EQ(format_event(parse_event(line)), line);
  }
}

TEST(GridEvent, ReadyRenderingToZeroIsCanonicallyZero) {
  // A ready whose 6-decimal rendering is (-)0.000000 is dropped from the
  // line entirely: emitting it would parse back to 0.0 and vanish on the
  // next format, breaking the canonical-form fixed point.
  EXPECT_EQ(format_event(machine_up_ready(2.5, 1e-9, 0.25)),
            format_event(machine_up(2.5, 0.25)));
  EXPECT_EQ(format_event(machine_up_ready(2.5, -1e-9, 0.25)),
            format_event(machine_up(2.5, 0.25)));
  // Just past the rounding threshold the field survives and round-trips.
  const std::string line = format_event(machine_up_ready(2.5, 1e-6, 0.25));
  EXPECT_EQ(line, "t=0.250000 up mips=2.500000 ready=0.000001");
  EXPECT_EQ(format_event(parse_event(line)), line);
}

TEST(GridEvent, ExtremeLegalValuesNeverTruncate) {
  // %f renders ~316 chars for a near-max double; the format buffer must
  // cover it, or a clamped line could re-parse as a DIFFERENT event and
  // silently diverge a replay. 1e300 is a legal workload/mips/ready (the
  // mutator only requires positive finite).
  for (const GridEvent& e :
       {task_arrival(1e300, 1.0), machine_up(1e300, 1.0),
        machine_up_ready(1e300, 1e300, 1.0), epoch_commit(1e300, 1.0),
        // The compound worst case: all three %f fields near max width.
        machine_up_ready(1e300, 1e300, 1e300)}) {
    const std::string line = format_event(e);
    EXPECT_GT(line.size(), 300u);
    EXPECT_EQ(format_event(parse_event(line)), line);
    EXPECT_EQ(parse_event(line), e);  // 1e300 is 6-decimal exact
  }
}

TEST(GridEvent, GeneratedStreamsRoundTripByteForByte) {
  // Arbitrary generated values truncate to the log's 6-decimal precision,
  // so the LINE is the canonical form: format(parse(line)) == line for
  // every event the generator can emit (ready-carrying joins included).
  batch::EventStreamSpec spec;
  spec.initial_tasks = 24;
  spec.initial_machines = 6;
  spec.up_ready_hi = 250.0;
  spec.max_events = 500;
  spec.seed = 11;
  for (const GridEvent& e : batch::generate_event_stream(spec)) {
    const std::string line = format_event(e);
    EXPECT_EQ(format_event(parse_event(line)), line) << line;
  }
}

TEST(GridEvent, ParserRejectsMalformedLines) {
  EXPECT_THROW(parse_event(""), std::invalid_argument);
  EXPECT_THROW(parse_event("down machine=1"), std::invalid_argument);
  EXPECT_THROW(parse_event("t=notanumber down machine=1"),
               std::invalid_argument);
  EXPECT_THROW(parse_event("t=1.0 explode machine=1"), std::invalid_argument);
  EXPECT_THROW(parse_event("t=1.0 down"), std::invalid_argument);
  EXPECT_THROW(parse_event("t=1.0 down task=1"), std::invalid_argument);
  EXPECT_THROW(parse_event("t=1.0 down machine=xyz"), std::invalid_argument);
  // strtoull would silently wrap a negative index to SIZE_MAX.
  EXPECT_THROW(parse_event("t=1.0 down machine=-1"), std::invalid_argument);
  EXPECT_THROW(parse_event("t=1.0 cancel task=-7"), std::invalid_argument);
  EXPECT_THROW(parse_event("t=1.0 up mips=2.0 bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(parse_event("t=1.0 cancel task=7 extra"),
               std::invalid_argument);
  EXPECT_THROW(parse_event("t=1.0 slowdown machine=1 factor=2.0 junk=3"),
               std::invalid_argument);
}

// --- EtcMutator ------------------------------------------------------------

TEST(EtcMutator, InitialInstanceMatchesStaticWorkloadPath) {
  const auto spec = small_spec();
  EtcMutator mut(spec);
  const etc::EtcMatrix reference = batch::make_workload_etc(spec);
  EXPECT_EQ(mut.etc().fingerprint(), reference.fingerprint());
}

TEST(EtcMutator, SlowdownScalesInPlaceBothLayouts) {
  EtcMutator mut(small_spec());
  const etc::EtcMatrix before = mut.etc();  // snapshot copy
  const auto out = mut.apply(machine_slowdown(2, 1.5));
  EXPECT_FALSE(out.shape_changed);
  EXPECT_DOUBLE_EQ(out.factor, 1.5);
  const etc::EtcMatrix& after = mut.etc();
  for (std::size_t t = 0; t < before.tasks(); ++t) {
    for (std::size_t m = 0; m < before.machines(); ++m) {
      const double expected = m == 2 ? before(t, m) * 1.5 : before(t, m);
      EXPECT_DOUBLE_EQ(after(t, m), expected);
      // Both stored copies: the task-major row and the machine-major column.
      EXPECT_DOUBLE_EQ(after.of_task(t)[m], expected);
      EXPECT_DOUBLE_EQ(after.on_machine(m)[t], expected);
    }
  }
  EXPECT_NE(after.fingerprint(), before.fingerprint());  // summary refreshed
}

TEST(EtcMutator, SlowdownClampBoundsAccumulation) {
  EtcMutator mut(small_spec());
  const double e0 = mut.etc()(0, 0);
  for (int i = 0; i < 100; ++i) {
    (void)mut.apply(machine_slowdown(0, 3.0));
  }
  // 3^100 would overflow; the clamp pins accumulated slowdown at kMax.
  EXPECT_NEAR(mut.etc()(0, 0), e0 * EtcMutator::kMaxSlowdown,
              1e-9 * e0 * EtcMutator::kMaxSlowdown);
  // And recovery works back down.
  for (int i = 0; i < 200; ++i) {
    (void)mut.apply(machine_slowdown(0, 0.5));
  }
  EXPECT_NEAR(mut.etc()(0, 0), e0 / EtcMutator::kMaxSlowdown,
              1e-9 * e0 / EtcMutator::kMaxSlowdown);
}

TEST(EtcMutator, ClampPinsOutcomeFactorAtBothEdges) {
  // The [1/64, 64] accumulated-slowdown clamp is part of the API contract
  // (mutator.hpp): at either edge the event is PARTIALLY applied and
  // Outcome::factor reports what was realized — exactly 1.0 once the
  // machine is pinned and the event pushes further outward.
  EtcMutator mut(small_spec());
  const double e0 = mut.etc()(0, 0);

  // Upper edge: 32 * 4 = 128 overshoots; only 64/32 = 2 is realized.
  (void)mut.apply(machine_slowdown(0, 32.0));
  auto out = mut.apply(machine_slowdown(0, 4.0));
  EXPECT_DOUBLE_EQ(out.factor, 2.0);
  out = mut.apply(machine_slowdown(0, 1.5));  // pinned: swallowed entirely
  EXPECT_DOUBLE_EQ(out.factor, 1.0);
  EXPECT_NEAR(mut.etc()(0, 0), e0 * EtcMutator::kMaxSlowdown,
              1e-9 * e0 * EtcMutator::kMaxSlowdown);
  // A recovery moves a pinned machine off the edge normally.
  out = mut.apply(machine_slowdown(0, 0.5));
  EXPECT_DOUBLE_EQ(out.factor, 0.5);

  // Lower edge: accumulated 1/32 (= 64/32/64), pushing to 1/128 realizes
  // only 1/2; once pinned, a further recovery is swallowed.
  out = mut.apply(machine_slowdown(0, 1.0 / 64.0));
  EXPECT_DOUBLE_EQ(out.factor, 1.0 / 64.0);  // 32 -> 1/2: inside the range
  out = mut.apply(machine_slowdown(0, 1.0 / 128.0));
  EXPECT_DOUBLE_EQ(out.factor, 1.0 / 32.0);  // 1/2 -> clamped at 1/64
  out = mut.apply(machine_slowdown(0, 0.25));
  EXPECT_DOUBLE_EQ(out.factor, 1.0);  // pinned at the lower edge
  EXPECT_NEAR(mut.etc()(0, 0), e0 / EtcMutator::kMaxSlowdown,
              1e-9 * e0 / EtcMutator::kMaxSlowdown);
  // Model and matrix stayed in lockstep through every clamped apply.
  EXPECT_EQ(mut.etc().fingerprint(), mut.rebuild().fingerprint());
}

TEST(EtcMutator, MachineUpReadyMaterializesIntoTheMatrix) {
  EtcMutator mut(small_spec());
  const auto out = mut.apply(machine_up_ready(4.0, 75.0));
  EXPECT_TRUE(out.shape_changed);
  EXPECT_EQ(out.machine, 6u);
  EXPECT_DOUBLE_EQ(mut.etc().ready(6), 75.0);
  for (std::size_t m = 0; m < 6; ++m) {
    EXPECT_DOUBLE_EQ(mut.etc().ready(m), 0.0);
  }
  // Ready times survive rebuilds and participate in the fingerprint.
  EXPECT_EQ(mut.etc().fingerprint(), mut.rebuild().fingerprint());
  EXPECT_THROW(mut.apply(machine_up_ready(4.0, -1.0)), std::invalid_argument);
  EXPECT_THROW(
      mut.apply(machine_up_ready(4.0, std::numeric_limits<double>::infinity())),
      std::invalid_argument);
}

TEST(EtcMutator, CommitEpochFeedsStartedWorkBackIntoReady) {
  const auto spec = small_spec();
  EtcMutator mut(spec);
  const sched::Schedule schedule = heur::min_min(mut.etc());
  const std::vector<double> before(schedule.completions().begin(),
                                   schedule.completions().end());
  const double elapsed = schedule.makespan() * 0.5;

  const auto out = mut.commit_epoch(schedule.assignment(), elapsed);
  EXPECT_EQ(out.removed_tasks.size(), out.completed + out.in_flight);
  EXPECT_GT(out.removed_tasks.size(), 0u);
  EXPECT_LT(out.removed_tasks.size(), 24u);
  EXPECT_EQ(mut.tasks(), 24u - out.removed_tasks.size());
  EXPECT_EQ(out.old_ready, std::vector<double>(6, 0.0));

  // The committed work's remainder is each machine's new ready time:
  // since every machine ran its queue from t=0, the boundary cuts its
  // completion to max(0, completion - elapsed) — and that remainder is
  // exactly what the new ready times + remaining assignments must re-add.
  for (std::size_t m = 0; m < 6; ++m) {
    EXPECT_GE(mut.etc().ready(m), 0.0);
    EXPECT_LE(mut.etc().ready(m), std::max(0.0, before[m] - elapsed) + 1e-9);
  }
  EXPECT_EQ(mut.etc().fingerprint(), mut.rebuild().fingerprint());

  // Execution profiles of surviving tasks are untouched (stable uids).
  EXPECT_EQ(mut.etc().tasks(), mut.tasks());
}

TEST(EtcMutator, CommitEpochValidatesAndLeavesInstanceOnThrow) {
  EtcMutator mut(small_spec());
  const sched::Schedule schedule = heur::min_min(mut.etc());
  const auto fp = mut.etc().fingerprint();

  // Wrong assignment size.
  const std::vector<sched::MachineId> short_assignment(23, 0);
  EXPECT_THROW(mut.commit_epoch(short_assignment, 10.0),
               std::invalid_argument);
  // Out-of-range machine id.
  std::vector<sched::MachineId> bad(24, 0);
  bad[3] = 6;
  EXPECT_THROW(mut.commit_epoch(bad, 10.0), std::invalid_argument);
  // Non-positive elapsed.
  EXPECT_THROW(mut.commit_epoch(schedule.assignment(), 0.0),
               std::invalid_argument);
  // A window past the makespan would commit everything: domain error.
  EXPECT_THROW(
      mut.commit_epoch(schedule.assignment(), schedule.makespan() * 2.0),
      std::domain_error);

  EXPECT_EQ(mut.etc().fingerprint(), fp);
  EXPECT_EQ(mut.tasks(), 24u);
  EXPECT_EQ(mut.events_applied(), 0u);
}

TEST(EtcMutator, ShapeChangesReportOutcome) {
  EtcMutator mut(small_spec());
  auto out = mut.apply(task_arrival(500.0));
  EXPECT_TRUE(out.shape_changed);
  EXPECT_EQ(out.task, 24u);  // appended at the end
  EXPECT_EQ(mut.tasks(), 25u);

  out = mut.apply(machine_up(4.0));
  EXPECT_TRUE(out.shape_changed);
  EXPECT_EQ(out.machine, 6u);
  EXPECT_EQ(mut.machines(), 7u);

  out = mut.apply(machine_down(2));
  EXPECT_EQ(out.machine, 2u);
  EXPECT_EQ(mut.machines(), 6u);

  out = mut.apply(task_cancel(10));
  EXPECT_EQ(out.task, 10u);
  EXPECT_EQ(out.removed_task_etc.size(), 6u);
  EXPECT_EQ(mut.tasks(), 24u);
}

TEST(EtcMutator, CancelOutcomeCarriesExactRemovedRow) {
  EtcMutator mut(small_spec());
  std::vector<double> row;
  {
    const auto span = mut.etc().of_task(10);
    row.assign(span.begin(), span.end());
  }
  const auto out = mut.apply(task_cancel(10));
  EXPECT_EQ(out.removed_task_etc, row);
}

TEST(EtcMutator, ExecutionProfilesSurviveChurn) {
  // A task's ETC row (vs surviving machines) must be unchanged by
  // unrelated arrivals/cancels — the stable-uid noise contract.
  EtcMutator mut(small_spec());
  const double kept = mut.etc()(20, 3);
  (void)mut.apply(task_cancel(0));   // task 20 shifts to row 19
  (void)mut.apply(task_arrival(77.0));
  (void)mut.apply(machine_down(0));  // machine 3 shifts to column 2
  EXPECT_DOUBLE_EQ(mut.etc()(19, 2), kept);
}

TEST(EtcMutator, RebuildAgreesWithIncrementalMatrix) {
  EtcMutator mut(small_spec());
  (void)mut.apply(machine_slowdown(1, 1.7));
  (void)mut.apply(task_arrival(900.0));
  (void)mut.apply(machine_slowdown(1, 1.3));
  (void)mut.apply(machine_down(4));
  const etc::EtcMatrix rebuilt = mut.rebuild();
  ASSERT_EQ(rebuilt.tasks(), mut.tasks());
  ASSERT_EQ(rebuilt.machines(), mut.machines());
  for (std::size_t t = 0; t < rebuilt.tasks(); ++t) {
    for (std::size_t m = 0; m < rebuilt.machines(); ++m) {
      EXPECT_NEAR(mut.etc()(t, m), rebuilt(t, m), 1e-9 * rebuilt(t, m));
    }
  }
}

TEST(EtcMutator, InvariantViolationsThrowAndLeaveInstanceUntouched) {
  batch::WorkloadSpec w = small_spec();
  w.tasks = 1;
  w.machines = 1;
  EtcMutator mut(w);
  const std::uint64_t fp = mut.etc().fingerprint();
  EXPECT_THROW(mut.apply(machine_down(0)), std::domain_error);
  EXPECT_THROW(mut.apply(task_cancel(0)), std::domain_error);
  EXPECT_THROW(mut.apply(machine_down(5)), std::invalid_argument);
  EXPECT_THROW(mut.apply(task_cancel(5)), std::invalid_argument);
  EXPECT_THROW(mut.apply(machine_slowdown(0, -1.0)), std::invalid_argument);
  EXPECT_THROW(mut.apply(machine_up(0.0)), std::invalid_argument);
  EXPECT_THROW(mut.apply(task_arrival(-3.0)), std::invalid_argument);
  EXPECT_EQ(mut.etc().fingerprint(), fp);
  EXPECT_EQ(mut.events_applied(), 0u);
}

// --- ScheduleRepairer ------------------------------------------------------

struct RepairFixture {
  RepairFixture() : mut(small_spec()), schedule(heur::min_min(mut.etc())) {}

  RepairStats apply(const GridEvent& e, RepairPolicy policy) {
    ScheduleRepairer repairer(policy);
    const auto outcome = mut.apply(e);
    return repairer.repair(outcome, mut.etc(), schedule);
  }

  EtcMutator mut;
  sched::Schedule schedule;
};

TEST(ScheduleRepairer, MachineDownOrphansOnlyItsTasks) {
  for (const RepairPolicy policy :
       {RepairPolicy::kMinMin, RepairPolicy::kSufferage}) {
    RepairFixture f;
    const std::size_t on_down = f.schedule.tasks_on(2);
    std::vector<sched::MachineId> before(f.schedule.assignment().begin(),
                                         f.schedule.assignment().end());
    const RepairStats stats = f.apply(machine_down(2), policy);
    EXPECT_EQ(stats.orphaned, on_down);
    EXPECT_EQ(stats.reassigned, on_down);
    EXPECT_TRUE(stats.shape_changed);
    ASSERT_EQ(f.schedule.machines(), 5u);
    EXPECT_TRUE(f.schedule.validate());
    // Non-orphans keep their machine, modulo the index shift.
    for (std::size_t t = 0; t < before.size(); ++t) {
      if (before[t] == 2) continue;
      const sched::MachineId expected =
          before[t] > 2 ? static_cast<sched::MachineId>(before[t] - 1)
                        : before[t];
      EXPECT_EQ(f.schedule.machine_of(t), expected);
    }
  }
}

TEST(ScheduleRepairer, ArrivalPlacesExactlyTheNewTask) {
  RepairFixture f;
  std::vector<sched::MachineId> before(f.schedule.assignment().begin(),
                                       f.schedule.assignment().end());
  const RepairStats stats = f.apply(task_arrival(1234.0), RepairPolicy::kMinMin);
  EXPECT_EQ(stats.orphaned, 1u);
  ASSERT_EQ(f.schedule.tasks(), 25u);
  EXPECT_TRUE(f.schedule.validate());
  for (std::size_t t = 0; t < before.size(); ++t) {
    EXPECT_EQ(f.schedule.machine_of(t), before[t]);
  }
}

TEST(ScheduleRepairer, CancelShedsLoadWithoutMovingOthers) {
  RepairFixture f;
  std::vector<sched::MachineId> before(f.schedule.assignment().begin(),
                                       f.schedule.assignment().end());
  const sched::MachineId victim_machine = before[10];
  const double load_before = f.schedule.completion(victim_machine);
  const RepairStats stats = f.apply(task_cancel(10), RepairPolicy::kMinMin);
  EXPECT_EQ(stats.orphaned, 0u);
  ASSERT_EQ(f.schedule.tasks(), 23u);
  EXPECT_TRUE(f.schedule.validate());
  EXPECT_LT(f.schedule.completion(victim_machine), load_before);
  for (std::size_t t = 0; t < f.schedule.tasks(); ++t) {
    EXPECT_EQ(f.schedule.machine_of(t), before[t < 10 ? t : t + 1]);
  }
}

TEST(ScheduleRepairer, UpAndSlowdownKeepAssignmentPatchCache) {
  RepairFixture f;
  const double makespan0 = f.schedule.makespan();
  RepairStats stats = f.apply(machine_up(7.5), RepairPolicy::kMinMin);
  EXPECT_EQ(stats.orphaned, 0u);
  ASSERT_EQ(f.schedule.machines(), 7u);
  EXPECT_TRUE(f.schedule.validate());
  EXPECT_DOUBLE_EQ(f.schedule.completion(6), 0.0);  // newcomer idle
  EXPECT_DOUBLE_EQ(f.schedule.makespan(), makespan0);

  stats = f.apply(machine_slowdown(0, 2.0), RepairPolicy::kMinMin);
  EXPECT_EQ(stats.orphaned, 0u);
  EXPECT_FALSE(stats.shape_changed);
  EXPECT_TRUE(f.schedule.validate());
}

// The repairer's orphan reassignment runs the cached-best-machine +
// invalidation rewrite; this reference is the naive exhaustive-rescan
// loop it replaced (global scan per round, in-order strict comparisons).
// The rewrite must match it pick for pick — including exact ties.
void naive_reassign(const etc::EtcMatrix& etc, RepairPolicy policy,
                    std::vector<sched::MachineId>& assignment,
                    std::vector<double>& completion,
                    std::vector<std::size_t> orphans) {
  while (!orphans.empty()) {
    std::size_t pick_pos = 0;
    sched::MachineId pick_machine = 0;
    if (policy == RepairPolicy::kMinMin) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < orphans.size(); ++i) {
        const std::size_t t = orphans[i];
        for (std::size_t m = 0; m < etc.machines(); ++m) {
          const double c = completion[m] + etc(t, m);
          if (c < best) {
            best = c;
            pick_pos = i;
            pick_machine = static_cast<sched::MachineId>(m);
          }
        }
      }
    } else {
      double best_sufferage = -1.0;
      for (std::size_t i = 0; i < orphans.size(); ++i) {
        const std::size_t t = orphans[i];
        double best = std::numeric_limits<double>::infinity();
        double second = std::numeric_limits<double>::infinity();
        sched::MachineId best_m = 0;
        for (std::size_t m = 0; m < etc.machines(); ++m) {
          const double c = completion[m] + etc(t, m);
          if (c < best) {
            second = best;
            best = c;
            best_m = static_cast<sched::MachineId>(m);
          } else if (c < second) {
            second = c;
          }
        }
        const double sufferage = etc.machines() > 1 ? second - best : 0.0;
        if (sufferage > best_sufferage) {
          best_sufferage = sufferage;
          pick_pos = i;
          pick_machine = best_m;
        }
      }
    }
    const std::size_t task = orphans[pick_pos];
    assignment[task] = pick_machine;
    completion[pick_machine] += etc(task, pick_machine);
    orphans.erase(orphans.begin() + static_cast<std::ptrdiff_t>(pick_pos));
  }
}

TEST(ScheduleRepairer, CachedReassignmentMatchesNaiveReference) {
  for (const auto policy : {RepairPolicy::kMinMin, RepairPolicy::kSufferage}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      batch::WorkloadSpec w = small_spec(seed);
      w.tasks = 60;
      w.machines = 8;
      RescheduleSession session(w, policy);

      // Machine-down: the multi-orphan case. Snapshot the pre-event
      // state, replay the remap + naive reassignment by hand, and demand
      // the repaired schedule match assignment for assignment.
      const auto pre_assign = session.schedule().assignment();
      const auto pre_completion = session.schedule().completions();
      const std::size_t down = seed % w.machines;
      std::vector<sched::MachineId> expect(pre_assign.begin(),
                                           pre_assign.end());
      std::vector<double> completion(pre_completion.begin(),
                                     pre_completion.end());
      std::vector<std::size_t> orphans;
      for (std::size_t t = 0; t < expect.size(); ++t) {
        if (expect[t] == down) {
          orphans.push_back(t);
        } else if (expect[t] > down) {
          --expect[t];
        }
      }
      completion.erase(completion.begin() + static_cast<std::ptrdiff_t>(down));
      session.apply(machine_down(down));
      naive_reassign(session.etc(), policy, expect, completion, orphans);
      ASSERT_EQ(session.schedule().assignment().size(), expect.size());
      for (std::size_t t = 0; t < expect.size(); ++t) {
        ASSERT_EQ(session.schedule().machine_of(t), expect[t])
            << "policy " << static_cast<int>(policy) << " seed " << seed
            << " task " << t;
      }

      // Task arrival: the single-orphan case on the already-churned grid.
      auto arrived(std::vector<sched::MachineId>(
          session.schedule().assignment().begin(),
          session.schedule().assignment().end()));
      std::vector<double> arr_completion(session.schedule().completions().begin(),
                                         session.schedule().completions().end());
      session.apply(task_arrival(1500.0));
      arrived.push_back(0);
      naive_reassign(session.etc(), policy, arrived, arr_completion,
                     {arrived.size() - 1});
      for (std::size_t t = 0; t < arrived.size(); ++t) {
        ASSERT_EQ(session.schedule().machine_of(t), arrived[t])
            << "policy " << static_cast<int>(policy) << " seed " << seed
            << " arrival task " << t;
      }
    }
  }
}

TEST(ScheduleRepairer, StaleScheduleShapeThrows) {
  EtcMutator mut(small_spec());
  sched::Schedule schedule = heur::min_min(mut.etc());
  ScheduleRepairer repairer;
  (void)mut.apply(task_arrival(100.0));
  const auto second = mut.apply(task_arrival(100.0));
  // `schedule` is TWO events behind; repairing it with only the latest
  // outcome cannot line the sizes up and must throw without touching it.
  const double makespan = schedule.makespan();
  EXPECT_THROW(repairer.repair(second, mut.etc(), schedule),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(schedule.makespan(), makespan);
}

// --- event stream ----------------------------------------------------------

batch::EventStreamSpec stream_spec(std::uint64_t seed = 9) {
  batch::EventStreamSpec s;
  s.initial_tasks = 24;
  s.initial_machines = 6;
  s.max_events = 200;
  s.seed = seed;
  return s;
}

TEST(EventStream, DeterministicInSeed) {
  const auto a = batch::generate_event_stream(stream_spec());
  const auto b = batch::generate_event_stream(stream_spec());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(format_event(a[i]), format_event(b[i]));
  }
  const auto c = batch::generate_event_stream(stream_spec(10));
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = format_event(a[i]) != format_event(c[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(EventStream, EveryEventIsLegalAgainstALiveMutator) {
  auto spec = stream_spec();
  spec.max_events = 500;
  // Aggressive churn rates to stress the legality gating.
  spec.cancel_rate = 4.0;
  spec.down_rate = 2.0;
  const auto stream = batch::generate_event_stream(spec);
  ASSERT_EQ(stream.size(), 500u);
  batch::WorkloadSpec w = small_spec();
  EtcMutator mut(w);
  for (const auto& e : stream) {
    ASSERT_NO_THROW(mut.apply(e)) << format_event(e);
  }
}

TEST(EventStream, ZeroRateDisablesAKind) {
  auto spec = stream_spec();
  spec.arrival_rate = 0.0;
  spec.cancel_rate = 0.0;
  spec.down_rate = 0.0;
  spec.up_rate = 0.0;  // only slowdowns remain
  const auto stream = batch::generate_event_stream(spec);
  ASSERT_FALSE(stream.empty());
  for (const auto& e : stream) {
    EXPECT_EQ(e.kind, EventKind::kMachineSlowdown);
  }
}

TEST(EventStream, UpReadyKnobGatesJoiningReadyTimes) {
  batch::EventStreamSpec spec;
  spec.initial_tasks = 16;
  spec.initial_machines = 4;
  spec.arrival_rate = spec.cancel_rate = spec.down_rate = 0.0;
  spec.slowdown_rate = 0.0;
  spec.up_rate = 1.0;
  spec.max_events = 64;
  spec.seed = 3;

  // Default: joins are ready-free (the pre-ready-time byte format).
  for (const GridEvent& e : batch::generate_event_stream(spec)) {
    ASSERT_EQ(e.kind, EventKind::kMachineUp);
    EXPECT_DOUBLE_EQ(e.ready, 0.0);
  }
  // With the knob: every join carries ready in [0, hi), and the stream is
  // legal against a live session (ready times repair cleanly).
  spec.up_ready_hi = 300.0;
  bool any_positive = false;
  RescheduleSession session(small_spec());
  for (const GridEvent& e : batch::generate_event_stream(spec)) {
    EXPECT_GE(e.ready, 0.0);
    EXPECT_LT(e.ready, 300.0);
    any_positive = any_positive || e.ready > 0.0;
    (void)session.apply(e);
    ASSERT_TRUE(session.schedule().validate()) << format_event(e);
  }
  EXPECT_TRUE(any_positive);
}

TEST(EventStream, ValidatesSpec) {
  auto spec = stream_spec();
  spec.duration = 0.0;
  EXPECT_THROW(batch::generate_event_stream(spec), std::invalid_argument);
  spec = stream_spec();
  spec.arrival_rate = -1.0;
  EXPECT_THROW(batch::generate_event_stream(spec), std::invalid_argument);
  spec = stream_spec();
  spec.arrival_rate = spec.cancel_rate = spec.down_rate = spec.up_rate =
      spec.slowdown_rate = 0.0;
  EXPECT_THROW(batch::generate_event_stream(spec), std::invalid_argument);
  spec = stream_spec();
  spec.initial_machines = 0;
  EXPECT_THROW(batch::generate_event_stream(spec), std::invalid_argument);
  spec = stream_spec();
  spec.slowdown_lo = 0.5;  // factors below 1 arise via inversion, not range
  EXPECT_THROW(batch::generate_event_stream(spec), std::invalid_argument);
}

// --- RescheduleSession -----------------------------------------------------

TEST(RescheduleSession, MaintainsAValidScheduleThroughEvents) {
  RescheduleSession session(small_spec());
  EXPECT_TRUE(session.schedule().validate());
  const auto stream = batch::generate_event_stream(stream_spec());
  for (const auto& e : stream) {
    (void)session.apply(e);
    ASSERT_TRUE(session.schedule().validate()) << format_event(e);
    ASSERT_EQ(session.schedule().tasks(), session.tasks());
    ASSERT_EQ(session.schedule().machines(), session.machines());
  }
}

TEST(RescheduleSession, CommitEpochShiftsCompletionsByTheWindow) {
  // The clean invariant of an epoch commit: every machine ran its queue
  // for `elapsed` units, so its completion drops to
  // max(0, completion - elapsed) — committed work became ready time,
  // unstarted work stayed assigned. The repairer must reproduce this
  // through its incremental cache patch (adopt_with_completions
  // cross-validates in debug builds).
  RescheduleSession session(small_spec());
  const std::vector<double> before(session.schedule().completions().begin(),
                                   session.schedule().completions().end());
  const double elapsed = session.schedule().makespan() * 0.4;

  const RepairStats stats = session.apply(epoch_commit(elapsed));
  EXPECT_EQ(stats.kind, EventKind::kEpochCommit);
  EXPECT_EQ(stats.orphaned, 0u);
  EXPECT_GT(stats.committed, 0u);
  EXPECT_TRUE(stats.shape_changed);
  EXPECT_EQ(session.tasks(), 24u - stats.committed);
  ASSERT_TRUE(session.schedule().validate());
  for (std::size_t m = 0; m < session.machines(); ++m) {
    EXPECT_NEAR(session.schedule().completion(m),
                std::max(0.0, before[m] - elapsed), 1e-6 * before[m] + 1e-9);
  }

  // A second commit keeps compounding (ready times now nonzero).
  const std::vector<double> mid(session.schedule().completions().begin(),
                                session.schedule().completions().end());
  const RepairStats again = session.commit_epoch(elapsed * 0.5);
  ASSERT_TRUE(session.schedule().validate());
  for (std::size_t m = 0; m < session.machines(); ++m) {
    EXPECT_NEAR(session.schedule().completion(m),
                std::max(0.0, mid[m] - elapsed * 0.5), 1e-6 * mid[m] + 1e-9);
  }
  EXPECT_EQ(again.kind, EventKind::kEpochCommit);
}

TEST(RescheduleSession, CommittedWorkFlowsIntoTheWarmStartSpec) {
  RescheduleSession session(small_spec());
  (void)session.commit_epoch(session.schedule().makespan() * 0.5);
  const service::JobSpec spec = session.make_reschedule_spec(0, 50.0, 7);
  ASSERT_TRUE(spec.etc != nullptr);
  // The snapshot carries the post-commit ready times, so the service's
  // warm CGA optimizes around work already underway.
  double total_ready = 0.0;
  for (std::size_t m = 0; m < spec.etc->machines(); ++m) {
    total_ready += spec.etc->ready(m);
  }
  EXPECT_GT(total_ready, 0.0);
  EXPECT_EQ(spec.warm_start.size(), session.tasks());
  // And the warm start evaluates on that snapshot to the session makespan.
  const sched::Schedule seeded(*spec.etc, spec.warm_start);
  EXPECT_NEAR(seeded.makespan(), session.schedule().makespan(),
              1e-9 * seeded.makespan());
}

TEST(RescheduleSession, MachineReturnsWithReadyTimeForInFlightWork) {
  // The down-and-return story: the machine's replacement joins busy, and
  // repair seeds its completion at the ready time, so nothing lands on it
  // until the backlog clears (or re-optimization decides it is worth the
  // wait).
  RescheduleSession session(small_spec());
  (void)session.apply(machine_down(2));
  const RepairStats stats = session.apply(machine_up_ready(5.0, 400.0));
  EXPECT_EQ(stats.orphaned, 0u);
  ASSERT_TRUE(session.schedule().validate());
  EXPECT_EQ(session.machines(), 6u);
  EXPECT_DOUBLE_EQ(session.etc().ready(5), 400.0);
  EXPECT_DOUBLE_EQ(session.schedule().completion(5), 400.0);
  EXPECT_EQ(session.schedule().tasks_on(5), 0u);
}

TEST(RescheduleSession, SpecCarriesSnapshotAndWarmStart) {
  RescheduleSession session(small_spec());
  (void)session.apply(machine_down(1));
  const service::JobSpec spec = session.make_reschedule_spec(2, 50.0, 7);
  ASSERT_NE(spec.etc, nullptr);
  EXPECT_EQ(spec.etc->fingerprint(), session.etc().fingerprint());
  EXPECT_EQ(spec.priority, 2);
  ASSERT_EQ(spec.warm_start.size(), session.tasks());
  for (std::size_t t = 0; t < session.tasks(); ++t) {
    EXPECT_EQ(spec.warm_start[t], session.schedule().machine_of(t));
  }
  // The snapshot is independent of later churn.
  (void)session.apply(task_arrival(10.0));
  EXPECT_NE(spec.etc->tasks(), session.tasks());
}

TEST(RescheduleSession, AdoptRejectsStaleOrWorseResults) {
  RescheduleSession session(small_spec());
  std::vector<sched::MachineId> current(session.schedule().assignment().begin(),
                                        session.schedule().assignment().end());
  EXPECT_FALSE(session.adopt(current));  // equal makespan: not an improvement

  std::vector<sched::MachineId> stale = current;
  stale.pop_back();
  EXPECT_FALSE(session.adopt(stale));  // wrong shape

  // A genuinely better assignment (steal from the most loaded machine)
  // is adopted... construct one by brute force: move one task off the
  // argmax machine to the argmin machine if that helps.
  sched::Schedule trial = session.schedule();
  const auto loaded = static_cast<sched::MachineId>(trial.argmax_machine());
  const auto idle =
      static_cast<sched::MachineId>(test_support::argmin_machine(trial));
  for (std::size_t t = 0; t < trial.tasks(); ++t) {
    if (trial.machine_of(t) != loaded) continue;
    sched::Schedule probe = trial;
    probe.move_task(t, idle);
    if (probe.makespan() < session.schedule().makespan()) {
      std::vector<sched::MachineId> better(probe.assignment().begin(),
                                           probe.assignment().end());
      EXPECT_TRUE(session.adopt(better));
      EXPECT_DOUBLE_EQ(session.schedule().makespan(), probe.makespan());
      return;
    }
  }
  GTEST_SKIP() << "min-min schedule not improvable by a single move";
}

TEST(RescheduleSession, ShapeEpochTracksShapeChanges) {
  RescheduleSession session(small_spec());
  EXPECT_EQ(session.shape_epoch(), 0u);
  (void)session.apply(machine_slowdown(0, 1.5));
  EXPECT_EQ(session.shape_epoch(), 0u);  // shape preserved
  (void)session.apply(task_arrival(42.0));
  EXPECT_EQ(session.shape_epoch(), 1u);
}

}  // namespace
}  // namespace pacga::dynamic

// --- Population::seed_cell (warm-start injection) --------------------------

namespace pacga::cga {
namespace {

TEST(PopulationSeedCell, AdoptsAssignmentAndFitness) {
  batch::WorkloadSpec w;
  w.tasks = 24;
  w.machines = 6;
  w.seed = 5;
  const etc::EtcMatrix m = batch::make_workload_etc(w);
  support::Xoshiro256 rng(1);
  Population pop(m, Grid(4, 4), rng, /*seed_min_min=*/false,
                 sched::Objective::kMakespan);
  const sched::Schedule seed = heur::min_min(m);
  pop.seed_cell(1, m, seed.assignment(), sched::Objective::kMakespan, 0.75);
  EXPECT_EQ(pop.at(1).schedule, seed);
  EXPECT_DOUBLE_EQ(pop.at(1).fitness, seed.makespan());
  EXPECT_THROW(pop.seed_cell(99, m, seed.assignment(),
                             sched::Objective::kMakespan, 0.75),
               std::invalid_argument);
}

}  // namespace
}  // namespace pacga::cga
