// Scheduler-service subsystem tests:
//
//  * ShardedJobQueue: priority + FIFO ordering, backpressure (try_submit
//    fails fast when full), remove-for-cancel, close-and-drain semantics,
//    shape routing, and the event-driven stealing rules;
//  * SolutionCache: LRU eviction, better-fitness refresh, hit counts;
//  * SchedulerService: concurrent submit/wait from many threads, cancel
//    before and while running, deadline-bounded anytime results, cache
//    hits returning the identical schedule, per-job seed determinism,
//    drain/shutdown, metrics accounting;
//  * WarmSolver: policy escalation and the zero-allocation guarantee —
//    a worker serving repeated same-shape jobs touches the heap neither
//    on the breeding path nor anywhere else in a kCga solve after
//    warm-up (operator-new counter, the test_breeder technique).
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "batch/workload.hpp"
#include "etc/braun.hpp"
#include "heuristics/minmin.hpp"
#include "heuristics/sufferage.hpp"
#include "sched/fitness.hpp"
#include "service/exposition.hpp"
#include "service/solver_pool.hpp"
#include "support/failpoints.hpp"
#include "support/rng.hpp"
#include "support/threading.hpp"
#include "support/timer.hpp"

// --- global allocation counter (see test_breeder.cpp) ----------------------

// GCC flags std::free on new[]-ed pointers at inlined call sites, but the
// replacement operator new below IS malloc-backed — the pairing is correct.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pacga::support {

/// Reads the threads parked in a `wedge` action at one site.
struct FailpointTestPeer {
  static std::size_t wedged(const Failpoint& fp) {
    std::lock_guard<std::mutex> lock(fp.mutex_);
    return fp.wedged_;
  }
};

}  // namespace pacga::support

namespace pacga::service {
namespace {

std::shared_ptr<const etc::EtcMatrix> instance(std::size_t tasks = 32,
                                               std::size_t machines = 8,
                                               std::uint64_t seed = 7) {
  etc::GenSpec spec;
  spec.tasks = tasks;
  spec.machines = machines;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return std::make_shared<const etc::EtcMatrix>(etc::generate(spec));
}

JobTicket ticket_with_priority(int priority) {
  auto t = std::make_shared<JobState>();
  t->spec.priority = priority;
  return t;
}

/// Jobs queued across every shard.
std::size_t queued(const ShardedJobQueue& q) {
  const auto d = q.depths();
  return std::accumulate(d.begin(), d.end(), std::size_t{0});
}

/// Queued-job capacity summed over the shards.
std::size_t total_capacity(const ShardedJobQueue& q) {
  std::size_t total = 0;
  for (std::size_t s = 0; s < q.shards(); ++s) total += q.shard_capacity(s);
  return total;
}

// --- ShardedJobQueue, one shard: the bounded priority queue ---------------

TEST(ShardedJobQueue, PriorityThenFifoOrder) {
  ShardedJobQueue q(8, 1);
  auto lo1 = ticket_with_priority(0);
  auto hi = ticket_with_priority(5);
  auto lo2 = ticket_with_priority(0);
  ASSERT_TRUE(q.try_submit(lo1));
  ASSERT_TRUE(q.try_submit(hi));
  ASSERT_TRUE(q.try_submit(lo2));
  EXPECT_EQ(q.pop(0).get(), hi.get());   // highest priority first
  EXPECT_EQ(q.pop(0).get(), lo1.get());  // FIFO within a priority level
  EXPECT_EQ(q.pop(0).get(), lo2.get());
}

TEST(ShardedJobQueue, TrySubmitFailsFastWhenFull) {
  ShardedJobQueue q(2, 1);
  EXPECT_TRUE(q.try_submit(ticket_with_priority(0)));
  EXPECT_TRUE(q.try_submit(ticket_with_priority(0)));
  EXPECT_FALSE(q.try_submit(ticket_with_priority(0)));
  EXPECT_EQ(queued(q), 2u);
  (void)q.pop(0);
  EXPECT_TRUE(q.try_submit(ticket_with_priority(0)));  // slot freed
}

TEST(ShardedJobQueue, RemoveDropsQueuedJob) {
  ShardedJobQueue q(4, 1);
  auto a = ticket_with_priority(0);
  auto b = ticket_with_priority(0);
  ASSERT_TRUE(q.try_submit(a));
  ASSERT_TRUE(q.try_submit(b));
  EXPECT_TRUE(q.remove(a.get()));
  EXPECT_FALSE(q.remove(a.get()));  // already gone
  EXPECT_EQ(q.pop(0).get(), b.get());
}

TEST(ShardedJobQueue, CloseDrainsThenReturnsNull) {
  ShardedJobQueue q(4, 1);
  auto a = ticket_with_priority(0);
  ASSERT_TRUE(q.try_submit(a));
  q.close();
  EXPECT_FALSE(q.try_submit(ticket_with_priority(0)));
  EXPECT_EQ(q.pop(0).get(), a.get());  // queued work is drained
  EXPECT_EQ(q.pop(0), nullptr);        // then shutdown
}

TEST(ShardedJobQueue, BlockingSubmitWaitsForSlot) {
  ShardedJobQueue q(1, 1);
  ASSERT_TRUE(q.try_submit(ticket_with_priority(0)));
  std::atomic<bool> admitted{false};
  std::thread t([&] {
    EXPECT_TRUE(q.submit(ticket_with_priority(0)));
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());  // still blocked on the full queue
  (void)q.pop(0);
  t.join();
  EXPECT_TRUE(admitted.load());
}

// --- ShardedJobQueue, many shards ------------------------------------------

JobTicket ticket_for_shard(std::uint32_t shard, int priority = 0) {
  auto t = ticket_with_priority(priority);
  t->shard = shard;
  return t;
}

TEST(ShardedJobQueue, ShapeRoutingIsStableAndSubmitFollowsTheTag) {
  ShardedJobQueue q(64, 4);
  const std::size_t s = q.shard_of_shape(32, 8);
  EXPECT_EQ(q.shard_of_shape(32, 8), s);  // pure function of the shape
  EXPECT_LT(s, q.shards());
  auto job = ticket_for_shard(static_cast<std::uint32_t>(s));
  ASSERT_TRUE(q.try_submit(job));
  const auto depths = q.depths();
  ASSERT_EQ(depths.size(), 4u);
  for (std::size_t i = 0; i < depths.size(); ++i) {
    EXPECT_EQ(depths[i], i == s ? 1u : 0u);
  }
}

TEST(ShardedJobQueue, HomeShardBeatsHigherPriorityNeighbor) {
  // Affinity before priority ACROSS shards: the pinned worker drains its
  // own (shape-matched) traffic even when a neighbor queues hotter jobs —
  // priority orders jobs WITHIN a shard, neighbors are served by their own
  // worker or by stealing when home is empty.
  ShardedJobQueue q(8, 2);
  auto home_job = ticket_for_shard(0, /*priority=*/0);
  auto hot_neighbor = ticket_for_shard(1, /*priority=*/9);
  ASSERT_TRUE(q.try_submit(hot_neighbor));
  ASSERT_TRUE(q.try_submit(home_job));
  EXPECT_EQ(q.pop(0).get(), home_job.get());
  EXPECT_EQ(q.steals(), 0u);
}

TEST(ShardedJobQueue, StealsFromNeighborWhenHomeIsEmpty) {
  ShardedJobQueue q(8, 3);
  auto stranded = ticket_for_shard(2);
  ASSERT_TRUE(q.try_submit(stranded));
  EXPECT_EQ(q.pop(0).get(), stranded.get());  // worker 0 steals from shard 2
  EXPECT_EQ(q.steals(), 1u);
}

TEST(ShardedJobQueue, RemoveRoutesToTheOwningShard) {
  ShardedJobQueue q(8, 2);
  auto a = ticket_for_shard(1);
  auto b = ticket_for_shard(1);
  ASSERT_TRUE(q.try_submit(a));
  ASSERT_TRUE(q.try_submit(b));
  EXPECT_TRUE(q.remove(a.get()));
  EXPECT_FALSE(q.remove(a.get()));  // already gone
  EXPECT_EQ(q.depths()[1], 1u);
  EXPECT_EQ(q.pop(1).get(), b.get());
}

TEST(ShardedJobQueue, CloseDrainsEveryShardThenReturnsNull) {
  ShardedJobQueue q(8, 3);
  auto a = ticket_for_shard(0);
  auto b = ticket_for_shard(1);
  auto c = ticket_for_shard(2);
  ASSERT_TRUE(q.try_submit(a));
  ASSERT_TRUE(q.try_submit(b));
  ASSERT_TRUE(q.try_submit(c));
  q.close();
  EXPECT_FALSE(q.try_submit(ticket_for_shard(0)));
  // Worker 0 drains its home first, then steals the strays.
  EXPECT_EQ(q.pop(0).get(), a.get());
  EXPECT_EQ(q.pop(0).get(), b.get());
  EXPECT_EQ(q.pop(0).get(), c.get());
  EXPECT_EQ(q.pop(0), nullptr);
  EXPECT_EQ(q.pop(2), nullptr);  // every consumer sees the shutdown
}

TEST(ShardedJobQueue, BackpressureIsPerShard) {
  // Total capacity 2 over 2 shards = 1 slot per shard: a hot shape fills
  // ITS shard without consuming the other tenant's admission slot.
  ShardedJobQueue q(2, 2);
  ASSERT_TRUE(q.try_submit(ticket_for_shard(0)));
  EXPECT_FALSE(q.try_submit(ticket_for_shard(0)));  // shard 0 full
  EXPECT_TRUE(q.try_submit(ticket_for_shard(1)));   // shard 1 unaffected
}

TEST(ShardedJobQueue, CapacitySplitsExactlyAcrossShards) {
  // Regression: max(1, capacity/shards) rounded the total DOWN (10 over 4
  // admitted 8) or UP (3 over 4 admitted 4 is the floor case and stays).
  // The split must hand out the remainder so shard capacities sum to
  // max(capacity, shards).
  const ShardedJobQueue q10(10, 4);
  EXPECT_EQ(total_capacity(q10), 10u);
  EXPECT_EQ(q10.shard_capacity(0), 3u);  // 10 = 3 + 3 + 2 + 2
  EXPECT_EQ(q10.shard_capacity(1), 3u);
  EXPECT_EQ(q10.shard_capacity(2), 2u);
  EXPECT_EQ(q10.shard_capacity(3), 2u);
  const ShardedJobQueue q3(3, 4);  // under-provisioned: 1-per-shard floor
  EXPECT_EQ(total_capacity(q3), 4u);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(q3.shard_capacity(s), 1u);
  const ShardedJobQueue q8(8, 4);  // exact division unchanged
  EXPECT_EQ(total_capacity(q8), 8u);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(q8.shard_capacity(s), 2u);
}

TEST(ShardedJobQueue, TotalAdmittedBacklogEqualsRequestedCapacity) {
  // Fill every shard to refusal: the number of admitted jobs — the point
  // where backpressure starts across the whole queue — must equal the
  // requested capacity, not a rounded-down multiple of the shard count.
  ShardedJobQueue q(10, 4);
  std::size_t admitted = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    while (q.try_submit(ticket_for_shard(s))) ++admitted;
  }
  EXPECT_EQ(admitted, 10u);
  EXPECT_EQ(queued(q), 10u);
}

TEST(ShardedJobQueue, BlockedSubmitWakesWhenAThiefDrainsTheShard) {
  ShardedJobQueue q(2, 2);
  ASSERT_TRUE(q.try_submit(ticket_for_shard(0)));
  std::atomic<bool> admitted{false};
  std::thread t([&] {
    EXPECT_TRUE(q.submit(ticket_for_shard(0)));
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  EXPECT_NE(q.pop(1), nullptr);  // worker 1 steals shard 0's job
  t.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(q.steals(), 1u);
}

TEST(ShardedJobQueue, ThievesLeaveAnIdleOwnersShardAlone) {
  // Owners 0 and 1 registered, shard 2 ownerless. Ring order from home 0
  // visits shard 1 first, but its owner is idle — notified, on its way —
  // so worker 0 steals from the absent owner's shard 2 instead.
  ShardedJobQueue q(8, 3);
  q.mark_idle(0, 0);
  q.mark_idle(1, 0);
  auto first = ticket_for_shard(1);
  auto second = ticket_for_shard(1);
  auto stray = ticket_for_shard(2);
  ASSERT_TRUE(q.try_submit(first));
  ASSERT_TRUE(q.try_submit(second));
  ASSERT_TRUE(q.try_submit(stray));
  EXPECT_EQ(q.pop(0).get(), stray.get());
  // Owner 1 takes its own job and is serving: its backlog is fair game.
  EXPECT_EQ(q.pop(1).get(), first.get());
  bool stolen = false;
  EXPECT_EQ(q.pop(0, &stolen).get(), second.get());
  EXPECT_TRUE(stolen);
  EXPECT_EQ(q.steals(), 2u);
}

TEST(ShardedJobQueue, SupersededWorkerCannotMarkItsReplacementIdle) {
  ShardedJobQueue q(8, 3);
  q.mark_idle(1, 1);  // the replacement, generation 1
  auto first = ticket_for_shard(1);
  auto second = ticket_for_shard(1);
  auto stray = ticket_for_shard(2);
  ASSERT_TRUE(q.try_submit(first));
  ASSERT_TRUE(q.try_submit(second));
  ASSERT_TRUE(q.try_submit(stray));
  EXPECT_EQ(q.pop(1).get(), first.get());  // replacement now serving
  q.mark_idle(1, 0);  // the wedged generation-0 thread, finally returning
  // Still serving: worker 0 steals shard 1's backlog, not the stray.
  EXPECT_EQ(q.pop(0).get(), second.get());
}

TEST(ShardedJobQueue, BacklogBehindAServingOwnerWakesAParkedPeer) {
  // Rule 3: a backlog admitted before its owner popped its first job is
  // NOT announced to peers at admission (the owner was idle). The owner's
  // pop, which leaves work behind, must wake the parked peer.
  ShardedJobQueue q(8, 2);
  q.mark_idle(0, 0);
  q.mark_idle(1, 0);
  std::atomic<bool> peer_done{false};
  JobTicket peer_got;
  std::thread peer([&] {
    peer_got = q.pop(1);  // parks: shard 0's owner is idle
    peer_done.store(true);
  });
  // Let the peer park first; if it is late, it simply steals below.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto first = ticket_for_shard(0);
  auto second = ticket_for_shard(0);
  ASSERT_TRUE(q.try_submit(first));
  ASSERT_TRUE(q.try_submit(second));
  // Whenever the peer ran, it could not have stolen from an idle owner.
  EXPECT_EQ(q.pop(0).get(), first.get());
  // Parking is untimed, so a lost wake leaves the peer parked for good;
  // give it a generous bound, then close to release it either way.
  support::WallTimer t;
  while (!peer_done.load() && t.elapsed_seconds() < 5.0)
    std::this_thread::yield();
  EXPECT_TRUE(peer_done.load()) << "the owner's pop left work behind "
                                   "without waking the parked peer";
  q.close();
  peer.join();
  EXPECT_EQ(peer_got.get(), second.get());
}

// --- SolutionCache ---------------------------------------------------------

TEST(SolutionCache, LruEvictionAndCounts) {
  SolutionCache cache(2, 1);
  const std::vector<sched::MachineId> a{0, 1}, b{1, 0}, c{1, 1};
  cache.insert(0, 1, a, 10.0, SolvePolicy::kCga);
  cache.insert(0, 2, b, 20.0, SolvePolicy::kCga);
  SolutionCache::Entry e;
  EXPECT_TRUE(cache.lookup(0, 1, e));  // bumps key 1 to most-recent
  cache.insert(0, 3, c, 30.0, SolvePolicy::kCga);  // evicts key 2 (LRU)
  EXPECT_FALSE(cache.lookup(0, 2, e));
  EXPECT_TRUE(cache.lookup(0, 3, e));
  EXPECT_EQ(cache.stripe_hits(), std::vector<std::uint64_t>{2});
  // Both survivors are still held.
  EXPECT_TRUE(cache.lookup(0, 1, e));
  EXPECT_TRUE(cache.lookup(0, 3, e));
}

TEST(SolutionCache, KeepsBetterFitnessOnReinsertWithItsProvenance) {
  SolutionCache cache(4, 1);
  const std::vector<sched::MachineId> good{0, 1}, bad{1, 0};
  cache.insert(0, 1, bad, 50.0, SolvePolicy::kMinMin);
  cache.insert(0, 1, good, 40.0, SolvePolicy::kCga);  // improves: replaces
  SolutionCache::Entry e;
  ASSERT_TRUE(cache.lookup(0, 1, e));
  EXPECT_EQ(e.fitness, 40.0);
  EXPECT_EQ(e.assignment, good);
  EXPECT_EQ(e.policy, SolvePolicy::kCga);
  cache.insert(0, 1, bad, 60.0, SolvePolicy::kSufferage);  // worse: kept out
  ASSERT_TRUE(cache.lookup(0, 1, e));
  EXPECT_EQ(e.fitness, 40.0);
  EXPECT_EQ(e.policy, SolvePolicy::kCga);
}

TEST(SolutionCache, ZeroCapacityDisables) {
  SolutionCache cache(0, 1);
  cache.insert(0, 1, std::vector<sched::MachineId>{0}, 1.0,
               SolvePolicy::kCga);
  SolutionCache::Entry e;
  EXPECT_FALSE(cache.lookup(0, 1, e));
}

TEST(SolutionCache, StripesAreIndependent) {
  // The same key in different stripes addresses different entries — the
  // caller owns the key->stripe mapping (the service derives both from the
  // instance, so a key never visits two stripes in practice).
  SolutionCache cache(8, 2);
  EXPECT_EQ(cache.stripes(), 2u);
  const std::vector<sched::MachineId> a{0, 1}, b{1, 0};
  cache.insert(0, 7, a, 10.0, SolvePolicy::kCga);
  cache.insert(1, 7, b, 20.0, SolvePolicy::kMinMin);
  SolutionCache::Entry e;
  ASSERT_TRUE(cache.lookup(0, 7, e));
  EXPECT_EQ(e.assignment, a);
  EXPECT_EQ(e.fitness, 10.0);
  ASSERT_TRUE(cache.lookup(1, 7, e));
  EXPECT_EQ(e.assignment, b);
  EXPECT_EQ(e.fitness, 20.0);
  const auto per_stripe = cache.stripe_hits();
  ASSERT_EQ(per_stripe.size(), 2u);
  EXPECT_EQ(per_stripe[0], 1u);
  EXPECT_EQ(per_stripe[1], 1u);
}

TEST(SolutionCache, EvictionPressureIsPerStripe) {
  // Capacity 4 over 2 stripes = 2 entries per stripe: overfilling one
  // stripe evicts within it and never touches the other.
  SolutionCache cache(4, 2);
  const std::vector<sched::MachineId> v{0};
  cache.insert(1, 100, v, 1.0, SolvePolicy::kCga);
  cache.insert(0, 1, v, 1.0, SolvePolicy::kCga);
  cache.insert(0, 2, v, 2.0, SolvePolicy::kCga);
  cache.insert(0, 3, v, 3.0, SolvePolicy::kCga);  // evicts key 1 (stripe 0 LRU)
  SolutionCache::Entry e;
  EXPECT_FALSE(cache.lookup(0, 1, e));
  EXPECT_TRUE(cache.lookup(0, 2, e));
  EXPECT_TRUE(cache.lookup(0, 3, e));
  EXPECT_TRUE(cache.lookup(1, 100, e)) << "other stripe must be untouched";
}

// --- ServiceMetrics (sharded merge equivalence) ----------------------------

TEST(ServiceMetrics, ShardedMergeMatchesAtomicTotalsUnderConcurrency) {
  // THE acceptance property of the per-worker metrics: with every worker
  // hammering its own slot, external events landing from other threads,
  // and a poller snapshotting mid-flight, the FINAL snapshot must hold the
  // exact integer totals, and each merged latency histogram (buckets,
  // count, sum, min, max) must equal one serial histogram fed every
  // worker's samples.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kEventsPerWorker = 5000;
  ServiceMetrics metrics(kWorkers);

  struct Reference {
    std::uint64_t completed = 0, failed = 0, hits = 0, misses = 0, builds = 0;
    std::vector<double> wait, solve;
  };
  std::vector<Reference> ref(kWorkers);

  std::atomic<bool> stop_poller{false};
  std::thread poller([&] {
    // Concurrent snapshots must be safe (and sane), not exact: totals only
    // ever grow.
    std::uint64_t last = 0;
    while (!stop_poller.load(std::memory_order_relaxed)) {
      const auto s = metrics.snapshot();
      EXPECT_GE(s.completed, last);
      last = s.completed;
      EXPECT_LE(s.queue_wait_hist.count(), kWorkers * kEventsPerWorker);
      std::this_thread::yield();  // don't starve the workers on small boxes
    }
  });

  {
    support::ScopedThreads workers(kWorkers, [&](std::size_t w) {
      support::Xoshiro256 rng(1000 + w);
      const auto uniform = [&] {
        return static_cast<double>(rng() >> 11) * 0x1.0p-53;
      };
      Reference& r = ref[w];
      for (std::size_t i = 0; i < kEventsPerWorker; ++i) {
        const double wait = uniform() * 0.01;
        const double solve = uniform() * 0.05;
        const bool hit = (rng() & 7) == 0;
        const bool miss = (rng() & 15) == 0;
        if ((rng() & 63) == 0) {
          metrics.on_fail(w);
          ++r.failed;
        } else {
          metrics.on_complete(w, wait, solve, hit, miss);
          ++r.completed;
          r.hits += hit ? 1 : 0;
          r.misses += miss ? 1 : 0;
          r.wait.push_back(wait);
          r.solve.push_back(solve);
        }
        if ((rng() & 255) == 0) {
          const std::uint64_t n = 1 + (rng() & 3);
          metrics.add_arena_builds(w, n);
          r.builds += n;
        }
      }
    });
  }
  stop_poller.store(true, std::memory_order_relaxed);
  poller.join();

  const auto s = metrics.snapshot();
  std::uint64_t completed = 0, failed = 0, hits = 0, misses = 0, builds = 0;
  obs::LatencyHistogram wait, solve, e2e;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    completed += ref[w].completed;
    failed += ref[w].failed;
    hits += ref[w].hits;
    misses += ref[w].misses;
    builds += ref[w].builds;
    EXPECT_EQ(s.worker_completed[w], ref[w].completed);
    for (std::size_t i = 0; i < ref[w].wait.size(); ++i) {
      wait.record_seconds(ref[w].wait[i]);
      solve.record_seconds(ref[w].solve[i]);
      e2e.record_seconds(ref[w].wait[i] + ref[w].solve[i]);
    }
  }
  EXPECT_EQ(s.completed, completed);
  EXPECT_EQ(s.failed, failed);
  EXPECT_EQ(s.cache_hits, hits);
  EXPECT_EQ(s.deadline_misses, misses);
  EXPECT_EQ(s.arena_builds, builds);
  const auto expect_equal = [&](const obs::HistogramSnapshot& merged,
                                 const obs::LatencyHistogram& reference) {
    const obs::HistogramSnapshot serial = reference.snapshot();
    EXPECT_EQ(merged.counts(), serial.counts());
    EXPECT_EQ(merged.count(), completed);
    EXPECT_EQ(merged.sum_ns(), serial.sum_ns());
    EXPECT_EQ(merged.min_ns(), serial.min_ns());
    EXPECT_EQ(merged.max_ns(), serial.max_ns());
  };
  expect_equal(s.queue_wait_hist, wait);
  expect_equal(s.solve_hist, solve);
  expect_equal(s.e2e_hist, e2e);
}

TEST(ServiceMetrics, ExternalEventsAndArenaBuildsAggregate) {
  ServiceMetrics metrics(3);
  {
    support::ScopedThreads ext(4, [&](std::size_t) {
      for (int i = 0; i < 100; ++i) {
        metrics.on_submit();
        metrics.on_reschedule();
      }
      metrics.on_cancel();
    });
  }
  metrics.add_arena_builds(0, 2);
  metrics.add_arena_builds(2, 3);
  const auto s = metrics.snapshot();
  EXPECT_EQ(s.submitted, 400u);
  EXPECT_EQ(s.reschedules, 400u);
  EXPECT_EQ(s.cancelled, 4u);
  EXPECT_EQ(s.arena_builds, 5u);
  EXPECT_EQ(s.worker_completed.size(), 3u);
}

// --- SchedulerService ------------------------------------------------------

ServiceOptions small_service(std::size_t workers = 2,
                             std::size_t queue_capacity = 64,
                             std::size_t cache_capacity = 64) {
  ServiceOptions o;
  o.workers = workers;
  o.queue_capacity = queue_capacity;
  o.cache_capacity = cache_capacity;
  return o;
}

TEST(SchedulerService, SolvesAValidSchedule) {
  SchedulerService svc(small_service());
  auto m = instance();
  JobSpec spec;
  spec.etc = m;
  spec.deadline_ms = 50.0;
  const JobId id = svc.submit(spec);
  const JobResult r = svc.wait(id);
  EXPECT_EQ(r.status, JobStatus::kDone);
  ASSERT_EQ(r.assignment.size(), m->tasks());
  // The solver's fitness rides the incremental completion-time cache; a
  // from-scratch rebuild agrees to relative rounding error (same tolerance
  // rationale as Schedule::validate).
  const sched::Schedule s(*m, {r.assignment.begin(), r.assignment.end()});
  EXPECT_NEAR(s.makespan(), r.makespan, 1e-6 * s.makespan());
}

TEST(SchedulerService, ConcurrentSubmitWaitManyThreads) {
  SchedulerService svc(small_service(3, 128, 0));
  auto m = instance();
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kJobsPerClient = 10;
  std::atomic<std::size_t> done{0};
  std::mutex misses_mutex;
  std::string misses;  // one line per job that did not come back done
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t j = 0; j < kJobsPerClient; ++j) {
        JobSpec spec;
        spec.etc = m;
        spec.seed = c * 100 + j;
        spec.deadline_ms = 30.0;
        const JobResult r = svc.wait(svc.submit(spec));
        if (r.status == JobStatus::kDone && r.assignment.size() == m->tasks()) {
          done.fetch_add(1);
          continue;
        }
        std::ostringstream line;
        line << "\n  job " << r.id << " (client " << c << ", seed "
             << c * 100 + j << "): status=" << to_string(r.status)
             << " error='" << r.error << "' assignment=" << r.assignment.size()
             << " worker=" << r.worker << " retries=" << r.retries
             << " wait_ms=" << r.queue_wait_seconds * 1e3
             << " solve_ms=" << r.solve_seconds * 1e3;
        std::lock_guard<std::mutex> lock(misses_mutex);
        misses += line.str();
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(done.load(), kClients * kJobsPerClient)
      << "jobs not done:" << misses;
  const auto snap = svc.metrics();
  EXPECT_EQ(snap.completed, kClients * kJobsPerClient);
  EXPECT_EQ(snap.submitted, kClients * kJobsPerClient);
  EXPECT_EQ(snap.cancelled, 0u);
}

/// A job that occupies a worker for ~`ms` (CGA with a long deadline).
JobSpec long_job(const std::shared_ptr<const etc::EtcMatrix>& m, double ms) {
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kCga;
  spec.deadline_ms = ms;
  spec.use_cache = false;
  return spec;
}

TEST(SchedulerService, BackpressureOnFullQueue) {
  SchedulerService svc(small_service(1, 1, 0));
  auto m = instance();
  // One long job occupies the single worker; one more fills the queue.
  const JobId running = svc.submit(long_job(m, 2000.0));
  JobId queued = 0;
  // The first job may not have been popped yet; retry until the queue has
  // exactly the one slot taken and the next try_submit bounces.
  std::optional<JobId> extra;
  support::WallTimer t;
  for (;;) {
    auto id = svc.try_submit(long_job(m, 2000.0));
    if (!id) break;  // backpressure observed
    if (queued == 0) {
      queued = *id;
    } else {
      extra = *id;  // the worker drained one meanwhile; keep bookkeeping
    }
    ASSERT_LT(t.elapsed_seconds(), 5.0) << "queue never filled";
  }
  EXPECT_GT(svc.metrics().rejected, 0u);
  // Unblock quickly: cancel everything and drain.
  svc.cancel(running);
  if (queued != 0) svc.cancel(queued);
  if (extra) svc.cancel(*extra);
  svc.drain();
}

TEST(SchedulerService, CancelQueuedJobBeforeRun) {
  SchedulerService svc(small_service(1, 8, 0));
  auto m = instance();
  const JobId running = svc.submit(long_job(m, 1000.0));
  const JobId queued = svc.submit(long_job(m, 1000.0));
  EXPECT_TRUE(svc.cancel(queued));
  const JobResult r = svc.wait(queued);  // resolves immediately
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_TRUE(r.assignment.empty());
  svc.cancel(running);
  svc.drain();
  EXPECT_GE(svc.metrics().cancelled, 2u);
}

TEST(SchedulerService, CancelRunningJobStopsEarly) {
  SchedulerService svc(small_service(1, 8, 0));
  auto m = instance(128, 16);
  const JobId id = svc.submit(long_job(m, 10000.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  support::WallTimer t;
  EXPECT_TRUE(svc.cancel(id));
  const JobResult r = svc.wait(id);
  // Cancellation is honored within one generation, nowhere near the 10 s
  // deadline.
  EXPECT_LT(t.elapsed_seconds(), 5.0);
  EXPECT_EQ(r.status, JobStatus::kCancelled);
}

TEST(SchedulerService, DeadlineBoundedAnytimeResult) {
  SchedulerService svc(small_service(1, 8, 0));
  auto m = instance(128, 16);
  constexpr double kDeadlineMs = 100.0;
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kCga;  // uncapped generations: deadline decides
  spec.deadline_ms = kDeadlineMs;
  spec.use_cache = false;
  support::WallTimer t;
  const JobResult r = svc.wait(svc.submit(spec));
  const double elapsed_ms = t.elapsed_seconds() * 1e3;
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_GT(r.generations, 0u);
  ASSERT_EQ(r.assignment.size(), m->tasks());
  // Anytime contract: the answer arrives within the deadline plus one
  // generation's slack (generous CI margin).
  EXPECT_LT(elapsed_ms, kDeadlineMs + 250.0);
}

TEST(SchedulerService, CacheHitReturnsIdenticalSchedule) {
  SchedulerService svc(small_service(1, 8, 64));
  auto m = instance();
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kCga;
  spec.deadline_ms = 1000.0;
  spec.max_generations = 20;
  const JobResult first = svc.wait(svc.submit(spec));
  EXPECT_EQ(first.status, JobStatus::kDone);
  EXPECT_FALSE(first.cache_hit);
  const JobResult second = svc.wait(svc.submit(spec));
  EXPECT_EQ(second.status, JobStatus::kDone);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.assignment, first.assignment);
  EXPECT_DOUBLE_EQ(second.makespan, first.makespan);
  EXPECT_EQ(svc.metrics().cache_hits, 1u);
  EXPECT_EQ(svc.metrics().admission_hits, 1u);
}

TEST(SchedulerService, CacheIsKeyedByPolicyAndReportsProvenance) {
  // A kMinMin tenant must never poison a kCga tenant's results, and a hit
  // reports the policy that PRODUCED the cached solution.
  SchedulerService svc(small_service(1, 8, 64));
  auto m = instance();
  JobSpec heuristic;
  heuristic.etc = m;
  heuristic.policy = SolvePolicy::kMinMin;
  heuristic.deadline_ms = 1000.0;
  const JobResult h1 = svc.wait(svc.submit(heuristic));
  EXPECT_FALSE(h1.cache_hit);

  JobSpec ga = heuristic;
  ga.policy = SolvePolicy::kCga;
  ga.max_generations = 10;
  const JobResult g1 = svc.wait(svc.submit(ga));
  EXPECT_FALSE(g1.cache_hit) << "kCga must not hit the kMinMin entry";
  EXPECT_EQ(g1.policy_used, SolvePolicy::kCga);

  const JobResult h2 = svc.wait(svc.submit(heuristic));
  EXPECT_TRUE(h2.cache_hit);
  EXPECT_EQ(h2.policy_used, SolvePolicy::kMinMin);  // producing policy
  const JobResult g2 = svc.wait(svc.submit(ga));
  EXPECT_TRUE(g2.cache_hit);
  EXPECT_EQ(g2.policy_used, SolvePolicy::kCga);
}

TEST(SchedulerService, CancelStopsParallelPolicyJob) {
  SchedulerService svc(small_service(1, 8, 0));
  auto m = instance(512, 16);
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kPaCga;
  spec.deadline_ms = 10000.0;
  spec.use_cache = false;
  const JobId id = svc.submit(spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  support::WallTimer t;
  svc.cancel(id);
  const JobResult r = svc.wait(id);
  EXPECT_LT(t.elapsed_seconds(), 5.0)
      << "PA-CGA jobs must honor cancellation, not run out their deadline";
  EXPECT_EQ(r.status, JobStatus::kCancelled);
}

TEST(SchedulerService, HugeFiniteDeadlineDoesNotWrap) {
  // 1e18 ms would overflow the steady_clock duration cast if taken
  // verbatim; the service caps it instead of serving a zero budget.
  SchedulerService svc(small_service(1, 8, 0));
  JobSpec spec;
  spec.etc = instance();
  spec.policy = SolvePolicy::kCga;
  spec.deadline_ms = 1e18;
  spec.max_generations = 5;
  spec.use_cache = false;
  const JobResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_EQ(r.generations, 5u);  // ran its generations, not a 0-budget path
  EXPECT_FALSE(r.deadline_missed);
}

TEST(SchedulerService, UnwaitedResultsAreBounded) {
  // Fire-and-forget tenants must not grow the registry without bound:
  // only the most recent kRetainedResults finished jobs stay waitable.
  // One worker serves the jobs in admission order, so `first` is
  // certainly the oldest finished job; with two, a descheduled worker
  // could finish it after the others and keep it among the retained.
  SchedulerService svc(small_service(1, 64, 0));
  auto m = instance(8, 4);  // tiny: heuristic path, microseconds per job
  JobSpec spec;
  spec.etc = m;
  spec.deadline_ms = 1000.0;
  const JobId first = svc.submit(spec);
  (void)first;
  for (std::size_t i = 0; i < SchedulerService::kRetainedResults + 64; ++i) {
    JobSpec s = spec;
    s.seed = i;
    (void)svc.submit(s);
  }
  svc.drain();
  EXPECT_THROW(svc.wait(first), std::invalid_argument)
      << "evicted result should no longer be waitable";
}

TEST(SchedulerService, ExpiredPaCgaJobIsServedNotCrashed) {
  // Regression: an explicit-kPaCga job popped past its deadline used to
  // hand run_parallel a zero wall budget, whose Config::validate throw
  // escaped the worker thread and aborted the process. The explicit-kCga
  // path gets the same zero budget and must serve the job as well.
  for (const SolvePolicy policy : {SolvePolicy::kPaCga, SolvePolicy::kCga}) {
    SCOPED_TRACE(to_string(policy));
    SchedulerService svc(small_service(1, 8, 0));
    auto m = instance();
    const JobId blocker = svc.submit(long_job(m, 300.0));
    JobSpec spec;
    spec.etc = m;
    spec.policy = policy;
    spec.deadline_ms = 5.0;  // expires while the blocker holds the worker
    spec.use_cache = false;
    const JobId late = svc.submit(spec);
    const JobResult r = svc.wait(late);
    EXPECT_EQ(r.status, JobStatus::kDone);
    EXPECT_TRUE(r.deadline_missed);
    EXPECT_EQ(r.assignment.size(), m->tasks());
    (void)svc.wait(blocker);
    EXPECT_EQ(svc.metrics().failed, 0u);
  }
}

TEST(SchedulerService, TinyBaseGridIsSafe) {
  // Regression: a sub-16-cell solver grid drove std::clamp with lo > hi
  // (UB) in the arena's grid-shrink computation. The second input: a
  // thread count sized for PA-CGA must not fail Config::validate on the
  // 5x5 arena an 8-task job shrinks to (the sequential engine ignores it).
  struct Base {
    std::size_t side, threads, tasks;
  };
  for (const Base b : {Base{3, 3, 32}, Base{16, 32, 8}}) {
    ServiceOptions o = small_service(1, 8, 0);
    o.solver.width = b.side;
    o.solver.height = b.side;
    o.solver.threads = b.threads;
    SchedulerService svc(o);
    JobSpec spec;
    spec.etc = instance(b.tasks);
    spec.policy = SolvePolicy::kCga;
    spec.deadline_ms = 500.0;
    spec.max_generations = 5;
    const JobResult r = svc.wait(svc.submit(spec));
    EXPECT_EQ(r.status, JobStatus::kDone) << r.error;
    EXPECT_EQ(r.generations, 5u);
  }
}

TEST(SchedulerService, BudgetStarvedAutoResultIsNotCached) {
  // Regression: a kAuto job that escalated to the heuristics because its
  // budget was gone must not stick its degraded answer into the cache for
  // later budget-rich kAuto jobs on the same matrix.
  SchedulerService svc(small_service(1, 8, 64));
  auto m = instance(64, 8);
  const JobId blocker = svc.submit(long_job(m, 400.0));
  JobSpec starved;
  starved.etc = m;
  starved.policy = SolvePolicy::kAuto;
  starved.deadline_ms = 5.0;  // expires in the queue behind the blocker
  const JobResult poor = svc.wait(svc.submit(starved));
  (void)svc.wait(blocker);
  EXPECT_EQ(poor.status, JobStatus::kDone);
  ASSERT_TRUE(poor.policy_used == SolvePolicy::kMinMin ||
              poor.policy_used == SolvePolicy::kSufferage)
      << "expected the zero-budget heuristic escalation";

  JobSpec rich = starved;
  rich.deadline_ms = 1000.0;
  rich.max_generations = 10;
  const JobResult good = svc.wait(svc.submit(rich));
  EXPECT_EQ(good.status, JobStatus::kDone);
  EXPECT_FALSE(good.cache_hit) << "starved heuristic answer was cached";
  EXPECT_EQ(good.policy_used, SolvePolicy::kCga);
  EXPECT_LE(good.makespan, poor.makespan + 1e-9);
}

TEST(SchedulerService, PerJobSeedDeterminism) {
  // Same JobSpec (generation-capped, cache off) => same schedule, no
  // matter when or on which worker it runs.
  auto m = instance();
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kCga;
  spec.deadline_ms = 10000.0;
  spec.max_generations = 25;
  spec.seed = 42;
  spec.use_cache = false;

  JobResult first, second;
  {
    SchedulerService svc(small_service(2, 8, 0));
    // Interleave unrelated jobs so the arena is reused dirty.
    JobSpec other = spec;
    other.seed = 7;
    (void)svc.wait(svc.submit(other));
    first = svc.wait(svc.submit(spec));
  }
  {
    SchedulerService svc(small_service(1, 8, 0));
    second = svc.wait(svc.submit(spec));
  }
  EXPECT_EQ(first.status, JobStatus::kDone);
  EXPECT_EQ(first.assignment, second.assignment);
  EXPECT_DOUBLE_EQ(first.makespan, second.makespan);
  EXPECT_EQ(first.generations, second.generations);
  EXPECT_EQ(first.evaluations, second.evaluations);
}

/// A job over `workload`'s full-batch ETC (batch::make_workload_etc); the
/// service treats it like any other job.
JobSpec workload_job(const batch::WorkloadSpec& workload, int priority,
                     double deadline_ms, std::uint64_t seed) {
  JobSpec spec;
  spec.etc = std::make_shared<const etc::EtcMatrix>(
      batch::make_workload_etc(workload));
  spec.priority = priority;
  spec.deadline_ms = deadline_ms;
  spec.seed = seed;
  return spec;
}

TEST(SchedulerService, WorkloadJobAdapter) {
  batch::WorkloadSpec w;
  w.tasks = 24;
  w.machines = 6;
  w.seed = 5;
  JobSpec spec = workload_job(w, /*priority=*/1, /*deadline_ms=*/50.0,
                              /*seed=*/9);
  ASSERT_NE(spec.etc, nullptr);
  EXPECT_EQ(spec.etc->tasks(), 24u);
  EXPECT_EQ(spec.etc->machines(), 6u);
  SchedulerService svc(small_service());
  const JobResult r = svc.wait(svc.submit(std::move(spec)));
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_EQ(r.assignment.size(), 24u);
}

TEST(SchedulerService, ShutdownDrainsQueuedJobs) {
  auto m = instance();
  std::vector<JobId> ids;
  SchedulerService svc(small_service(2, 64, 0));
  for (int i = 0; i < 8; ++i) {
    JobSpec spec;
    spec.etc = m;
    spec.seed = static_cast<std::uint64_t>(i);
    spec.deadline_ms = 30.0;
    ids.push_back(svc.submit(spec));
  }
  svc.shutdown();  // graceful: queued jobs are still served
  for (JobId id : ids) {
    EXPECT_EQ(svc.wait(id).status, JobStatus::kDone);
  }
  EXPECT_THROW(svc.submit(long_job(m, 10.0)), std::runtime_error);
}

TEST(SchedulerService, RejectsMalformedSpecs) {
  SchedulerService svc(small_service());
  JobSpec no_etc;
  EXPECT_THROW(svc.submit(no_etc), std::invalid_argument);
  JobSpec bad_deadline;
  bad_deadline.etc = instance();
  bad_deadline.deadline_ms = 0.0;
  EXPECT_THROW(svc.submit(bad_deadline), std::invalid_argument);
  EXPECT_THROW(svc.wait(9999), std::invalid_argument);
  EXPECT_FALSE(svc.cancel(9999));
}

// --- shape affinity and stealing (the sharded core, end to end) ------------

TEST(SchedulerService, SameShapeJobsStickToTheirHomeWorker) {
  // Closed-loop same-shape jobs with idle neighbor workers: every job lands
  // on the shard's pinned worker. Its owner is registered idle before its
  // thread spawns and marked idle again before each result is published,
  // so no resubmission ever finds it serving, and thieves leave an idle
  // owner's shard alone.
  constexpr std::size_t kWorkers = 4;
  SchedulerService svc(small_service(kWorkers, 64, 0));
  ASSERT_EQ(svc.shards(), kWorkers);
  // The expected home worker, computed with the queue's own hash.
  const std::size_t home = ShardedJobQueue(64, kWorkers).shard_of_shape(32, 8);

  auto m = instance(32, 8);
  constexpr std::size_t kJobs = 100;
  std::size_t on_home = 0;
  for (std::size_t j = 0; j < kJobs; ++j) {
    JobSpec spec;
    spec.etc = m;
    spec.seed = j + 1;
    spec.deadline_ms = 10000.0;
    spec.policy = SolvePolicy::kCga;
    spec.max_generations = 2;
    spec.use_cache = false;
    const JobResult r = svc.wait(svc.submit(std::move(spec)));
    ASSERT_EQ(r.status, JobStatus::kDone);
    ASSERT_GE(r.worker, 0);
    if (static_cast<std::size_t>(r.worker) == home) ++on_home;
  }
  EXPECT_EQ(on_home, kJobs)
      << "a closed loop leaves a thief nothing to take";
}

TEST(SchedulerService, StealingSpreadsABackloggedShardAcrossWorkers) {
  // One hot shape, fire-and-forget backlog: the home shard queues deep and
  // the OTHER worker must steal rather than idle — the flip side of the
  // affinity test.
  SchedulerService svc(small_service(2, 64, 0));
  auto m = instance(64, 8);
  std::vector<JobId> ids;
  for (int j = 0; j < 8; ++j) {
    ids.push_back(svc.submit(long_job(m, 80.0)));
  }
  std::vector<bool> seen(2, false);
  for (const JobId id : ids) {
    const JobResult r = svc.wait(id);
    ASSERT_EQ(r.status, JobStatus::kDone);
    ASSERT_GE(r.worker, 0);
    ASSERT_LT(r.worker, 2);
    seen[static_cast<std::size_t>(r.worker)] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1])
      << "a backlogged shard must be served by both workers (stealing)";
  EXPECT_GT(svc.queue_steals(), 0u);
}

TEST(SchedulerService, ShortJobBehindALongOneRunsOnTheOtherWorker) {
  // Rule 2: a job admitted behind a serving owner wakes a parked peer
  // right away — it neither waits for the owner nor for a timer.
  SchedulerService svc(small_service(2, 64, 0));
  auto m = instance(64, 8);
  const std::size_t shard = ShardedJobQueue(64, 2).shard_of_shape(64, 8);
  const JobId long_id = svc.submit(long_job(m, 80.0));
  while (svc.shard_depths()[shard] != 0) std::this_thread::yield();
  JobSpec quick;
  quick.etc = m;
  quick.policy = SolvePolicy::kMinMin;
  quick.deadline_ms = 10000.0;
  quick.use_cache = false;
  const JobResult short_result = svc.wait(svc.submit(std::move(quick)));
  JobResult long_result;
  EXPECT_EQ(svc.poll_result(long_id, long_result),
            SchedulerService::Poll::kPending)
      << "the short job must not wait for the long one";
  long_result = svc.wait(long_id);
  ASSERT_EQ(short_result.status, JobStatus::kDone);
  ASSERT_EQ(long_result.status, JobStatus::kDone);
  EXPECT_EQ(static_cast<std::size_t>(long_result.worker), shard);
  EXPECT_NE(short_result.worker, long_result.worker);
}

TEST(SchedulerService, RescheduleKeepsShapeAffinity) {
  // The dynamic path rides the same sharded route: warm epochs of one
  // shape keep landing on the worker whose arena holds it.
  constexpr std::size_t kWorkers = 4;
  SchedulerService svc(small_service(kWorkers, 64, 0));
  const std::size_t home = ShardedJobQueue(64, kWorkers).shard_of_shape(48, 12);

  auto m = instance(48, 12);
  const sched::Schedule repair = heur::min_min(*m);
  constexpr std::size_t kJobs = 40;
  std::size_t on_home = 0;
  for (std::size_t j = 0; j < kJobs; ++j) {
    JobSpec spec;
    spec.etc = m;
    spec.seed = j + 1;
    spec.deadline_ms = 10000.0;
    spec.policy = SolvePolicy::kCga;
    spec.max_generations = 2;
    spec.use_cache = false;
    spec.warm_start.assign(repair.assignment().begin(),
                           repair.assignment().end());
    const JobResult r = svc.wait(svc.submit_reschedule(std::move(spec)));
    ASSERT_EQ(r.status, JobStatus::kDone);
    EXPECT_TRUE(r.warm_started);
    if (r.worker >= 0 && static_cast<std::size_t>(r.worker) == home) ++on_home;
  }
  EXPECT_EQ(on_home, kJobs);
}

TEST(SchedulerService, ShardObservabilityAccessors) {
  SchedulerService svc(small_service(3, 64, 32));
  EXPECT_EQ(svc.shards(), 3u);
  EXPECT_EQ(svc.shard_depths().size(), 3u);
  EXPECT_EQ(svc.cache().stripes(), 3u);
  auto m = instance(16, 4);
  JobSpec spec;
  spec.etc = m;
  spec.deadline_ms = 1000.0;
  const JobResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::kDone);
  const auto snap = svc.metrics();
  ASSERT_EQ(snap.worker_completed.size(), 3u);
  std::uint64_t sum = 0;
  for (const auto c : snap.worker_completed) sum += c;
  EXPECT_EQ(sum, snap.completed);
  for (const auto d : svc.shard_depths()) EXPECT_EQ(d, 0u);  // drained
}

// --- reschedule path (dynamic subsystem) -----------------------------------

TEST(SchedulerService, RescheduleWarmStartsFromCacheHit) {
  // The PR 2 solution cache doubles as the warm-start source: a
  // reschedule of a matrix the service has solved before is seeded with
  // the cached assignment instead of starting cold — and must NOT be
  // served the stale entry as its answer.
  SchedulerService svc(small_service(1, 8, 64));
  auto m = instance();
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kCga;
  spec.deadline_ms = 1000.0;
  spec.max_generations = 20;
  const JobResult first = svc.wait(svc.submit(spec));
  ASSERT_EQ(first.status, JobStatus::kDone);
  ASSERT_FALSE(first.cache_hit);  // now cached

  const JobResult re = svc.wait(svc.submit_reschedule(spec));
  EXPECT_EQ(re.status, JobStatus::kDone);
  EXPECT_TRUE(re.warm_started) << "cache entry should have become the seed";
  EXPECT_FALSE(re.cache_hit) << "reschedules re-optimize, never short-circuit";
  EXPECT_LE(re.makespan, first.makespan + 1e-9)
      << "seeded re-optimization must never end worse than its seed";
  EXPECT_EQ(svc.metrics().reschedules, 1u);

  // Without a cache entry (and no explicit warm start) a reschedule
  // degrades gracefully to a cold solve.
  SchedulerService cold_svc(small_service(1, 8, 0));
  const JobResult cold = cold_svc.wait(cold_svc.submit_reschedule(spec));
  EXPECT_EQ(cold.status, JobStatus::kDone);
  EXPECT_FALSE(cold.warm_started);
}

TEST(SchedulerService, RescheduleUnderExpiredDeadlineReturnsTheRepair) {
  // A reschedule popped past its deadline has a zero solver budget; the
  // kAuto escalation runs the microsecond heuristics, and the answer must
  // be AT LEAST as good as the repaired schedule it was seeded with —
  // the repair itself is a valid anytime result.
  SchedulerService svc(small_service(1, 8, 0));
  auto m = instance(64, 8);
  const JobId blocker = svc.submit(long_job(m, 400.0));

  const sched::Schedule repair = heur::min_min(*m);  // stands in for a repair
  const double repair_fitness = repair.makespan();
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kAuto;
  spec.deadline_ms = 5.0;  // expires in the queue behind the blocker
  spec.warm_start.assign(repair.assignment().begin(),
                         repair.assignment().end());
  const JobResult r = svc.wait(svc.submit_reschedule(std::move(spec)));
  (void)svc.wait(blocker);
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_TRUE(r.warm_started);
  EXPECT_TRUE(r.deadline_missed);
  ASSERT_EQ(r.assignment.size(), m->tasks());
  EXPECT_LE(r.makespan, repair_fitness + 1e-9)
      << "expired-deadline reschedule must still return the repair";
}

TEST(SchedulerService, RescheduleCancelledMidRepairStopsEarly) {
  SchedulerService svc(small_service(1, 8, 0));
  auto m = instance(128, 16);
  const sched::Schedule repair = heur::min_min(*m);
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kCga;
  spec.deadline_ms = 10000.0;
  spec.use_cache = false;
  spec.warm_start.assign(repair.assignment().begin(),
                         repair.assignment().end());
  const JobId id = svc.submit_reschedule(std::move(spec));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  support::WallTimer t;
  EXPECT_TRUE(svc.cancel(id));
  const JobResult r = svc.wait(id);
  EXPECT_LT(t.elapsed_seconds(), 5.0)
      << "cancellation must be honored within one generation";
  EXPECT_EQ(r.status, JobStatus::kCancelled);
}

TEST(SchedulerService, RejectsMalformedWarmStart) {
  SchedulerService svc(small_service());
  auto m = instance();
  JobSpec wrong_size;
  wrong_size.etc = m;
  wrong_size.warm_start.assign(m->tasks() + 1, 0);
  EXPECT_THROW(svc.submit_reschedule(std::move(wrong_size)),
               std::invalid_argument);
  JobSpec bad_machine;
  bad_machine.etc = m;
  bad_machine.warm_start.assign(m->tasks(), 0);
  bad_machine.warm_start[0] = static_cast<sched::MachineId>(m->machines());
  EXPECT_THROW(svc.submit_reschedule(std::move(bad_machine)),
               std::invalid_argument);
}

/// Refines the better of Min-min and Sufferage into a near-local-optimum
/// via a generous warm CGA solve: a stand-in for a thoroughly repaired
/// reschedule seed that a generation-capped cold engine cannot reach from
/// scratch. Seeded with both heuristics' winner, the refinement never ends
/// worse than either of them.
JobResult refined_seed(const etc::EtcMatrix& m) {
  cga::Config base;
  WarmSolver refiner(base);
  JobSpec refine;
  refine.policy = SolvePolicy::kCga;
  refine.max_generations = 40;
  refine.use_cache = false;
  const sched::Schedule minmin = heur::min_min(m);
  const sched::Schedule sufferage = heur::sufferage(m);
  const auto& start =
      minmin.makespan() <= sufferage.makespan() ? minmin : sufferage;
  refine.warm_start.assign(start.assignment().begin(),
                           start.assignment().end());
  JobResult out;
  refiner.solve(m, refine, 5.0, nullptr, out);
  return out;
}

TEST(SchedulerService, LargeRescheduleEscalatesToSeededPaCga) {
  // THE seeding acceptance test: a large-shape reschedule with a refined
  // seed and a tight generation cap escalates to PA-CGA and must report
  // kPaCga provenance while matching-or-beating the seed. Before the seed
  // was plumbed into the engine, the capped cold run ended worse than the
  // refined seed, the safety-net clamp overwrote the result, and
  // policy_used came back kWarmStart — exactly what this pins out.
  auto m = instance(512, 16, 9);
  const JobResult refined = refined_seed(*m);
  ASSERT_EQ(refined.assignment.size(), m->tasks());

  SchedulerService svc(small_service(1, 8, 0));
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kAuto;
  spec.deadline_ms = 5000.0;  // budget >= kParallelBudgetSeconds -> kPaCga
  spec.max_generations = 2;   // too few to reach the seed from cold
  spec.use_cache = false;
  spec.warm_start = refined.assignment;
  const JobResult r = svc.wait(svc.submit_reschedule(std::move(spec)));
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_TRUE(r.warm_started);
  EXPECT_EQ(r.policy_used, SolvePolicy::kPaCga)
      << "kWarmStart here means the clamp fired: the seed never entered "
         "the parallel engine";
  ASSERT_EQ(r.assignment.size(), m->tasks());
  EXPECT_LE(r.makespan, refined.makespan + 1e-9)
      << "a seeded PA-CGA run is never worse than its seed";
}

TEST(SchedulerService, ExpiredDeadlineLargeRescheduleReturnsRepairVerbatim) {
  // The seed-clamp fallback is reached ONLY on expired deadlines now: the
  // zero-budget escalation runs the microsecond heuristics, the refined
  // repair beats them, and the clamp hands the repair back verbatim with
  // kWarmStart provenance.
  auto m = instance(512, 16, 9);
  const JobResult refined = refined_seed(*m);
  // The discriminating premise: the refined repair is strictly better
  // than anything the expired-deadline heuristics can produce.
  const double heuristic_best =
      std::min(heur::min_min(*m).makespan(), heur::sufferage(*m).makespan());
  ASSERT_LT(refined.makespan, heuristic_best);

  SchedulerService svc(small_service(1, 8, 0));
  const JobId blocker = svc.submit(long_job(m, 400.0));
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kAuto;
  spec.deadline_ms = 5.0;  // expires in the queue behind the blocker
  spec.use_cache = false;
  spec.warm_start = refined.assignment;
  const JobResult r = svc.wait(svc.submit_reschedule(std::move(spec)));
  (void)svc.wait(blocker);
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_TRUE(r.warm_started);
  EXPECT_TRUE(r.deadline_missed);
  EXPECT_EQ(r.policy_used, SolvePolicy::kWarmStart);
  EXPECT_EQ(r.assignment, refined.assignment)
      << "the expired-deadline path must return the repair verbatim";
  EXPECT_DOUBLE_EQ(r.makespan, refined.makespan);
}

// --- WarmSolver ------------------------------------------------------------

TEST(WarmSolver, AutoEscalationByBudgetAndSize) {
  cga::Config base;
  WarmSolver solver(base);
  auto small = instance(8, 4);
  auto medium = instance(64, 8);
  auto large = instance(512, 16);
  JobSpec spec;
  spec.policy = SolvePolicy::kAuto;
  // Tiny instance or tiny budget -> heuristics.
  EXPECT_EQ(solver.decide(spec, *small, 1.0), SolvePolicy::kMinMin);
  EXPECT_EQ(solver.decide(spec, *medium, 0.0005), SolvePolicy::kMinMin);
  // Real budget on a medium instance -> warm sequential CGA.
  EXPECT_EQ(solver.decide(spec, *medium, 0.050), SolvePolicy::kCga);
  // Generous budget on a big instance -> PA-CGA.
  EXPECT_EQ(solver.decide(spec, *large, 1.0), SolvePolicy::kPaCga);
  // Explicit policies are never overridden.
  spec.policy = SolvePolicy::kSufferage;
  EXPECT_EQ(solver.decide(spec, *large, 1.0), SolvePolicy::kSufferage);
}

TEST(WarmSolver, HeuristicEscalationBeatsOrMatchesMinMin) {
  cga::Config base;
  WarmSolver solver(base);
  auto m = instance(10, 4);  // <= kHeuristicMaxTasks: auto -> heuristics
  JobSpec spec;
  spec.policy = SolvePolicy::kAuto;
  JobResult out;
  solver.solve(*m, spec, /*budget_seconds=*/1.0, nullptr, out);
  EXPECT_TRUE(out.policy_used == SolvePolicy::kMinMin ||
              out.policy_used == SolvePolicy::kSufferage);
  const sched::Schedule mm = heur::min_min(*m);
  EXPECT_LE(out.makespan,
            sched::evaluate(mm, base.objective, base.lambda) + 1e-9);
}

TEST(WarmSolver, RepeatedSameShapeSolvesAllocateNothing) {
  // THE acceptance property of the warm pool: after the first solve sizes
  // the arena for a shape, a whole kCga solve of another same-shape job —
  // population reseed, sweep loop, breeding, result fill — performs ZERO
  // heap allocations (Min-min seeding off: the constructive heuristic
  // allocates internally and is the documented exception).
  cga::Config base;
  base.seed_min_min = false;
  base.local_search.iterations = 10;  // paper configuration
  WarmSolver solver(base);

  auto m1 = instance(64, 8, 1);
  auto m2 = instance(64, 8, 2);
  auto m3 = instance(64, 8, 3);
  JobSpec spec;
  spec.policy = SolvePolicy::kCga;
  spec.max_generations = 5;
  spec.use_cache = false;

  JobResult out;
  spec.seed = 1;
  solver.solve(*m1, spec, 10.0, nullptr, out);  // cold: builds the arena
  spec.seed = 2;
  solver.solve(*m2, spec, 10.0, nullptr, out);  // warm-up second instance
  ASSERT_EQ(out.assignment.size(), m2->tasks());

  const std::uint64_t before = g_allocations.load();
  spec.seed = 3;
  solver.solve(*m3, spec, 10.0, nullptr, out);
  EXPECT_EQ(g_allocations.load(), before)
      << "warm same-shape kCga solve must not touch the heap";
}

TEST(WarmSolver, BreedingPathAllocationFreeWithMinMinSeeding) {
  // With the default Min-min seeding ON, the first solve of a matrix
  // allocates (the heuristic does), but the breeding path — everything
  // between the first and the last generation — must still be
  // allocation-free. A second solve of the same matrix takes its Min-min
  // seed from the arena's seed table, so the whole solve allocates nothing.
  cga::Config base;  // seed_min_min = true
  base.local_search.iterations = 10;
  WarmSolver solver(base);

  auto m = instance(64, 8, 4);
  JobSpec spec;
  spec.policy = SolvePolicy::kCga;
  spec.max_generations = 8;
  spec.use_cache = false;

  JobResult out;
  solver.solve(*m, spec, 10.0, nullptr, out);  // warm-up

  std::uint64_t at_first_generation = 0;
  std::uint64_t at_last_generation = 0;
  const cga::GenerationObserver observer =
      [&](const cga::GenerationEvent& e) {
        if (e.generation == 1) at_first_generation = g_allocations.load();
        at_last_generation = g_allocations.load();
      };
  const std::uint64_t before = g_allocations.load();
  solver.solve(*m, spec, 10.0, nullptr, out, observer);
  EXPECT_EQ(at_last_generation, at_first_generation)
      << "generations 2..n of a warm solve must not allocate";
#ifdef NDEBUG  // debug builds recompute Min-min on every seed-table hit
  EXPECT_EQ(g_allocations.load(), before)
      << "a warm solve of a seen matrix must not touch the heap";
#else
  (void)before;
#endif
}

TEST(WarmSolver, AlternatingShapesBuildEachArenaOnce) {
  // Each arena shape keeps its own warm arena: jobs alternating between
  // two shapes build two arenas in total, not one per switch.
  WarmSolver solver(cga::Config{});
  auto a = instance(64, 8, 5);
  auto b = instance(128, 16, 6);
  JobSpec spec;
  spec.policy = SolvePolicy::kCga;
  spec.max_generations = 2;
  spec.use_cache = false;
  JobResult out;
  for (std::uint64_t job = 0; job < 8; ++job) {
    spec.seed = job;
    solver.solve(job % 2 == 0 ? *a : *b, spec, 10.0, nullptr, out);
  }
  EXPECT_EQ(solver.arena_builds(), 2u);
}

TEST(WarmSolver, CgaSolveEqualsRunSequential) {
  // The warm arenas and cga::run_sequential are one algorithm: over the
  // same arena config and seed, a generation-capped kCga solve returns
  // exactly run_sequential's result. Each WarmSolver serves every case of
  // its seeding setting in turn, so all but its first solve of a shape run
  // warm. A second pass interleaves the shapes job by job (64, 512, 128,
  // 64, ...) on the same matrices, so every solve reuses an arena after a
  // shape switch and, with Min-min seeding, takes its seed from the seed
  // table. The 32x16 base shrinks to 16x16 for 64 tasks and stays 32x16
  // for 128 and 512.
  struct Shape {
    std::size_t tasks, machines, width, height;
  };
  const Shape shapes[] = {{64, 8, 16, 16}, {128, 8, 32, 16}, {512, 16, 32, 16}};
  constexpr std::uint64_t kGenerations = 12;
  for (const bool min_min : {true, false}) {
    cga::Config base;
    base.width = 32;
    base.height = 16;
    base.seed_min_min = min_min;
    WarmSolver solver(base);
    const auto check = [&](const Shape& shape, bool warm, std::uint64_t seed,
                           int pass) {
      SCOPED_TRACE(testing::Message()
                   << shape.tasks << "x" << shape.machines
                   << " min_min=" << min_min << " warm=" << warm
                   << " seed=" << seed << " pass=" << pass);
      auto m = instance(shape.tasks, shape.machines, shape.tasks);
      JobSpec spec;
      spec.policy = SolvePolicy::kCga;
      spec.seed = seed;
      spec.max_generations = kGenerations;
      spec.use_cache = false;
      if (warm) {
        const sched::Schedule seed_schedule = heur::sufferage(*m);
        const auto a = seed_schedule.assignment();
        spec.warm_start.assign(a.begin(), a.end());
      }
      JobResult out;
      solver.solve(*m, spec, 10.0, nullptr, out);

      cga::Config config = base;
      config.width = shape.width;
      config.height = shape.height;
      config.seed = seed;
      config.termination = cga::Termination::after_seconds(10.0);
      config.termination.max_generations = kGenerations;
      config.warm_seed = spec.warm_start;
      const cga::Result ref = cga::run_sequential(*m, config);

      const auto a = ref.best.assignment();
      EXPECT_EQ(out.assignment,
                std::vector<sched::MachineId>(a.begin(), a.end()));
      EXPECT_EQ(out.makespan, ref.best_fitness);
      EXPECT_EQ(out.generations, ref.generations);
      EXPECT_EQ(out.evaluations, ref.evaluations);
      EXPECT_EQ(out.policy_used, SolvePolicy::kCga);
    };
    for (const Shape& shape : shapes) {
      for (const bool warm : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          check(shape, warm, seed, 1);
        }
      }
    }
    for (const bool warm : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const std::size_t s : {0, 2, 1}) check(shapes[s], warm, seed, 2);
      }
    }
    EXPECT_EQ(solver.arena_builds(), std::size(shapes));
  }
}

// --- observability integration ---------------------------------------------

TEST(SchedulerService, TraceRecordsTheJobLifecycle) {
  SchedulerService svc(small_service(2, 64, 64));
  auto m = instance(32, 8);
  JobSpec spec;
  spec.etc = m;
  spec.deadline_ms = 1000.0;
  const JobId id = svc.submit(spec);
  const JobResult r = svc.wait(id);
  ASSERT_EQ(r.status, JobStatus::kDone);
  svc.drain();
  const std::vector<obs::SpanEvent> spans = svc.trace().job_spans(id);
  ASSERT_FALSE(spans.empty());
  bool wait = false, serve = false, probe = false, completed = false;
  for (const obs::SpanEvent& e : spans) {
    EXPECT_EQ(e.job_id, id);
    if (e.kind == obs::SpanKind::kQueueWait) wait = true;
    if (e.kind == obs::SpanKind::kServe) serve = true;
    if (e.kind == obs::SpanKind::kCacheProbe) probe = true;
    if (e.kind == obs::SpanKind::kCompleted) completed = true;
  }
  EXPECT_TRUE(wait);
  EXPECT_TRUE(serve);
  EXPECT_TRUE(probe);
  EXPECT_TRUE(completed);
  // Spans are sorted by ts and the serve envelope closes before the
  // terminal instant.
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_LE(spans[i - 1].ts_ns, spans[i].ts_ns);
}

TEST(SchedulerService, TraceCapacityZeroDisablesTracingOnly) {
  ServiceOptions o = small_service(2, 64, 64);
  o.trace_capacity = 0;
  SchedulerService svc(o);
  auto m = instance(24, 6);
  constexpr std::size_t kJobs = 12;
  for (std::size_t j = 0; j < kJobs; ++j) {
    JobSpec spec;
    spec.etc = m;
    spec.seed = j;
    spec.deadline_ms = 1000.0;
    const JobId id = svc.submit(spec);
    EXPECT_EQ(svc.wait(id).status, JobStatus::kDone);
    EXPECT_TRUE(svc.trace().job_spans(id).empty());
  }
  svc.drain();
  // The histograms still count every completion.
  const auto snap = svc.metrics();
  EXPECT_EQ(snap.completed, kJobs);
  EXPECT_EQ(snap.queue_wait_hist.count(), kJobs);
  EXPECT_EQ(snap.solve_hist.count(), kJobs);
  EXPECT_EQ(snap.e2e_hist.count(), kJobs);
  // End-to-end covers wait + solve, so its median cannot undercut the
  // wait median.
  EXPECT_GE(snap.e2e_hist.quantile_ns(0.5),
            snap.queue_wait_hist.quantile_ns(0.5));
}

TEST(SchedulerService, ResultsIdenticalWithTracingOnAndOff) {
  // Tracing observes; it must not perturb. The same pinned-seed
  // capped-generation solve must produce the identical result either way.
  auto m = instance(32, 8);
  JobResult results[2];
  for (int traced = 0; traced < 2; ++traced) {
    ServiceOptions o = small_service(1, 64, 0);
    if (traced == 0) o.trace_capacity = 0;
    SchedulerService svc(o);
    JobSpec spec;
    spec.etc = m;
    spec.seed = 42;
    spec.deadline_ms = 10000.0;
    spec.policy = SolvePolicy::kCga;
    spec.max_generations = 12;
    spec.use_cache = false;
    results[traced] = svc.wait(svc.submit(std::move(spec)));
  }
  EXPECT_EQ(results[0].status, results[1].status);
  EXPECT_EQ(results[0].makespan, results[1].makespan);  // bit-identical
  EXPECT_EQ(results[0].generations, results[1].generations);
  EXPECT_EQ(results[0].evaluations, results[1].evaluations);
}

TEST(Exposition, FormatMetricPrintsDashForNonFinite) {
  EXPECT_EQ(format_metric(std::nan("")), "-");
  EXPECT_EQ(format_metric(std::numeric_limits<double>::infinity()), "-");
  EXPECT_EQ(format_metric(-std::numeric_limits<double>::infinity()), "-");
  EXPECT_EQ(format_metric(1.5), "1.500");
  EXPECT_EQ(format_metric(2.25, 2), "2.25");
  EXPECT_EQ(format_metric(0.0), "0.000");
}

TEST(Exposition, PrometheusTextOfAnIdleServiceIsWellFormed) {
  SchedulerService svc(small_service(2, 64, 64));
  std::ostringstream out;
  write_prometheus(out, svc.metrics());
  const std::string text = out.str();
  EXPECT_NE(text.find("pacga_jobs_submitted_total 0"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pacga_solve_seconds summary"),
            std::string::npos);
  // Empty distributions expose quantiles as NaN (the Prometheus spelling,
  // never a bare nan from printf).
  EXPECT_NE(text.find("{quantile=\"0.99\"} NaN"), std::string::npos);
  EXPECT_NE(text.find("pacga_solve_seconds_count 0"), std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

// --- robustness: failure paths, retry/quarantine, watchdog, shedding -------

/// Overload shedding needs no failpoints: watermark 0.5 on a 1-shard
/// (1-worker) service must start refusing at HALF the shard capacity,
/// well before the queue itself is full, and count the refusals as shed.
TEST(SchedulerService, ShedWatermarkRejectsBeforeTheQueueIsFull) {
  ServiceOptions o = small_service(1, 8, 0);
  o.shed_watermark = 0.5;
  SchedulerService svc(o);
  auto m = instance(128, 16);
  const JobId running = svc.submit(long_job(m, 5000.0));  // occupies the worker
  std::vector<JobId> queued;
  support::WallTimer t;
  for (;;) {
    auto id = svc.try_submit(long_job(m, 5000.0));
    if (!id) break;
    queued.push_back(*id);
    ASSERT_LT(t.elapsed_seconds(), 5.0) << "watermark never tripped";
  }
  const auto snap = svc.metrics();
  EXPECT_GE(snap.shed, 1u);
  EXPECT_EQ(snap.rejected, snap.shed) << "watermark, not queue-full, refused";
  // The shard (capacity 8) was refused at watermark depth, not at 8.
  EXPECT_LE(queued.size(), 5u);
  EXPECT_GT(svc.retry_hint_ms(), 0.0);
  svc.cancel(running);
  for (JobId id : queued) svc.cancel(id);
  svc.drain();
}

// --- supervisor ownership protocol -----------------------------------------
// The retry handoff participates in the first-finisher-wins race without
// finishing anything: a worker whose solve threw CLAIMS the job before
// schedule_retry. These pin the three legs of that protocol — claim vs
// finish ordering, the watchdog refusing its stall verdict under a held
// claim, and the retry timer dropping tickets someone else finished.

TEST(JobState, RetryClaimParticipatesInTheOwnershipRace) {
  // Claim first: a commit gated on the claim (the watchdog's stalled
  // verdict) is refused; releasing the claim lets it through.
  JobState job;
  ASSERT_TRUE(job.try_claim_retry());
  JobResult stalled;
  stalled.status = JobStatus::kFailed;
  EXPECT_FALSE(job.try_finish_if([&] { return !job.retry_claimed; },
                                 std::move(stalled), [] {}));
  EXPECT_FALSE(job.is_finished());
  job.release_retry_claim();
  JobResult r;
  r.status = JobStatus::kFailed;
  EXPECT_TRUE(job.try_finish_if([&] { return !job.retry_claimed; },
                                std::move(r), [] {}));
  EXPECT_TRUE(job.is_finished());
  // Finish first: the claim must fail — the would-be claimant lost the
  // race exactly as if its own commit had failed.
  JobState done;
  ASSERT_TRUE(done.try_finish_with(JobResult{}));
  EXPECT_FALSE(done.try_claim_retry());
}

TEST(Supervisor, ScheduleRetryRefusedOnceStopped) {
  ServiceMetrics metrics(1);
  Supervisor sup({}, 1, metrics, [](const JobTicket&) { return 0; },
                 [](std::size_t) {}, {});
  sup.start();
  sup.stop();
  auto job = std::make_shared<JobState>();
  job->attempts = 1;
  EXPECT_FALSE(sup.schedule_retry(job))
      << "the intake closes before stop()'s final flush, so a handoff can "
         "never land where nothing will ever drain it";
}

TEST(Supervisor, FlushDropsTicketsFinishedDuringBackoff) {
  ServiceMetrics metrics(1);
  std::atomic<int> requeued{0};
  SupervisorOptions o;
  o.poll_ms = 2.0;
  Supervisor sup(
      o, 1, metrics,
      [&](const JobTicket&) {
        requeued.fetch_add(1);
        return 0;
      },
      [](std::size_t) {}, {});
  sup.start();
  auto job = std::make_shared<JobState>();
  job->attempts = 1;
  ASSERT_TRUE(job->try_claim_retry());
  ASSERT_TRUE(sup.schedule_retry(job));
  // Someone else finishes the job while it waits out its backoff: the
  // timer must DROP the ticket — re-queueing a finished job would make
  // the worker that pops it lose a commit and look superseded.
  JobResult r;
  r.status = JobStatus::kCancelled;
  ASSERT_TRUE(job->try_finish_with(std::move(r)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(requeued.load(), 0);
  sup.stop();  // the abandon flush must not resurrect it either
  EXPECT_EQ(requeued.load(), 0);
  EXPECT_EQ(job->result.status, JobStatus::kCancelled);
}

TEST(Supervisor, WatchdogRefusesStallVerdictWhileRetryClaimIsHeld) {
  ServiceMetrics metrics(1);
  std::atomic<int> respawns{0};
  SupervisorOptions o;
  o.poll_ms = 2.0;
  o.min_stall_ms = 5.0;
  o.stall_factor = 1.0;
  Supervisor sup(o, 1, metrics, [](const JobTicket&) { return 0; },
                 [&](std::size_t) { respawns.fetch_add(1); }, {});
  sup.start();
  auto job = std::make_shared<JobState>();
  job->spec.deadline_ms = 1.0;  // stall threshold = min_stall_ms = 5 ms
  ASSERT_TRUE(job->try_claim_retry());  // worker mid-handoff: alive
  const std::uint64_t gen = sup.generation(0);
  sup.begin_serve(0, gen, job);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Long past the threshold, but the claim proves the worker is alive:
  // no verdict, no respawn, no generation bump — the alternative is two
  // live threads owning one worker index.
  EXPECT_FALSE(job->is_finished());
  EXPECT_EQ(respawns.load(), 0);
  EXPECT_FALSE(sup.superseded(0, gen));
  // Claim down (as after a re-queue): the same stall now draws the
  // verdict, the supersession, and the respawn.
  job->release_retry_claim();
  support::WallTimer t;
  while (!job->is_finished()) {
    ASSERT_LT(t.elapsed_seconds(), 5.0) << "watchdog never fired";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(job->result.status, JobStatus::kFailed);
  EXPECT_EQ(job->result.error, "stalled");
  // The watchdog commits first, then supersedes, then respawns: the last
  // two land after the result is visible.
  while (respawns.load() == 0) {
    ASSERT_LT(t.elapsed_seconds(), 5.0) << "verdict without a respawn";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(sup.superseded(0, gen));
  EXPECT_GE(respawns.load(), 1);
  sup.stop();
}

/// Arms `site` for the test body, disarming on scope exit even on
/// assertion failure — armed leftovers would poison later tests.
class ScopedFailpoint {
 public:
  ScopedFailpoint(const char* site, const char* spec) : site_(site) {
    support::failpoints().configure(site_, spec);
  }
  ~ScopedFailpoint() { support::failpoints().configure(site_, "off"); }

 private:
  const char* site_;
};

TEST(SchedulerService, SolverFailureIsTerminalUnderEveryPolicy) {
  const SolvePolicy policies[] = {SolvePolicy::kMinMin, SolvePolicy::kSufferage,
                                  SolvePolicy::kCga, SolvePolicy::kPaCga,
                                  SolvePolicy::kAuto};
  SchedulerService svc(small_service(1, 8, 0));
  auto m = instance();
  std::uint64_t failed = 0;
  for (SolvePolicy p : policies) {
    ScopedFailpoint fp("solver.solve", "once:throw");
    JobSpec spec;
    spec.etc = m;
    spec.policy = p;
    spec.deadline_ms = 1000.0;
    spec.max_generations = 10;
    spec.use_cache = false;
    const JobResult r = svc.wait(svc.submit(spec));
    EXPECT_EQ(r.status, JobStatus::kFailed) << to_string(p);
    // WAIT-side failure reason: the error names the thrown cause.
    EXPECT_NE(r.error.find("failpoint solver.solve"), std::string::npos)
        << to_string(p) << ": '" << r.error << "'";
    EXPECT_TRUE(r.assignment.empty()) << to_string(p);
    ++failed;
  }
  svc.drain();
  EXPECT_EQ(svc.metrics().failed, failed);
  EXPECT_EQ(svc.metrics().completed, 0u);
}

TEST(SchedulerService, FailedJobNeverPollutesTheCache) {
  SchedulerService svc(small_service(1, 8, 64));
  auto m = instance();
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kMinMin;
  spec.deadline_ms = 1000.0;
  {
    ScopedFailpoint fp("solver.solve", "once:throw");
    const JobResult r = svc.wait(svc.submit(spec));
    ASSERT_EQ(r.status, JobStatus::kFailed);
  }
  // The SAME spec, injection gone: a poisoned cache would replay the
  // failure (or hit on garbage); a clean one re-solves, THEN hits.
  const JobResult first = svc.wait(svc.submit(spec));
  EXPECT_EQ(first.status, JobStatus::kDone);
  EXPECT_FALSE(first.cache_hit);
  const JobResult second = svc.wait(svc.submit(spec));
  EXPECT_EQ(second.status, JobStatus::kDone);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.assignment, first.assignment);
}

TEST(SchedulerService, TransientFailureIsRetriedToSuccess) {
  SchedulerService svc(small_service(1, 8, 0));
  auto m = instance();
  ScopedFailpoint fp("solver.solve", "once:throw");  // attempt 1 fails
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kMinMin;
  spec.deadline_ms = 1000.0;
  spec.use_cache = false;
  spec.max_retries = 2;
  const JobResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_EQ(r.retries, 1u);
  ASSERT_EQ(r.assignment.size(), m->tasks());
  svc.drain();
  const auto snap = svc.metrics();
  EXPECT_EQ(snap.retries, 1u);
  EXPECT_EQ(snap.quarantined, 0u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.failed, 0u) << "a retried-to-success job is not a failure";
}

TEST(SchedulerService, PoisonJobIsQuarantinedAfterExhaustingRetries) {
  SchedulerService svc(small_service(1, 8, 0));
  auto m = instance();
  ScopedFailpoint fp("solver.solve", "every=1:throw");  // every attempt fails
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kMinMin;
  spec.deadline_ms = 1000.0;
  spec.use_cache = false;
  spec.max_retries = 2;
  const JobResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.error, "quarantined");
  EXPECT_EQ(r.retries, 2u) << "attempts 2 and 3 were the retry budget";
  svc.drain();
  const auto snap = svc.metrics();
  EXPECT_EQ(snap.retries, 2u);
  EXPECT_EQ(snap.quarantined, 1u);
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_EQ(snap.submitted, snap.completed + snap.failed + snap.cancelled);
}

TEST(SchedulerService, WatchdogFailsWedgedJobAndRespawnsTheWorker) {
  ServiceOptions o = small_service(1, 8, 0);
  o.supervision.stall_factor = 2.0;
  o.supervision.min_stall_ms = 100.0;
  o.supervision.poll_ms = 5.0;
  SchedulerService svc(o);
  auto m = instance();
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kMinMin;
  spec.deadline_ms = 50.0;  // stall threshold = max(100, 2 x 50) = 100 ms
  spec.use_cache = false;
  JobId wedged_id;
  {
    ScopedFailpoint fp("solver.solve", "once:wedge");
    support::WallTimer t;
    wedged_id = svc.submit(spec);
    const JobResult r = svc.wait(wedged_id);
    // The ONLY worker is parked inside the wedge; this result can only
    // come from the watchdog, well before any multi-second hang.
    EXPECT_EQ(r.status, JobStatus::kFailed);
    EXPECT_NE(r.error.find("stalled"), std::string::npos) << r.error;
    EXPECT_LT(t.elapsed_seconds(), 5.0);
  }  // disarm releases the parked (now superseded) thread
  // The respawned worker must serve the same home shard: same-shape jobs
  // keep completing on worker 0.
  for (int i = 0; i < 3; ++i) {
    const JobResult r = svc.wait(svc.submit(spec));
    EXPECT_EQ(r.status, JobStatus::kDone);
  }
  svc.drain();
  const auto snap = svc.metrics();
  EXPECT_EQ(snap.stalled, 1u);
  EXPECT_GE(snap.worker_restarts, 1u);
  EXPECT_EQ(snap.completed, 3u);
  ASSERT_EQ(snap.worker_completed.size(), 1u);
  EXPECT_EQ(snap.worker_completed[0], 3u)
      << "replacement thread owns the restarted worker's slot";
  EXPECT_EQ(snap.submitted, snap.completed + snap.failed + snap.cancelled);
}

TEST(SchedulerService, FailpointMidSeededSolveRetriesWithWarmPathIntact) {
  // Chaos flavor of the escalation test: the first seeded PA-CGA attempt
  // throws at the solver.solve failpoint; the retry must run the SAME
  // warm path — seeded engine, kPaCga provenance, never worse than the
  // seed — not degrade to a cold solve or the clamp.
  auto m = instance(512, 16, 9);
  const JobResult refined = refined_seed(*m);

  SchedulerService svc(small_service(1, 8, 0));
  ScopedFailpoint fp("solver.solve", "once:throw");  // attempt 1 fails
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kAuto;
  spec.deadline_ms = 5000.0;
  spec.max_generations = 2;
  spec.use_cache = false;
  spec.max_retries = 1;
  spec.warm_start = refined.assignment;
  const JobResult r = svc.wait(svc.submit_reschedule(std::move(spec)));
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_TRUE(r.warm_started);
  EXPECT_EQ(r.policy_used, SolvePolicy::kPaCga);
  ASSERT_EQ(r.assignment.size(), m->tasks());
  EXPECT_LE(r.makespan, refined.makespan + 1e-9);
  svc.drain();
  EXPECT_EQ(svc.metrics().quarantined, 0u);
}

// --- cache hits answered at admission ---------------------------------------

/// A kMinMin job on `m`: instant to solve, and its answer is cached.
JobSpec heuristic_job(const std::shared_ptr<const etc::EtcMatrix>& m) {
  JobSpec spec;
  spec.etc = m;
  spec.policy = SolvePolicy::kMinMin;
  spec.deadline_ms = 60000.0;
  return spec;
}

std::size_t wedged_at(const char* site) {
  return support::FailpointTestPeer::wedged(support::failpoints().site(site));
}

/// Cancels `ids` on scope exit, so a failed assertion does not leave the
/// service draining long solves before the next test.
struct CancelOnExit {
  SchedulerService& svc;
  std::vector<JobId> ids;
  ~CancelOnExit() {
    for (JobId id : ids) svc.cancel(id);
  }
};

TEST(SchedulerService, CacheHitCompletesWhileTheOnlyWorkerIsWedged) {
  SchedulerService svc(small_service(1, 8, 64));
  auto m = instance();
  const JobResult first = svc.wait(svc.submit(heuristic_job(m)));
  ASSERT_EQ(first.status, JobStatus::kDone);
  ASSERT_FALSE(first.cache_hit);
  ASSERT_EQ(first.worker, 0);

  {
    CancelOnExit parked{svc, {}};
    ScopedFailpoint fp("solver.solve", "once:wedge");
    // A long deadline keeps the watchdog off the parked job.
    parked.ids.push_back(svc.submit(long_job(instance(48, 12, 3), 60000.0)));
    support::WallTimer t;
    while (wedged_at("solver.solve") == 0) {
      ASSERT_LT(t.elapsed_seconds(), 5.0) << "the worker never parked";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Polled, not waited: a hit routed through the parked worker would
    // hang here instead of failing.
    const JobId id = svc.submit(heuristic_job(m));
    JobResult hit;
    t.restart();
    while (svc.poll_result(id, hit) != SchedulerService::Poll::kReady) {
      ASSERT_LT(t.elapsed_seconds(), 5.0) << "the hit waited for the worker";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(hit.status, JobStatus::kDone);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.worker, -1);
    EXPECT_EQ(hit.queue_wait_seconds, 0.0);
    EXPECT_EQ(hit.policy_used, SolvePolicy::kMinMin);
    EXPECT_EQ(hit.assignment, first.assignment);
    EXPECT_EQ(hit.makespan, first.makespan);
    EXPECT_EQ(wedged_at("solver.solve"), 1u) << "served around the worker";
  }  // disarm releases the worker, which drops the cancelled job
  svc.drain();
  const auto snap = svc.metrics();
  EXPECT_EQ(snap.admission_hits, 1u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.submitted, 3u);
}

TEST(SchedulerService, TrySubmitAnswersAHitWhileItsShardIsFull) {
  SchedulerService svc(small_service(1, 1, 64));
  auto m = instance();
  const JobResult first = svc.wait(svc.submit(heuristic_job(m)));
  ASSERT_EQ(first.status, JobStatus::kDone);
  // One long job holds the worker, the next fills the only slot.
  CancelOnExit blockers{svc, {svc.submit(long_job(m, 5000.0))}};
  support::WallTimer t;
  while (svc.shard_depths()[0] != 0) {
    ASSERT_LT(t.elapsed_seconds(), 5.0) << "the worker never picked up";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  blockers.ids.push_back(svc.submit(long_job(m, 5000.0)));
  ASSERT_FALSE(svc.try_submit(long_job(m, 5000.0)).has_value());
  const std::uint64_t rejected = svc.metrics().rejected;

  const std::optional<JobId> hit = svc.try_submit(heuristic_job(m));
  ASSERT_TRUE(hit.has_value()) << "a cached answer was refused";
  const JobResult r = svc.wait(*hit);
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(r.worker, -1);
  EXPECT_EQ(r.assignment, first.assignment);
  EXPECT_EQ(svc.metrics().rejected, rejected);
  EXPECT_EQ(svc.shard_depths()[0], 1u) << "the hit took no shard slot";
}

TEST(SchedulerService, WarmStartedAndUncachedJobsNeverCompleteAtAdmission) {
  SchedulerService svc(small_service(1, 8, 64));
  auto m = instance();
  const JobResult first = svc.wait(svc.submit(heuristic_job(m)));
  ASSERT_EQ(first.status, JobStatus::kDone);

  JobSpec uncached = heuristic_job(m);
  uncached.use_cache = false;
  const JobResult fresh = svc.wait(svc.submit(uncached));
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.worker, 0);

  // Warm start sourced from the cache entry, then re-optimized.
  const JobResult sourced = svc.wait(svc.submit_reschedule(heuristic_job(m)));
  EXPECT_TRUE(sourced.warm_started);
  EXPECT_FALSE(sourced.cache_hit);
  EXPECT_EQ(sourced.worker, 0);

  JobSpec seeded = heuristic_job(m);
  seeded.warm_start = first.assignment;
  const JobResult explicit_seed = svc.wait(svc.submit(seeded));
  EXPECT_TRUE(explicit_seed.warm_started);
  EXPECT_FALSE(explicit_seed.cache_hit);
  EXPECT_EQ(explicit_seed.worker, 0);

  EXPECT_EQ(svc.metrics().admission_hits, 0u);
}

TEST(SchedulerService, WorkerCompletionsPlusAdmissionHitsSumToCompleted) {
  SchedulerService svc(small_service(2, 64, 64));
  const std::shared_ptr<const etc::EtcMatrix> shapes[] = {
      instance(24, 6, 1), instance(32, 8, 2), instance(48, 12, 3)};
  constexpr std::size_t kRounds = 4;
  std::size_t hits = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (const auto& m : shapes) {
      const JobResult r = svc.wait(svc.submit(heuristic_job(m)));
      ASSERT_EQ(r.status, JobStatus::kDone);
      EXPECT_EQ(r.cache_hit, round > 0);
      EXPECT_EQ(r.worker < 0, r.cache_hit);
      hits += r.cache_hit ? 1 : 0;
    }
  }
  svc.drain();
  const auto snap = svc.metrics();
  const std::uint64_t served = std::accumulate(
      snap.worker_completed.begin(), snap.worker_completed.end(),
      std::uint64_t{0});
  EXPECT_EQ(snap.completed, kRounds * std::size(shapes));
  EXPECT_EQ(snap.admission_hits, hits);
  EXPECT_EQ(served + snap.admission_hits, snap.completed);
  EXPECT_EQ(snap.cache_hits, hits);
  // The admission slot joins every histogram; the retry hint reads the
  // workers' solves only.
  EXPECT_EQ(snap.queue_wait_hist.count(), snap.completed);
  EXPECT_EQ(snap.e2e_hist.count(), snap.completed);
}

TEST(SchedulerService, AdmissionHitIsTracedOnTheSubmissionLane) {
  SchedulerService svc(small_service(2, 64, 64));
  auto m = instance();
  ASSERT_FALSE(svc.wait(svc.submit(heuristic_job(m))).cache_hit);
  const JobId id = svc.submit(heuristic_job(m));
  ASSERT_TRUE(svc.wait(id).cache_hit);
  const std::vector<obs::SpanEvent> spans = svc.trace().job_spans(id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kCacheProbe);
  EXPECT_EQ(spans[0].b, 1u) << "hit";
  EXPECT_EQ(spans[1].kind, obs::SpanKind::kCompleted);
  for (const obs::SpanEvent& e : spans)
    EXPECT_EQ(e.worker, svc.trace().submission_lane());
}

}  // namespace
}  // namespace pacga::service
