// The service's job queue: bounded, priority-aware, with backpressure, and
// sharded by instance shape with event-driven work stealing.
//
// Each shard is an admission-control point: `try_submit` fails fast when
// the shard is full (the caller sheds load or retries), `submit` blocks
// until a slot frees (closed-loop clients). Within a shard ordering is
// strict priority, FIFO within a priority level (a monotone sequence
// number breaks heap ties), so a starved low-priority job still runs in
// submission order once the shard drains above it. Plain mutex + two
// condvars + a binary heap: per shard the lock is uncontended by
// construction (one pinned consumer, tenant-affine producers), and a mutex
// keeps remove() — cancellation of a queued job — trivially correct, which
// lock-free ring buffers do not.
//
// Shards are keyed by instance SHAPE (tasks x machines), one pinned worker
// per shard. Same-shape jobs always land on the same shard, so the pinned
// worker's per-shape WarmSolver arena stays hot across consecutive jobs
// instead of being rebuilt every time mixed tenants interleave. Each shard
// records the state of its owner — absent, idle (between jobs) or serving
// — and stealing is event-driven, with no timer anywhere:
//   1. A worker steals (one job per attempt, ring order from its neighbor)
//      only from a shard whose owner is serving or absent, or which is
//      closed. An idle owner has been notified and takes its own job, so
//      a closed-loop tenant keeps its warm worker.
//   2. Admitting a job to a shard whose owner is not idle wakes one parked
//      peer, in ring order from that shard.
//   3. A worker that takes a job and leaves work queued behind it (on the
//      shard it took from, or on its own home) wakes one parked peer —
//      the backlog admitted before its owner popped its first job.
//   4. Parking is publish-then-recheck: a worker sets its parked flag,
//      re-scans, and only then waits, untimed, for home work, a peer's
//      kick or close. A submitter pushes first, then reads the flags; the
//      shard mutexes order the two sides, so no wakeup is lost.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "service/job.hpp"

namespace pacga::service {

/// N job shards keyed by instance shape, one pinned consumer per shard,
/// bounded work-stealing between them (see the file comment). Capacity is
/// split exactly across shards — `capacity/shards` each plus one extra
/// slot on the leading `capacity%shards` shards, never below 1 — so
/// per-shard capacities sum to max(capacity, shards) and the total
/// admitted backlog equals the capacity a tenant asked for. Backpressure
/// stays per-shard: a hot shape fills ITS shard and sheds load without
/// starving other tenants' admission. One shard is a plain bounded
/// priority queue.
class ShardedJobQueue {
 public:
  /// `capacity` >= 1 total queued jobs (split across shards), `shards` >= 1.
  ShardedJobQueue(std::size_t capacity, std::size_t shards);

  /// The shard a (tasks x machines) shape routes to. Pure shape hash: every
  /// job of one shape maps to one shard, which is exactly the key the warm
  /// solver arenas are warm ON. (Keying by content fingerprint would spread
  /// same-shape tenants across workers — better-looking balance, but every
  /// worker would then juggle several shapes and thrash its arena; balance
  /// under a single dominant shape comes from stealing instead.)
  std::size_t shard_of_shape(std::size_t tasks,
                             std::size_t machines) const noexcept;

  /// Admission to the shard in `job->shard` (assign it first, e.g. from
  /// shard_of_shape). `try_submit` is false when that shard is full or
  /// closed; `submit` waits for a slot and is false only when the queue is
  /// (or becomes) closed.
  bool try_submit(JobTicket job);
  bool submit(JobTicket job);

  /// Registers the worker pinned to `home` as idle: before its thread
  /// starts (so the first job is not stolen while it spawns), and again
  /// just before it publishes a result (so a closed-loop resubmission
  /// finds it idle rather than serving). A `generation` older than the
  /// newest one seen for this shard is ignored: a superseded worker never
  /// overwrites its replacement's state.
  void mark_idle(std::size_t home, std::uint64_t generation);

  /// Consumer loop for the worker pinned to `home`, which counts as idle
  /// while inside: its home shard first, then one job from the first
  /// neighbor it may steal from (rule 1), then park until woken (rules
  /// 2-4). Marks the owner serving when it returns a job, absent when it
  /// returns nullptr — once every shard is closed and drained (shutdown
  /// drains queued work). `stolen` (optional) reports whether the job came
  /// off a non-home shard (the trace layer tags queue-wait spans with it).
  JobTicket pop(std::size_t home, bool* stolen = nullptr);

  /// Cancel-before-run: false when the job is not queued (already popped
  /// or never queued). Routes directly to the job's tagged shard — one
  /// shard's heap is scanned, never all of them.
  bool remove(const JobState* job);

  /// Closes every shard: submissions fail, consumers drain what is queued
  /// and then get nullptr. Idempotent.
  void close();

  bool closed() const;
  /// Queued depth per shard (the daemon's STATS shard_depth field).
  std::vector<std::size_t> depths() const;
  /// Queued depth of one shard (indexed modulo the shard count) — the
  /// admission-time watermark check, without the vector the full report
  /// allocates.
  std::size_t depth(std::size_t shard) const;
  std::size_t shards() const noexcept { return shards_.size(); }
  /// Queued-job capacity of one shard (see the class comment for the
  /// split). Indexed modulo the shard count.
  std::size_t shard_capacity(std::size_t shard) const noexcept;
  /// Jobs served off a non-home shard since construction.
  std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  /// The state of the worker pinned to a shard.
  enum class Owner : std::uint8_t { kAbsent, kIdle, kServing };

  struct Entry {
    int priority = 0;
    std::uint64_t seq = 0;  ///< admission order, breaks priority ties FIFO
    JobTicket job;
  };

  /// Everything below `mutex` is guarded by it.
  struct Shard {
    explicit Shard(std::size_t cap) : capacity(cap) { heap.reserve(cap); }
    mutable std::mutex mutex;
    std::condition_variable not_empty;  ///< the parked owner waits here
    std::condition_variable not_full;   ///< blocked submitters wait here
    std::vector<Entry> heap;            ///< max-heap under heap_before
    const std::size_t capacity;
    std::uint64_t next_seq = 0;
    bool closed = false;
    Owner owner = Owner::kAbsent;
    std::uint64_t owner_generation = 0;  ///< newest mark_idle stamp
    bool parked = false;  ///< the owner waits (or is about to) on not_empty
    bool kicked = false;  ///< a peer asked the parked owner to re-scan
  };

  /// Max-heap "less": a sorts before b on higher priority, then lower seq.
  static bool heap_before(const Entry& a, const Entry& b) noexcept {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq > b.seq;
  }

  Shard& shard(std::size_t i) const { return *shards_[i % shards_.size()]; }
  bool admit(JobTicket job, bool block);
  /// One job off shard `from` for the worker pinned to `home`, or nullptr
  /// when it holds none that worker may take (rule 1).
  JobTicket take(std::size_t from, std::size_t home);
  /// Kicks the first parked, not yet kicked owner after `from`, ring order.
  void wake_peer(std::size_t from);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace pacga::service
