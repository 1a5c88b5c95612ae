// Striped LRU solution cache keyed by ETC content fingerprint.
//
// The service's answer to repeated instances — sweep campaigns submit the
// same matrix dozens of times, a broker retries a failed batch verbatim —
// is to not re-solve them: a hit replays the stored assignment in O(tasks)
// instead of burning a solve budget. Keys are SolverPool::cache_key()
// values: the matrix fingerprint mixed with the service's objective and
// the job's solve policy. insert() keeps the better of old and new
// fitness, so anytime results only ever improve a cached answer.
//
// The cache is striped: N independent (mutex, list+hashmap LRU) stripes,
// and the service selects the stripe by the job's QUEUE SHARD — the same
// shape hash that pins jobs to workers. A pinned worker therefore takes
// the same stripe lock job after job, uncontended by construction, and two
// workers only meet on a lock when one of them is serving stolen work.
// Within a stripe, lookups copy the assignment out under the lock
// (tasks * 2 bytes — a memcpy, not a solve), which keeps entries
// immutable-by-copy and the locking trivially correct. Capacity is split
// evenly across stripes (at least 1 each), so eviction pressure is
// per-stripe — matching the per-shard backpressure story of the queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "sched/schedule.hpp"
#include "service/job.hpp"

namespace pacga::service {

class SolutionCache {
 public:
  /// A capacity of 0 disables the cache (lookups miss, inserts drop).
  /// `stripes` >= 1; capacity is divided across them (at least 1 per
  /// stripe when enabled). One stripe is the classic single-lock cache.
  explicit SolutionCache(std::size_t capacity, std::size_t stripes);

  struct Entry {
    std::vector<sched::MachineId> assignment;
    double fitness = 0.0;
    /// The solver that produced this solution (result provenance: a hit
    /// reports the producing policy, not the requester's).
    SolvePolicy policy = SolvePolicy::kAuto;
  };

  /// On hit copies the entry into `out`, bumps recency, and returns true.
  /// `stripe` (any value; reduced mod stripes()) must be derived from the
  /// key deterministically — the service uses the job's queue shard, so a
  /// key always lands in the same stripe.
  bool lookup(std::size_t stripe, std::uint64_t key, Entry& out);

  /// Stores (or refreshes) `key` in `stripe`. An existing entry is only
  /// overwritten when `fitness` improves on it; either way the entry
  /// becomes most-recently-used. Evicts that stripe's least-recently-used
  /// entry when the stripe is full.
  void insert(std::size_t stripe, std::uint64_t key,
              std::span<const sched::MachineId> assignment, double fitness,
              SolvePolicy policy);

  std::size_t stripes() const noexcept { return stripes_.size(); }
  /// Per-stripe hit counts (the daemon's STATS shard_hits field).
  std::vector<std::uint64_t> stripe_hits() const;

 private:
  using LruList = std::list<std::pair<std::uint64_t, Entry>>;

  struct Stripe {
    mutable std::mutex mutex;
    LruList lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, LruList::iterator> index;
    std::uint64_t hits = 0;
  };

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::size_t stripe_capacity_;  ///< 0 disables the whole cache
};

}  // namespace pacga::service
