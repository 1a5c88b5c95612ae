#include "service/queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "support/rng.hpp"

namespace pacga::service {

ShardedJobQueue::ShardedJobQueue(std::size_t capacity, std::size_t shards) {
  if (shards == 0)
    throw std::invalid_argument("ShardedJobQueue: shards must be >= 1");
  if (capacity == 0)
    throw std::invalid_argument("ShardedJobQueue: capacity must be >= 1");
  // Exact split: base slots everywhere, the remainder spread one slot each
  // over the leading shards, and a floor of 1 per shard (a shard must be
  // able to hold at least one job). Per-shard capacities therefore sum to
  // exactly max(capacity, shards) — `max(1, capacity/shards)` alone would
  // admit 8 of a requested 10 across 4 shards, or 4 of a requested 3.
  const std::size_t base = capacity / shards;
  const std::size_t remainder = capacity % shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    const std::size_t per_shard =
        std::max<std::size_t>(1, base + (i < remainder ? 1 : 0));
    shards_.push_back(std::make_unique<Shard>(per_shard));
  }
}

std::size_t ShardedJobQueue::shard_of_shape(
    std::size_t tasks, std::size_t machines) const noexcept {
  return static_cast<std::size_t>(support::hash_mix(
             static_cast<std::uint64_t>(tasks),
             static_cast<std::uint64_t>(machines))) %
         shards_.size();
}

bool ShardedJobQueue::admit(JobTicket job, bool block) {
  const std::size_t i = job->shard % shards_.size();
  Shard& s = shard(i);
  bool owner_busy = false;
  {
    std::unique_lock<std::mutex> lock(s.mutex);
    if (block) {
      s.not_full.wait(lock,
                      [&s] { return s.closed || s.heap.size() < s.capacity; });
    }
    if (s.closed || s.heap.size() >= s.capacity) return false;
    const int priority = job->spec.priority;
    s.heap.push_back(Entry{priority, s.next_seq++, std::move(job)});
    std::push_heap(s.heap.begin(), s.heap.end(), heap_before);
    owner_busy = s.owner != Owner::kIdle;
  }
  s.not_empty.notify_one();
  // Rule 2: an idle owner was just notified and takes the job itself; a
  // serving or absent one cannot, so a parked peer comes to steal it.
  if (owner_busy) wake_peer(i);
  return true;
}

bool ShardedJobQueue::try_submit(JobTicket job) {
  return admit(std::move(job), /*block=*/false);
}

bool ShardedJobQueue::submit(JobTicket job) {
  return admit(std::move(job), /*block=*/true);
}

void ShardedJobQueue::mark_idle(std::size_t home, std::uint64_t generation) {
  Shard& mine = shard(home);
  std::lock_guard<std::mutex> lock(mine.mutex);
  if (generation < mine.owner_generation) return;  // superseded worker
  mine.owner_generation = generation;
  mine.owner = Owner::kIdle;
}

JobTicket ShardedJobQueue::take(std::size_t from, std::size_t home) {
  Shard& src = shard(from);
  Shard& mine = shard(home);
  JobTicket job;
  bool left_behind = false;
  {
    std::lock_guard<std::mutex> lock(src.mutex);
    if (src.heap.empty()) return nullptr;
    if (from != home && src.owner == Owner::kIdle && !src.closed)
      return nullptr;  // rule 1: its owner was notified and is on its way
    std::pop_heap(src.heap.begin(), src.heap.end(), heap_before);
    job = std::move(src.heap.back().job);
    src.heap.pop_back();
    left_behind = from != home && !src.heap.empty();
  }
  src.not_full.notify_one();
  bool kicked = false;
  bool home_backlog = false;
  {
    std::lock_guard<std::mutex> lock(mine.mutex);
    mine.owner = Owner::kServing;
    mine.parked = false;
    kicked = std::exchange(mine.kicked, false);
    home_backlog = !mine.heap.empty();
  }
  // Rule 3: work left queued behind a now-serving owner goes to a parked
  // peer. A kick that reached us mid-re-scan may have been meant for a job
  // other than the one we took, so it is passed on rather than dropped.
  if (left_behind) wake_peer(from);
  if (home_backlog) wake_peer(home);
  if (kicked) wake_peer(home);
  return job;
}

void ShardedJobQueue::wake_peer(std::size_t from) {
  const std::size_t n = shards_.size();
  for (std::size_t off = 1; off < n; ++off) {
    Shard& peer = shard(from + off);
    {
      std::lock_guard<std::mutex> lock(peer.mutex);
      if (!peer.parked || peer.kicked) continue;
      peer.kicked = true;
    }
    peer.not_empty.notify_one();
    return;
  }
}

JobTicket ShardedJobQueue::pop(std::size_t home, bool* stolen) {
  const std::size_t n = shards_.size();
  home %= n;
  Shard& mine = shard(home);
  {
    std::lock_guard<std::mutex> lock(mine.mutex);
    mine.owner = Owner::kIdle;
  }
  // Home shard first: the pinned worker has absolute priority on its own
  // (shape-affine) traffic, so warm arenas see unbroken same-shape runs.
  // Then ONE job from the first neighbor it may steal from, so the thief
  // re-checks home before stealing again.
  const auto scan = [&]() -> JobTicket {
    for (std::size_t off = 0; off < n; ++off) {
      if (JobTicket job = take((home + off) % n, home)) {
        if (off > 0) steals_.fetch_add(1, std::memory_order_relaxed);
        if (stolen) *stolen = off > 0;
        return job;
      }
    }
    return nullptr;
  };
  for (;;) {
    if (JobTicket job = scan()) return job;
    {
      std::lock_guard<std::mutex> lock(mine.mutex);
      mine.parked = true;
    }
    // Rule 4: a job admitted after the flag went up finds it and kicks
    // us; one admitted before it is found by this re-scan.
    if (JobTicket job = scan()) return job;
    // Exit only when every shard is closed AND drained — monotone after
    // close(), so a false "not done" just means another round.
    const bool done =
        std::all_of(shards_.begin(), shards_.end(), [](const auto& s) {
          std::lock_guard<std::mutex> lock(s->mutex);
          return s->closed && s->heap.empty();
        });
    std::unique_lock<std::mutex> lock(mine.mutex);
    if (done) {
      mine.owner = Owner::kAbsent;
      mine.parked = false;
      return nullptr;
    }
    mine.not_empty.wait(lock, [&mine] {
      return mine.closed || mine.kicked || !mine.heap.empty();
    });
    mine.parked = false;
    mine.kicked = false;
  }
}

bool ShardedJobQueue::remove(const JobState* job) {
  Shard& s = shard(job->shard);
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it =
        std::find_if(s.heap.begin(), s.heap.end(),
                     [job](const Entry& e) { return e.job.get() == job; });
    if (it == s.heap.end()) return false;
    s.heap.erase(it);
    std::make_heap(s.heap.begin(), s.heap.end(), heap_before);
  }
  s.not_full.notify_one();
  return true;
}

void ShardedJobQueue::close() {
  for (auto& s : shards_) {
    {
      std::lock_guard<std::mutex> lock(s->mutex);
      s->closed = true;
    }
    s->not_empty.notify_all();
    s->not_full.notify_all();
  }
}

bool ShardedJobQueue::closed() const {
  std::lock_guard<std::mutex> lock(shards_.front()->mutex);
  return shards_.front()->closed;
}

std::vector<std::size_t> ShardedJobQueue::depths() const {
  std::vector<std::size_t> d;
  d.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) d.push_back(depth(i));
  return d;
}

std::size_t ShardedJobQueue::depth(std::size_t i) const {
  const Shard& s = shard(i);
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.heap.size();
}

std::size_t ShardedJobQueue::shard_capacity(std::size_t i) const noexcept {
  return shard(i).capacity;
}

}  // namespace pacga::service
