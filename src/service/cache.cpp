#include "service/cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/failpoints.hpp"

namespace pacga::service {

SolutionCache::SolutionCache(std::size_t capacity, std::size_t stripes)
    : stripe_capacity_(
          capacity == 0 ? 0
                        : std::max<std::size_t>(1, capacity / stripes)) {
  if (stripes == 0)
    throw std::invalid_argument("SolutionCache: stripes must be >= 1");
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
    if (stripe_capacity_ > 0) stripes_.back()->index.reserve(stripe_capacity_);
  }
}

bool SolutionCache::lookup(std::size_t stripe, std::uint64_t key,
                           Entry& out) {
  Stripe& s = *stripes_[stripe % stripes_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) return false;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // bump to most recent
  out.assignment.assign(it->second->second.assignment.begin(),
                        it->second->second.assignment.end());
  out.fitness = it->second->second.fitness;
  out.policy = it->second->second.policy;
  ++s.hits;
  return true;
}

void SolutionCache::insert(std::size_t stripe, std::uint64_t key,
                           std::span<const sched::MachineId> assignment,
                           double fitness, SolvePolicy policy) {
  PACGA_FAILPOINT("cache.insert");
  if (stripe_capacity_ == 0) return;
  Stripe& s = *stripes_[stripe % stripes_.size()];
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    if (fitness < it->second->second.fitness) {
      it->second->second.assignment.assign(assignment.begin(),
                                           assignment.end());
      it->second->second.fitness = fitness;
      it->second->second.policy = policy;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  if (s.lru.size() >= stripe_capacity_) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
  }
  s.lru.emplace_front(key, Entry{{assignment.begin(), assignment.end()},
                                 fitness, policy});
  s.index[key] = s.lru.begin();
}

std::vector<std::uint64_t> SolutionCache::stripe_hits() const {
  std::vector<std::uint64_t> out;
  out.reserve(stripes_.size());
  for (const auto& sp : stripes_) {
    std::lock_guard<std::mutex> lock(sp->mutex);
    out.push_back(sp->hits);
  }
  return out;
}

}  // namespace pacga::service
