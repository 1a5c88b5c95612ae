#include "cga/crossover.hpp"

#include <cassert>

namespace pacga::cga {

namespace {

// The in-place kernels assume `child` already equals parent a.

void one_point_into(sched::Schedule& child, const sched::Schedule& b,
                    support::Xoshiro256& rng) {
  const std::size_t n = child.tasks();
  if (n < 2) return;
  // Cut in [1, n-1] so both parents contribute at least one gene.
  const std::size_t cut = 1 + rng.index(n - 1);
  child.copy_segment(b, cut, n);
}

void two_point_into(sched::Schedule& child, const sched::Schedule& b,
                    support::Xoshiro256& rng) {
  const std::size_t n = child.tasks();
  if (n < 2) return;
  std::size_t lo = rng.index(n);
  std::size_t hi = rng.index(n);
  if (lo > hi) std::swap(lo, hi);
  if (lo == hi) hi = lo + 1;  // degenerate draw: still exchange one gene
  child.copy_segment(b, lo, hi);
}

}  // namespace

void crossover_into(CrossoverKind kind, sched::Schedule& child,
                    const sched::Schedule& b, support::Xoshiro256& rng) {
  assert(child.tasks() == b.tasks());
  switch (kind) {
    case CrossoverKind::kOnePoint: return one_point_into(child, b, rng);
    case CrossoverKind::kTwoPoint: return two_point_into(child, b, rng);
  }
}

}  // namespace pacga::cga
