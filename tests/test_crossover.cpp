#include "cga/crossover.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "etc/braun.hpp"

namespace pacga::cga {
namespace {

etc::EtcMatrix instance(std::uint64_t seed = 1) {
  etc::GenSpec spec;
  spec.tasks = 64;
  spec.machines = 8;
  spec.consistency = etc::Consistency::kInconsistent;
  spec.seed = seed;
  return etc::generate(spec);
}

struct Parents {
  sched::Schedule a;
  sched::Schedule b;
};

Parents make_parents(const etc::EtcMatrix& m, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  return {sched::Schedule::random(m, rng), sched::Schedule::random(m, rng)};
}

/// Offspring of `a` and `b`: a copy of `a` recombined in place.
sched::Schedule crossed(CrossoverKind kind, const sched::Schedule& a,
                        const sched::Schedule& b, support::Xoshiro256& rng) {
  sched::Schedule child = a;
  crossover_into(kind, child, b, rng);
  return child;
}

/// Every gene of the child comes from one of the two parents.
void expect_genes_from_parents(const sched::Schedule& child,
                               const Parents& p) {
  for (std::size_t t = 0; t < child.tasks(); ++t) {
    const auto g = child.machine_of(t);
    EXPECT_TRUE(g == p.a.machine_of(t) || g == p.b.machine_of(t))
        << "task " << t;
  }
}

TEST(OnePoint, PrefixFromAVSuffixFromB) {
  const auto m = instance();
  const auto p = make_parents(m, 2);
  support::Xoshiro256 rng(3);
  const auto child = crossed(CrossoverKind::kOnePoint, p.a, p.b, rng);
  // Find the cut: first index where child matches b but not a.
  expect_genes_from_parents(child, p);
  // Verify structure: once the child starts following b (where a and b
  // differ), it never reverts to a.
  bool after_cut = false;
  for (std::size_t t = 0; t < child.tasks(); ++t) {
    if (p.a.machine_of(t) == p.b.machine_of(t)) continue;
    const bool from_b = child.machine_of(t) == p.b.machine_of(t);
    if (after_cut) {
      EXPECT_TRUE(from_b) << "reverted to parent a after cut at task " << t;
    } else if (from_b) {
      after_cut = true;
    }
  }
  EXPECT_TRUE(child.validate());
}

TEST(TwoPoint, MiddleSegmentFromB) {
  const auto m = instance();
  const auto p = make_parents(m, 4);
  support::Xoshiro256 rng(5);
  const auto child = crossed(CrossoverKind::kTwoPoint, p.a, p.b, rng);
  expect_genes_from_parents(child, p);
  // Structure: b-matching region (where parents differ) is contiguous.
  std::ptrdiff_t first_b = -1, last_b = -1;
  for (std::size_t t = 0; t < child.tasks(); ++t) {
    if (p.a.machine_of(t) == p.b.machine_of(t)) continue;
    if (child.machine_of(t) == p.b.machine_of(t)) {
      if (first_b < 0) first_b = static_cast<std::ptrdiff_t>(t);
      last_b = static_cast<std::ptrdiff_t>(t);
    }
  }
  if (first_b >= 0) {
    for (std::ptrdiff_t t = first_b; t <= last_b; ++t) {
      if (p.a.machine_of(t) == p.b.machine_of(t)) continue;
      EXPECT_EQ(child.machine_of(t), p.b.machine_of(t)) << "hole at " << t;
    }
  }
  EXPECT_TRUE(child.validate());
}

TEST(Crossover, IdenticalParentsYieldClone) {
  const auto m = instance();
  support::Xoshiro256 rng(8);
  const auto a = sched::Schedule::random(m, rng);
  for (auto kind : {CrossoverKind::kOnePoint, CrossoverKind::kTwoPoint}) {
    support::Xoshiro256 r2(9);
    const auto child = crossed(kind, a, a, r2);
    EXPECT_EQ(child.hamming_distance(a), 0u)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(Crossover, CompletionCacheCoherentAfterEveryKind) {
  const auto m = instance(11);
  for (auto kind : {CrossoverKind::kOnePoint, CrossoverKind::kTwoPoint}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const auto p = make_parents(m, seed);
      support::Xoshiro256 rng(seed * 101);
      const auto child = crossed(kind, p.a, p.b, rng);
      EXPECT_TRUE(child.validate(1e-9))
          << "kind " << static_cast<int>(kind) << " seed " << seed;
    }
  }
}

TEST(Crossover, TwoTaskEdgeCase) {
  etc::EtcMatrix m(2, 2, {1, 2, 3, 4});
  const sched::Schedule a(m, {0, 0});
  const sched::Schedule b(m, {1, 1});
  support::Xoshiro256 rng(14);
  for (auto kind : {CrossoverKind::kOnePoint, CrossoverKind::kTwoPoint}) {
    const auto child = crossed(kind, a, b, rng);
    EXPECT_TRUE(child.validate()) << "kind " << static_cast<int>(kind);
  }
}

/// copy_segment walks only the genes where the parents differ; the
/// reference is the per-gene loop it replaced. Both must give the same
/// genes and the same completion bits (move_task on an equal gene is a
/// no-op, so the moves and their order are the same). Segment bounds sit
/// on and around the 64-gene mask words and at both ends.
TEST(Crossover, CopySegmentMatchesPerGeneLoop) {
  constexpr std::size_t kMachines = 5;
  support::Xoshiro256 rng(15);
  for (const std::size_t n : {1ul, 12ul, 64ul, 65ul, 200ul, 512ul, 4096ul}) {
    std::vector<double> etc_values(n * kMachines);
    for (auto& v : etc_values) v = 1.0 + 99.0 * rng.uniform();
    const etc::EtcMatrix m(n, kMachines, etc_values);
    const auto a = sched::Schedule::random(m, rng);
    std::vector<sched::MachineId> some(a.assignment().begin(),
                                       a.assignment().end());
    for (std::size_t t = 0; t < n; t += 1 + rng.index(9)) {
      some[t] = static_cast<sched::MachineId>(rng.index(kMachines));
    }
    std::vector<sched::MachineId> all(a.assignment().begin(),
                                      a.assignment().end());
    for (auto& g : all) g = static_cast<sched::MachineId>((g + 1) % kMachines);
    const sched::Schedule parents_b[] = {a, sched::Schedule(m, some),
                                         sched::Schedule(m, all)};
    const char* labels[] = {"identical", "some differ", "all differ"};
    std::vector<std::size_t> bounds;
    for (const std::size_t x : {0ul, 63ul, 64ul, 65ul, n - 1, n}) {
      if (x <= n) bounds.push_back(x);
    }
    for (std::size_t p = 0; p < 3; ++p) {
      const sched::Schedule& b = parents_b[p];
      for (const std::size_t begin : bounds) {
        for (const std::size_t end : bounds) {
          if (begin > end) continue;
          SCOPED_TRACE(std::string(labels[p]) + " n=" + std::to_string(n) +
                       " [" + std::to_string(begin) + ", " +
                       std::to_string(end) + ")");
          auto child = a;
          child.copy_segment(b, begin, end);
          auto ref = a;
          for (std::size_t t = begin; t < end; ++t) {
            ref.move_task(t, b.machine_of(t));
          }
          EXPECT_TRUE(child == ref);
          for (std::size_t mac = 0; mac < kMachines; ++mac) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(child.completion(mac)),
                      std::bit_cast<std::uint64_t>(ref.completion(mac)))
                << "machine " << mac;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pacga::cga
