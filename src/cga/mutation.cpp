#include "cga/mutation.hpp"

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "support/kernels.hpp"

namespace pacga::cga {

const char* to_string(MutationKind k) noexcept {
  switch (k) {
    case MutationKind::kMove: return "move";
    case MutationKind::kSwap: return "swap";
    case MutationKind::kRebalance: return "rebalance";
  }
  return "?";
}

std::size_t random_task_on_machine(const sched::Schedule& s,
                                   sched::MachineId m,
                                   support::Xoshiro256& rng) {
  static_assert(std::is_same_v<sched::MachineId, std::uint16_t>,
                "the match mask compares 16-bit genes");
  // Mask words; reused across calls (thread-local to stay allocation-free
  // on the hot path).
  thread_local std::vector<std::uint64_t> mask;
  mask.resize((s.tasks() + 63) / 64);
  const std::size_t count = support::kernels::eq_mask_u16(
      s.assignment().data(), s.tasks(), m, mask.data());
  if (count == 0) return s.tasks();
  return pick_task(mask, count, rng);
}

std::size_t pick_task(std::span<const std::uint64_t> matches,
                      std::size_t count, support::Xoshiro256& rng) {
  // The size-1 reservoir's draws: the seen-th match replaces the choice
  // when index(seen) is 0. Only the draws depend on the RNG, so they run
  // without touching the genes.
  std::size_t pick = 0;
  for (std::size_t seen = 1; seen <= count; ++seen) {
    if (rng.index(seen) == 0) pick = seen;
  }
  // The pick-th set bit (1-based) is the chosen task.
  std::size_t w = 0;
  while (pick > static_cast<std::size_t>(std::popcount(matches[w]))) {
    pick -= static_cast<std::size_t>(std::popcount(matches[w]));
    ++w;
  }
  std::uint64_t bits = matches[w];
  for (; pick > 1; --pick) bits &= bits - 1;
  return 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
}

void mutate(MutationKind kind, sched::Schedule& s, support::Xoshiro256& rng) {
  if (s.tasks() == 0) return;
  switch (kind) {
    case MutationKind::kMove: {
      const std::size_t t = rng.index(s.tasks());
      const auto m = static_cast<sched::MachineId>(rng.index(s.machines()));
      s.move_task(t, m);
      return;
    }
    case MutationKind::kSwap: {
      if (s.tasks() < 2) return;
      const std::size_t a = rng.index(s.tasks());
      std::size_t b = rng.index(s.tasks() - 1);
      if (b >= a) ++b;
      s.swap_tasks(a, b);
      return;
    }
    case MutationKind::kRebalance: {
      const auto loaded = static_cast<sched::MachineId>(s.argmax_machine());
      const std::size_t t = random_task_on_machine(s, loaded, rng);
      if (t == s.tasks()) return;  // most loaded machine cannot be empty
                                   // unless all loads are ready times
      const auto m = static_cast<sched::MachineId>(rng.index(s.machines()));
      s.move_task(t, m);
      return;
    }
  }
}

}  // namespace pacga::cga
