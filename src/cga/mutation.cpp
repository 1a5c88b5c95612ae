#include "cga/mutation.hpp"

#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "support/kernels.hpp"

namespace pacga::cga {

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
  assert(count >= 1);  // index(0) would divide by zero
  // One bounded draw chooses the k-th match (0-based, ascending task
  // order); every match is equally likely.
  return support::kernels::select_bit(matches.data(), rng.index(count));
}

void mutate(sched::Schedule& s, support::Xoshiro256& rng) {
  if (s.tasks() == 0) return;
  const std::size_t t = rng.index(s.tasks());
  const auto m = static_cast<sched::MachineId>(rng.index(s.machines()));
  s.move_task(t, m);
}

}  // namespace pacga::cga
