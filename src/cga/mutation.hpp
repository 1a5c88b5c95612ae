// Mutation. The paper's mutation "moves one randomly chosen task to a
// randomly chosen machine" (Table 1); both Table 2 baselines use it too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sched/schedule.hpp"
#include "support/rng.hpp"

namespace pacga::cga {

/// Moves one uniformly drawn task to one uniformly drawn machine, in
/// place: two draws, index(tasks) then index(machines).
void mutate(sched::Schedule& s, support::Xoshiro256& rng);

/// Picks one task uniformly among those assigned to machine `m`; returns
/// tasks() when `m` is empty. One `eq_mask_u16` match mask plus pick_task.
std::size_t random_task_on_machine(const sched::Schedule& s,
                                   sched::MachineId m,
                                   support::Xoshiro256& rng);

/// Picks one task uniformly among the set bits of the match mask `matches`
/// (bit t set iff task t matches); `count` is its popcount, at least 1.
/// random_task_on_machine calls it; kernels::h2ll makes the same draw
/// inside its pass loop.
///
/// Draw contract: it makes exactly one call, k = rng.index(count), and
/// returns the task of the k-th set bit (counting from 0 in ascending task
/// order), so trajectories do not depend on how the matches are found (a
/// SIMD match mask here) or selected (the `select_bit` kernel).
std::size_t pick_task(std::span<const std::uint64_t> matches,
                      std::size_t count, support::Xoshiro256& rng);

}  // namespace pacga::cga
