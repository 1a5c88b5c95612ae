#include "cga/local_search.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "support/kernels.hpp"

namespace pacga::cga {

namespace kernels = support::kernels;

const char* to_string(LocalSearchKind k) noexcept {
  switch (k) {
    case LocalSearchKind::kH2LL: return "h2ll";
    case LocalSearchKind::kH2LLSteepest: return "h2ll-steepest";
    case LocalSearchKind::kTabuHop: return "tabu-hop";
    case LocalSearchKind::kNone: return "none";
  }
  return "?";
}

void apply_local_search(LocalSearchKind kind, sched::Schedule& s,
                        const H2LLParams& h2ll_params,
                        const TabuHopParams& tabu_params,
                        support::Xoshiro256& rng) {
  switch (kind) {
    case LocalSearchKind::kH2LL:
      h2ll(s, h2ll_params, rng);
      return;
    case LocalSearchKind::kH2LLSteepest:
      h2ll_steepest(s, h2ll_params);
      return;
    case LocalSearchKind::kTabuHop:
      local_tabu_hop(s, tabu_params, rng);
      return;
    case LocalSearchKind::kNone:
      return;
  }
}

namespace {

/// Marks the k machines of smallest (completion, index), minus the most
/// loaded one, in `mask` (one bit per machine), and returns the most loaded
/// machine (highest completion, lowest index on ties), all from one kernel
/// call. Ties at the selection boundary break toward the lower machine
/// index, so the candidate set is a deterministic function of the
/// completion array (the golden replays depend on that). Callers visit the
/// set bits in ascending machine index.
std::size_t candidate_mask(const sched::Schedule& s, std::size_t k,
                           std::vector<std::uint64_t>& mask) {
  const std::size_t machines = s.machines();
  mask.resize((machines + 63) / 64);
  const std::size_t most_loaded = kernels::lightest_mask(
      s.completions().data(), machines, k, mask.data());
  mask[most_loaded / 64] &= ~(std::uint64_t{1} << (most_loaded % 64));
  return most_loaded;
}

/// Calls f(machine) for every set bit of `mask`, in ascending order.
template <class F>
void for_each_candidate(const std::vector<std::uint64_t>& mask, F&& f) {
  for (std::size_t w = 0; w < mask.size(); ++w) {
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      f(64 * w + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

/// Index of the most loaded machine other than `skip` (highest completion;
/// lowest index on ties). Requires at least two machines.
std::size_t argmax_machine_skip(std::span<const double> ct, std::size_t skip) {
  std::size_t best = ct.size();  // sentinel: nothing seen yet
  if (skip > 0) best = kernels::argmax(ct.data(), skip);
  if (skip + 1 < ct.size()) {
    const std::size_t hi =
        skip + 1 + kernels::argmax(ct.data() + skip + 1, ct.size() - skip - 1);
    if (best == ct.size() || ct[hi] > ct[best]) best = hi;
  }
  return best;
}

}  // namespace

void h2ll(sched::Schedule& s, const H2LLParams& params,
          support::Xoshiro256& rng) {
  static_assert(std::is_same_v<sched::MachineId, std::uint16_t>,
                "the H2LL kernel edits 16-bit genes");
  const std::size_t machines = s.machines();
  if (machines < 2 || s.tasks() == 0) return;
  const std::size_t n_candidates =
      params.candidates == 0
          ? machines / 2
          : std::min(params.candidates, machines - 1);
  s.edit_arrays([&](sched::MachineId* genes, double* completions) {
    kernels::h2ll(completions, genes, s.etc().task_major().data(), s.tasks(),
                  machines, n_candidates, params.iterations, rng);
  });
}

void h2ll_steepest(sched::Schedule& s, const H2LLParams& params) {
  const std::size_t machines = s.machines();
  if (machines < 2 || s.tasks() == 0) return;
  const std::size_t n_candidates =
      params.candidates == 0 ? machines / 2
                             : std::min(params.candidates, machines - 1);

  thread_local std::vector<std::uint64_t> mask;

  for (std::size_t it = 0; it < params.iterations; ++it) {
    const auto ct = s.completions();
    const std::size_t most_loaded = candidate_mask(s, n_candidates, mask);
    // Highest completion among machines other than the loaded one (and,
    // when the move target IS that machine, the next one down): the part
    // of the resulting makespan no single move can change. Top-3 kernel
    // scans instead of the former full sort.
    const std::size_t second = argmax_machine_skip(ct, most_loaded);
    double third_ct = 0.0;
    if (machines >= 3) {
      third_ct = -std::numeric_limits<double>::infinity();
      for (std::size_t m = 0; m < machines; ++m) {
        if (m == most_loaded || m == second) continue;
        third_ct = std::max(third_ct, ct[m]);
      }
    }

    // True steepest descent on the makespan: evaluate the RESULTING
    // makespan of every (task on loaded machine, candidate) move and take
    // the minimum. This is what "steepest" must mean for the operator's
    // objective — minimizing the landing completion alone can prefer
    // moving a tiny task that barely relieves the loaded machine.
    const double current_ms = s.completion(most_loaded);
    double best_ms = current_ms;
    std::size_t best_task = s.tasks();
    std::size_t best_mac = machines;
    for (std::size_t t = 0; t < s.tasks(); ++t) {
      if (s.machine_of(t) != most_loaded) continue;
      const auto row = s.etc().of_task(t);
      const double src_after = current_ms - row[most_loaded];
      for_each_candidate(mask, [&](std::size_t mac) {
        const double dst_after = s.completion(mac) + row[mac];
        const double rest = mac == second ? third_ct : s.completion(second);
        const double new_ms = std::max({src_after, dst_after, rest});
        if (new_ms < best_ms) {
          best_ms = new_ms;
          best_task = t;
          best_mac = mac;
        }
      });
    }
    if (best_task == s.tasks()) return;  // local optimum: converged
    s.move_task(best_task, static_cast<sched::MachineId>(best_mac));
  }
}

void local_tabu_hop(sched::Schedule& s, const TabuHopParams& params,
                    support::Xoshiro256& rng) {
  const std::size_t machines = s.machines();
  const std::size_t tasks = s.tasks();
  if (machines < 2 || tasks == 0) return;

  // Expiry iteration per task; iteration counter starts at tenure so the
  // initial zeros are all expired.
  std::vector<std::size_t> tabu_until(tasks, 0);
  sched::Schedule best = s;
  double best_makespan = best.makespan();

  for (std::size_t it = 1; it <= params.iterations; ++it) {
    const std::size_t loaded_idx = s.argmax_machine();
    const auto loaded = static_cast<sched::MachineId>(loaded_idx);
    // Best move of any non-tabu task currently on the makespan machine:
    // minimize the resulting pair (new target completion) — classic
    // steepest-descent step, accepted even if worsening (tabu search).
    // Per-task inner loop is one fused skip-scan over (completions, ETC
    // row); the skip-scan's lowest-index tie-break matches the old loop.
    std::size_t move_task_id = tasks;
    std::size_t move_target = machines;
    double move_score = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < tasks; ++t) {
      if (s.machine_of(t) != loaded) continue;
      if (tabu_until[t] > it) continue;
      const auto cand = kernels::min_completion_index_skip(
          s.completions().data(), s.etc().of_task(t).data(), machines,
          loaded_idx);
      if (cand.value < move_score) {
        move_score = cand.value;
        move_task_id = t;
        move_target = cand.index;
      }
    }
    if (move_task_id == tasks) {
      // Everything on the loaded machine is tabu: diversify with a random
      // kick so the search does not stall.
      const std::size_t t = rng.index(tasks);
      s.move_task(t, static_cast<sched::MachineId>(rng.index(machines)));
      tabu_until[t] = it + params.tenure;
    } else {
      s.move_task(move_task_id, static_cast<sched::MachineId>(move_target));
      tabu_until[move_task_id] = it + params.tenure;
    }
    const double ms = s.makespan();
    if (ms < best_makespan) {
      best_makespan = ms;
      best = s;
    }
  }
  if (best_makespan < s.makespan()) s = best;
}

}  // namespace pacga::cga
