#include "sched/schedule.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "support/kernels.hpp"
#include "support/threading.hpp"

namespace pacga::sched {

namespace kernels = support::kernels;

Schedule::Schedule(const etc::EtcMatrix& etc, std::vector<MachineId> assignment)
    : etc_(&etc),
      assignment_(std::move(assignment)),
      completion_(etc.machines(), 0.0) {
  if (assignment_.size() != etc.tasks())
    throw std::invalid_argument("Schedule: assignment size != tasks");
  for (MachineId m : assignment_) {
    if (m >= etc.machines())
      throw std::invalid_argument("Schedule: machine id out of range");
  }
  recompute();
}

Schedule::Schedule(const etc::EtcMatrix& etc)
    : Schedule(etc, std::vector<MachineId>(etc.tasks(), MachineId{0})) {}

Schedule Schedule::random(const etc::EtcMatrix& etc, support::Xoshiro256& rng) {
  std::vector<MachineId> assignment(etc.tasks());
  for (auto& a : assignment) {
    a = static_cast<MachineId>(rng.index(etc.machines()));
  }
  return Schedule(etc, std::move(assignment));
}

void Schedule::assign_from(const Schedule& src) {
  // adopt() and randomize_from() throw on shape mismatch; assign_from is
  // the hot path (every breeding step), so it only asserts: a mismatched
  // copy silently reallocates, voiding the zero-allocation contract the
  // warm arenas are built on.
  assert(src.assignment_.size() == assignment_.size() &&
         "Schedule::assign_from: task count mismatch");
  assert(src.completion_.size() == completion_.size() &&
         "Schedule::assign_from: machine count mismatch");
  etc_ = src.etc_;
  assignment_ = src.assignment_;
  completion_ = src.completion_;
}

namespace {

// The word loops of release_store_from / acquire_load_from. Pointers and
// length are read once, into locals: every acquire load or release store
// orders the memory accesses around it, so a vector member read inside the
// loop would be reloaded for every word.
template <typename T>
void release_store_words(const std::vector<T>& src, std::vector<T>& dst) {
  const T* s = src.data();
  T* d = dst.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) support::store_release(d[i], s[i]);
}

template <typename T>
void acquire_load_words(const std::vector<T>& src, std::vector<T>& dst) {
  const T* s = src.data();
  T* d = dst.data();
  const std::size_t n = dst.size();
  for (std::size_t i = 0; i < n; ++i) d[i] = support::load_acquire(s[i]);
}

}  // namespace

void Schedule::release_store_from(const Schedule& src) noexcept {
  assert(src.etc_ == etc_ && src.assignment_.size() == assignment_.size() &&
         src.completion_.size() == completion_.size() &&
         "Schedule::release_store_from: shape mismatch");
  release_store_words(src.assignment_, assignment_);
  release_store_words(src.completion_, completion_);
}

void Schedule::acquire_load_from(const Schedule& src) noexcept {
  assert(src.etc_ == etc_ && src.assignment_.size() == assignment_.size() &&
         src.completion_.size() == completion_.size() &&
         "Schedule::acquire_load_from: shape mismatch");
  acquire_load_words(src.assignment_, assignment_);
  acquire_load_words(src.completion_, completion_);
}

void Schedule::randomize_from(const etc::EtcMatrix& etc,
                              support::Xoshiro256& rng) {
  if (etc.tasks() != assignment_.size() || etc.machines() != completion_.size())
    throw std::invalid_argument("Schedule::randomize_from: shape mismatch");
  etc_ = &etc;
  for (auto& a : assignment_) {
    a = static_cast<MachineId>(rng.index(etc.machines()));
  }
  recompute();
}

void Schedule::adopt(const etc::EtcMatrix& etc,
                     std::span<const MachineId> assignment) {
  if (etc.tasks() != assignment_.size() || etc.machines() != completion_.size() ||
      assignment.size() != assignment_.size())
    throw std::invalid_argument("Schedule::adopt: shape mismatch");
  for (MachineId m : assignment) {
    if (m >= etc.machines())
      throw std::invalid_argument("Schedule::adopt: machine id out of range");
  }
  etc_ = &etc;
  std::copy(assignment.begin(), assignment.end(), assignment_.begin());
  recompute();
}

void Schedule::adopt_with_completions(const etc::EtcMatrix& etc,
                                      std::span<const MachineId> assignment,
                                      std::span<const double> completion) {
  if (assignment.size() != etc.tasks() || completion.size() != etc.machines())
    throw std::invalid_argument(
        "Schedule::adopt_with_completions: size mismatch");
  for (MachineId m : assignment) {
    if (m >= etc.machines())
      throw std::invalid_argument(
          "Schedule::adopt_with_completions: machine id out of range");
  }
  etc_ = &etc;
  assignment_.assign(assignment.begin(), assignment.end());
  completion_.assign(completion.begin(), completion.end());
  assert(validate() &&
         "Schedule::adopt_with_completions: inconsistent completion cache");
}

void Schedule::move_task(std::size_t t, MachineId m) noexcept {
  const MachineId old = assignment_[t];
  if (old == m) return;
  completion_[old] -= (*etc_)(t, old);
  completion_[m] += (*etc_)(t, m);
  assignment_[t] = m;
}

namespace {

// Calls f(i) for every i < n with a[i] != b[i], in ascending order, and
// returns how many there were. The difference mask is built one chunk of
// 4096 genes at a time into a stack buffer (allocation-free); f may change
// a[i] itself but no later gene.
template <class F>
std::size_t for_each_difference(const MachineId* a, const MachineId* b,
                                std::size_t n, F&& f) {
  constexpr std::size_t kChunk = 4096;
  std::uint64_t words[kChunk / 64];
  std::size_t total = 0;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t len = std::min(kChunk, n - base);
    const std::size_t count =
        kernels::ne_mask_u16(a + base, b + base, len, words);
    total += count;
    if (count == 0) continue;
    for (std::size_t w = 0; 64 * w < len; ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        f(base + 64 * w + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }
  return total;
}

}  // namespace

void Schedule::copy_segment(const Schedule& source, std::size_t begin,
                            std::size_t end) noexcept {
  assert(source.assignment_.size() == assignment_.size());
  assert(begin <= end && end <= assignment_.size());
  const MachineId* from = source.assignment_.data() + begin;
  for_each_difference(assignment_.data() + begin, from, end - begin,
                      [&](std::size_t i) { move_task(begin + i, from[i]); });
}

double Schedule::makespan() const noexcept {
  // The paper's evaluate(): one max-scan over the CT cache, now through the
  // dispatched kernel layer. Clamped at 0.0 like the original accumulator.
  return std::max(0.0,
                  kernels::max_value(completion_.data(), completion_.size()));
}

std::size_t Schedule::argmax_machine() const noexcept {
  return kernels::argmax(completion_.data(), completion_.size());
}

double Schedule::flowtime() const {
  // Per machine: sort assigned ETCs ascending; finishing times are the
  // prefix sums starting at the machine's ready time. Grouping is a
  // counting sort into thread-local scratch, so steady-state calls (any
  // shape already seen by this thread) perform zero heap allocations —
  // flowtime sits on the multi-objective evaluation path.
  thread_local std::vector<double> grouped;
  thread_local std::vector<std::uint32_t> offset;
  grouped.resize(tasks());
  offset.assign(machines() + 1, 0);
  for (MachineId a : assignment_) ++offset[a + 1];
  for (std::size_t m = 1; m <= machines(); ++m) offset[m] += offset[m - 1];
  // offset[m] now points at machine m's bucket start; restore after scatter.
  for (std::size_t t = 0; t < tasks(); ++t) {
    grouped[offset[assignment_[t]]++] = (*etc_)(t, assignment_[t]);
  }
  double flow = 0.0;
  std::uint32_t begin = 0;
  for (std::size_t m = 0; m < machines(); ++m) {
    const std::uint32_t end = offset[m];
    std::sort(grouped.begin() + begin, grouped.begin() + end);
    double finish = etc_->ready(m);
    for (std::uint32_t i = begin; i < end; ++i) {
      finish += grouped[i];
      flow += finish;
    }
    begin = end;
  }
  return flow;
}

std::size_t Schedule::tasks_on(MachineId m) const noexcept {
  std::size_t n = 0;
  for (MachineId a : assignment_) n += (a == m);
  return n;
}

void Schedule::recompute() noexcept {
  for (std::size_t m = 0; m < completion_.size(); ++m) {
    completion_[m] = etc_->ready(m);
  }
  for (std::size_t t = 0; t < assignment_.size(); ++t) {
    completion_[assignment_[t]] += (*etc_)(t, assignment_[t]);
  }
}

bool Schedule::validate(double tol) const noexcept {
  Schedule fresh(*etc_, assignment_);
  for (std::size_t m = 0; m < completion_.size(); ++m) {
    const double scale = std::max({std::abs(completion_[m]),
                                   std::abs(fresh.completion_[m]), 1.0});
    if (std::abs(completion_[m] - fresh.completion_[m]) > tol * scale)
      return false;
  }
  return true;
}

std::size_t Schedule::hamming_distance(const Schedule& other) const noexcept {
  assert(assignment_.size() == other.assignment_.size());
  return for_each_difference(assignment_.data(), other.assignment_.data(),
                             assignment_.size(), [](std::size_t) {});
}

}  // namespace pacga::sched
