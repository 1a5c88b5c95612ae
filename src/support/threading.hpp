// Threading utilities shared by the parallel engine and its benchmarks.
//
// HPC notes:
//  * Hot mutable state (per-thread counters, per-cell sequence counters)
//    is padded to the destructive interference size so threads never
//    false-share a line.
//  * ScopedThreads guarantees join-on-scope-exit (exception safe), the RAII
//    equivalent of std::jthread groups.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <new>
#include <thread>
#include <vector>

namespace pacga::support {

/// Destructive interference size. Fixed at 64 (x86-64/common ARM cache
/// line) rather than std::hardware_destructive_interference_size, whose
/// value varies with compiler tuning flags and would make the padding part
/// of an unstable ABI (GCC warns about exactly this).
inline constexpr std::size_t kCacheLineSize = 64;

/// Wraps a T in a cache-line-aligned, cache-line-sized slot so that arrays
/// of Padded<T> never false-share. T must fit the padding arrangement.
template <typename T>
struct alignas(kCacheLineSize) Padded {
  T value{};

  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
};

/// Launches `n` workers running fn(worker_index) and joins them all in the
/// destructor (or explicitly via join()). Exception-safe: a throwing scope
/// still joins, so no detached threads touch freed state.
class ScopedThreads {
 public:
  ScopedThreads() = default;
  ScopedThreads(std::size_t n, const std::function<void(std::size_t)>& fn);

  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

  ~ScopedThreads();

  void join();

 private:
  std::vector<std::thread> threads_;
};

/// Reusable cyclic barrier (C++20 std::barrier exists but this avoids the
/// completion-function template plumbing and is sufficient for tests and
/// the synchronous engine).
class Barrier {
 public:
  explicit Barrier(std::size_t parties);

  /// Blocks until all parties arrive; reusable across generations.
  void arrive_and_wait();

 private:
  const std::size_t parties_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::size_t> generation_{0};
};

/// One word of an object another thread may access at the same time, read
/// or written through std::atomic_ref: a plain move on x86, and an atomic
/// that ThreadSanitizer can see. `word` must not be a const object
/// (atomic_ref<const T> needs C++26, hence the const_cast).
template <typename T>
T load_acquire(const T& word) noexcept {
  return std::atomic_ref<T>(const_cast<T&>(word))
      .load(std::memory_order_acquire);
}

template <typename T>
void store_release(T& word, T value) noexcept {
  std::atomic_ref<T>(word).store(value, std::memory_order_release);
}

/// Returns min(requested, hardware_concurrency), at least 1. Used by the
/// harness so bench binaries degrade gracefully on small machines.
std::size_t clamp_threads(std::size_t requested) noexcept;

}  // namespace pacga::support
