#include "support/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PACGA_KERNELS_X86_AVX2 1
#include <immintrin.h>
#endif

namespace pacga::support::kernels {

namespace {

// ---- portable scalar path ------------------------------------------------
//
// These loops ARE the semantic definition: in-order scans with strict
// comparisons (lowest index wins ties). The AVX2 path reproduces them
// bit-for-bit; test_kernels holds both to that contract.

// max_value/min_value return the extreme VALUE canonicalized by `+ 0.0`:
// the only doubles that compare equal with different bit patterns are
// signed zeros (NaN is excluded by contract), and -0.0 + 0.0 == +0.0, so
// the result is bit-identical across paths no matter WHICH of several
// compare-equal extremes a reduction happens to select. That freedom is
// what lets the AVX2 path use raw max_pd/min_pd reductions — the fastest
// shape — instead of index-tracked blends.

double scalar_max_value(const double* d, std::size_t n) {
  assert(n > 0);
  double best = d[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (d[i] > best) best = d[i];
  }
  return best + 0.0;
}

double scalar_min_value(const double* d, std::size_t n) {
  assert(n > 0);
  double best = d[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (d[i] < best) best = d[i];
  }
  return best + 0.0;
}

std::size_t scalar_argmax(const double* d, std::size_t n) {
  assert(n > 0);
  std::size_t arg = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (d[i] > d[arg]) arg = i;
  }
  return arg;
}

std::size_t scalar_argmin(const double* d, std::size_t n) {
  assert(n > 0);
  std::size_t arg = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (d[i] < d[arg]) arg = i;
  }
  return arg;
}

MinScan scalar_min_plus(const double* a, const double* b, std::size_t n) {
  assert(n > 0);
  MinScan r{a[0] + b[0], 0};
  for (std::size_t i = 1; i < n; ++i) {
    const double c = a[i] + b[i];
    if (c < r.value) {
      r.value = c;
      r.index = i;
    }
  }
  return r;
}

void scalar_scale_inplace(double* d, std::size_t n, double factor) {
  for (std::size_t i = 0; i < n; ++i) d[i] *= factor;
}

// hash_block is DEFINED as a 4-lane interleaved xorshift mix: lane l folds
// elements l, l+4, l+8, ... so a 4-wide vector path computes the exact same
// lane states. Quality is adequate for content fingerprints (every lane
// word passes through hash_mix avalanches in the combine); stability across
// platforms and dispatch paths is the hard requirement.
inline std::uint64_t hash_lane_step(std::uint64_t h, std::uint64_t bits) {
  h ^= bits;
  h ^= h << 13;
  h ^= h >> 7;
  h ^= h << 17;
  return h;
}

std::uint64_t scalar_hash_block(const double* d, std::size_t n,
                                std::uint64_t seed) {
  std::uint64_t lane[4];
  for (std::size_t l = 0; l < 4; ++l) {
    lane[l] = seed + (l + 1) * 0x9e3779b97f4a7c15ULL;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &d[i], sizeof bits);
    lane[i & 3] = hash_lane_step(lane[i & 3], bits);
  }
  std::uint64_t acc = hash_mix(seed, n);
  for (std::size_t l = 0; l < 4; ++l) acc = hash_mix(acc, lane[l]);
  return acc;
}

std::size_t scalar_eq_mask_u16(const std::uint16_t* d, std::size_t n,
                               std::uint16_t value, std::uint64_t* words) {
  std::size_t count = 0;
  for (std::size_t w = 0; 64 * w < n; ++w) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(64, n - 64 * w); ++i) {
      bits |= std::uint64_t{d[64 * w + i] == value} << i;
    }
    words[w] = bits;
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  return count;
}

// Selection by nth_element over an index scratch: under the (value, index)
// order no two entries are equivalent, so the first k slots hold exactly
// the k lightest entries whatever the library's partitioning does. The
// argmax is the in-order scan's.
std::size_t scalar_lightest_mask(const double* d, std::size_t n, std::size_t k,
                                 std::uint64_t* words) {
  std::fill_n(words, (n + 63) / 64, std::uint64_t{0});
  k = std::min(k, n);
  // Index scratch; reused across calls (thread-local to stay
  // allocation-free on the hot path).
  thread_local std::vector<std::uint32_t> idx;
  idx.resize(n);
  std::iota(idx.begin(), idx.end(), std::uint32_t{0});
  const auto lighter = [d](std::uint32_t a, std::uint32_t b) {
    return d[a] < d[b] || (d[a] == d[b] && a < b);
  };
  if (k < n) {
    std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                     idx.end(), lighter);
  }
  for (std::size_t i = 0; i < k; ++i) {
    words[idx[i] / 64] |= std::uint64_t{1} << (idx[i] % 64);
  }
  return n == 0 ? 0 : scalar_argmax(d, n);
}

// The word walk every select body shares: skips whole words while k is at
// least their popcount, returns the word holding the k-th set bit and
// leaves k as its rank within that word. It is inlined into each tier, so
// the tier's target decides whether std::popcount is the popcnt instruction
// or libgcc's software routine (the baseline x86-64 build).
__attribute__((always_inline)) inline std::size_t select_word(
    const std::uint64_t* words, std::size_t& k) {
  std::size_t w = 0;
  for (;; ++w) {
    const auto c = static_cast<std::size_t>(std::popcount(words[w]));
    if (k < c) return w;
    k -= c;
  }
}

// The portable select: the word walk, then the k lowest set bits cleared.
__attribute__((always_inline)) inline std::size_t select_walk(
    const std::uint64_t* words, std::size_t k) {
  const std::size_t w = select_word(words, k);
  std::uint64_t bits = words[w];
  for (; k > 0; --k) bits &= bits - 1;
  return 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
}

std::size_t scalar_select_bit(const std::uint64_t* words, std::size_t k) {
  return select_walk(words, k);
}

std::size_t scalar_ne_mask_u16(const std::uint16_t* a, const std::uint16_t* b,
                               std::size_t n, std::uint64_t* words) {
  std::size_t count = 0;
  for (std::size_t w = 0; 64 * w < n; ++w) {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < std::min<std::size_t>(64, n - 64 * w); ++i) {
      bits |= std::uint64_t{a[64 * w + i] != b[64 * w + i]} << i;
    }
    words[w] = bits;
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  return count;
}

// ---- H2LL ------------------------------------------------------------------
//
// The pieces every tier's h2ll shares: the task-mask scratch, the pass
// state's task-mask update, and the reference pass loop.

// The match mask of the most loaded machine's tasks: ceil(tasks/64) words,
// thread-local so that a call is allocation-free once the thread has seen
// the shape.
std::uint64_t* h2ll_task_words(std::size_t tasks) {
  thread_local std::vector<std::uint64_t> words;
  words.resize((tasks + 63) / 64);
  return words.data();
}

#ifndef NDEBUG
// Debug check of the kept pass state: `words` and `count` are what the
// scalar match mask returns for `machine` on the current genes.
bool task_mask_is_fresh(const std::uint16_t* genes, std::size_t tasks,
                        std::size_t machine, const std::uint64_t* words,
                        std::size_t count) {
  thread_local std::vector<std::uint64_t> fresh;
  fresh.resize((tasks + 63) / 64);
  return scalar_eq_mask_u16(genes, tasks, static_cast<std::uint16_t>(machine),
                            fresh.data()) == count &&
         std::equal(fresh.begin(), fresh.end(), words);
}
#endif

using LightestMaskFn = decltype(Dispatch::lightest_mask);
using EqMaskFn = decltype(Dispatch::eq_mask_u16);
using SelectBitFn = decltype(Dispatch::select_bit);

// The task mask once the pass state found `loaded` most loaded. If the last
// move (of task `moved`, off `most_loaded`) kept it most loaded, that move's
// one changed gene is `moved`'s bit, so the kept mask loses that bit and
// nothing else; otherwise the mask is rebuilt. Returns the match count.
__attribute__((always_inline)) inline std::size_t refresh_task_mask(
    EqMaskFn eq_mask, const std::uint16_t* genes, std::size_t tasks,
    std::size_t loaded, std::size_t& most_loaded, std::size_t moved,
    std::size_t count, std::uint64_t* words) {
  if (loaded == most_loaded) {
    words[moved / 64] &= ~(std::uint64_t{1} << (moved % 64));
    --count;
  } else {
    most_loaded = loaded;
    count = eq_mask(genes, tasks, static_cast<std::uint16_t>(loaded), words);
  }
  assert(task_mask_is_fresh(genes, tasks, loaded, words, count));
  return count;
}

// The reference pass loop (see Dispatch::h2ll) over one tier's kernels: the
// scalar tier's h2ll, and every tier's above 16 machines. The candidates
// are visited in ascending machine order, so score ties keep the lowest
// machine.
void h2ll_pass_loop(LightestMaskFn lightest_mask, EqMaskFn eq_mask,
                    SelectBitFn select_bit, double* ct, std::uint16_t* genes,
                    const double* rows, std::size_t tasks,
                    std::size_t machines, std::size_t k, std::size_t passes,
                    Xoshiro256& rng) {
  std::uint64_t* task_words = h2ll_task_words(tasks);
  thread_local std::vector<std::uint64_t> cand;
  cand.resize((machines + 63) / 64);
  std::size_t most_loaded = machines;  // sentinel: no state yet
  std::size_t count = 0;
  std::size_t moved = tasks;  // the last move's task (off most_loaded)
  bool stale = true;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    if (stale) {
      const std::size_t loaded = lightest_mask(ct, machines, k, cand.data());
      cand[loaded / 64] &= ~(std::uint64_t{1} << (loaded % 64));
      count = refresh_task_mask(eq_mask, genes, tasks, loaded, most_loaded,
                                moved, count, task_words);
      if (count == 0) return;
      stale = false;
    }
    const std::size_t task = select_bit(task_words, rng.index(count));
    const double* row = rows + task * machines;
    double best_score = ct[most_loaded];
    std::size_t best = machines;  // sentinel: no move
    for (std::size_t w = 0; w < cand.size(); ++w) {
      for (std::uint64_t bits = cand[w]; bits != 0; bits &= bits - 1) {
        const std::size_t mac =
            64 * w + static_cast<std::size_t>(std::countr_zero(bits));
        const double score = ct[mac] + row[mac];
        if (score < best_score) {
          best_score = score;
          best = mac;
        }
      }
    }
    if (best != machines) {
      ct[most_loaded] -= row[most_loaded];
      ct[best] += row[best];
      genes[task] = static_cast<std::uint16_t>(best);
      moved = task;
      stale = true;
    }
  }
}

void scalar_h2ll(double* ct, std::uint16_t* genes, const double* rows,
                 std::size_t tasks, std::size_t machines, std::size_t k,
                 std::size_t passes, Xoshiro256& rng) {
  h2ll_pass_loop(scalar_lightest_mask, scalar_eq_mask_u16, scalar_select_bit,
                 ct, genes, rows, tasks, machines, k, passes, rng);
}

constexpr Dispatch kScalar{scalar_max_value,     scalar_min_value,
                           scalar_argmax,        scalar_argmin,
                           scalar_min_plus,      scalar_scale_inplace,
                           scalar_hash_block,    scalar_eq_mask_u16,
                           scalar_lightest_mask, scalar_select_bit,
                           scalar_ne_mask_u16,   scalar_h2ll,
                           "scalar"};

// ---- AVX2 path -----------------------------------------------------------

#if PACGA_KERNELS_X86_AVX2

// Folds a 4-lane (value, index) state down to the scalar-scan answer:
// smallest index among the lanes holding the extreme value. Lane l of a
// block starting at element i holds element i + l, so comparing the stored
// indices directly reproduces the in-order scan's lowest-index tie-break.
template <bool kMax>
std::size_t fold_lanes(const double (&v)[4], const std::uint64_t (&idx)[4]) {
  std::size_t best = 0;
  for (std::size_t l = 1; l < 4; ++l) {
    const bool better = kMax ? v[l] > v[best] : v[l] < v[best];
    if (better || (v[l] == v[best] && idx[l] < idx[best])) best = l;
  }
  return best;
}

// Raw max_pd/min_pd reductions: which of several compare-equal extremes
// wins differs from the scalar scan's first-occurrence pick, but the
// `+ 0.0` canonicalization (see the scalar definitions) erases the only
// representable difference (signed zeros), so bit-identity holds.

__attribute__((target("avx2"))) double avx2_max_value(const double* d,
                                                      std::size_t n) {
  assert(n > 0);
  std::size_t i = 0;
  double best = d[0];
  if (n >= 8) {
    __m256d acc = _mm256_loadu_pd(d);
    for (i = 4; i + 4 <= n; i += 4) {
      acc = _mm256_max_pd(acc, _mm256_loadu_pd(d + i));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    best = lanes[0];
    for (std::size_t l = 1; l < 4; ++l) {
      if (lanes[l] > best) best = lanes[l];
    }
  }
  for (; i < n; ++i) {
    if (d[i] > best) best = d[i];
  }
  return best + 0.0;
}

__attribute__((target("avx2"))) double avx2_min_value(const double* d,
                                                      std::size_t n) {
  assert(n > 0);
  std::size_t i = 0;
  double best = d[0];
  if (n >= 8) {
    __m256d acc = _mm256_loadu_pd(d);
    for (i = 4; i + 4 <= n; i += 4) {
      acc = _mm256_min_pd(acc, _mm256_loadu_pd(d + i));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    best = lanes[0];
    for (std::size_t l = 1; l < 4; ++l) {
      if (lanes[l] < best) best = lanes[l];
    }
  }
  for (; i < n; ++i) {
    if (d[i] < best) best = d[i];
  }
  return best + 0.0;
}

// Shared shape of the indexed reductions: per 4-wide block, a strict
// compare against the running per-lane best blends in the new values and
// their indices; within a lane the strict compare keeps the EARLIEST
// occurrence, and the cross-lane fold plus the scalar tail restore the
// global lowest-index tie-break. Four independent accumulator streams
// (16 elements per round) break the cmp->blend latency chain that would
// otherwise bound throughput; each lane of each stream still keeps the
// earliest index of ITS subsequence, so the 16-way fold remains exact.
template <bool kMax>
__attribute__((target("avx2"))) std::size_t avx2_argextreme(const double* d,
                                                            std::size_t n) {
  assert(n > 0);
  std::size_t i = 0;
  std::size_t arg = 0;
  if (n >= 32) {
    __m256d best[4];
    __m256i best_idx[4];
    __m256i idx[4];
    const __m256i step = _mm256_set1_epi64x(16);
    for (int s = 0; s < 4; ++s) {
      best[s] = _mm256_loadu_pd(d + 4 * s);
      best_idx[s] = _mm256_setr_epi64x(4 * s, 4 * s + 1, 4 * s + 2, 4 * s + 3);
      idx[s] = _mm256_add_epi64(best_idx[s], step);
    }
    for (i = 16; i + 16 <= n; i += 16) {
      for (int s = 0; s < 4; ++s) {
        const __m256d v = _mm256_loadu_pd(d + i + 4 * s);
        const __m256d better = kMax ? _mm256_cmp_pd(v, best[s], _CMP_GT_OQ)
                                    : _mm256_cmp_pd(v, best[s], _CMP_LT_OQ);
        best[s] = _mm256_blendv_pd(best[s], v, better);
        best_idx[s] = _mm256_blendv_epi8(best_idx[s], idx[s],
                                         _mm256_castpd_si256(better));
        idx[s] = _mm256_add_epi64(idx[s], step);
      }
    }
    alignas(32) double v[16];
    alignas(32) std::uint64_t vi[16];
    for (int s = 0; s < 4; ++s) {
      _mm256_store_pd(v + 4 * s, best[s]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(vi + 4 * s), best_idx[s]);
    }
    std::size_t lane = 0;
    for (std::size_t l = 1; l < 16; ++l) {
      const bool better = kMax ? v[l] > v[lane] : v[l] < v[lane];
      if (better || (v[l] == v[lane] && vi[l] < vi[lane])) lane = l;
    }
    arg = static_cast<std::size_t>(vi[lane]);
  } else if (n >= 8) {
    __m256d best = _mm256_loadu_pd(d);
    __m256i best_idx = _mm256_setr_epi64x(0, 1, 2, 3);
    __m256i idx = _mm256_setr_epi64x(4, 5, 6, 7);
    const __m256i step = _mm256_set1_epi64x(4);
    for (i = 4; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(d + i);
      const __m256d better = kMax ? _mm256_cmp_pd(v, best, _CMP_GT_OQ)
                                  : _mm256_cmp_pd(v, best, _CMP_LT_OQ);
      best = _mm256_blendv_pd(best, v, better);
      best_idx = _mm256_blendv_epi8(best_idx, idx,
                                    _mm256_castpd_si256(better));
      idx = _mm256_add_epi64(idx, step);
    }
    alignas(32) double v[4];
    alignas(32) std::uint64_t vi[4];
    _mm256_store_pd(v, best);
    _mm256_store_si256(reinterpret_cast<__m256i*>(vi), best_idx);
    const std::size_t lane = fold_lanes<kMax>(v, vi);
    arg = static_cast<std::size_t>(vi[lane]);
  }
  // Tail indices are all larger than any vector-phase index, so the strict
  // compare alone preserves the tie-break.
  for (; i < n; ++i) {
    const bool better = kMax ? d[i] > d[arg] : d[i] < d[arg];
    if (better) arg = i;
  }
  return arg;
}

__attribute__((target("avx2"))) std::size_t avx2_argmax(const double* d,
                                                        std::size_t n) {
  return avx2_argextreme<true>(d, n);
}

__attribute__((target("avx2"))) std::size_t avx2_argmin(const double* d,
                                                        std::size_t n) {
  return avx2_argextreme<false>(d, n);
}

__attribute__((target("avx2"))) MinScan avx2_min_plus(const double* a,
                                                      const double* b,
                                                      std::size_t n) {
  assert(n > 0);
  std::size_t i = 0;
  MinScan r{a[0] + b[0], 0};
  if (n >= 32) {
    // Same 4-stream unroll as the indexed reductions (see avx2_argextreme).
    __m256d best[4];
    __m256i best_idx[4];
    __m256i idx[4];
    const __m256i step = _mm256_set1_epi64x(16);
    for (int s = 0; s < 4; ++s) {
      best[s] = _mm256_add_pd(_mm256_loadu_pd(a + 4 * s),
                              _mm256_loadu_pd(b + 4 * s));
      best_idx[s] = _mm256_setr_epi64x(4 * s, 4 * s + 1, 4 * s + 2, 4 * s + 3);
      idx[s] = _mm256_add_epi64(best_idx[s], step);
    }
    for (i = 16; i + 16 <= n; i += 16) {
      for (int s = 0; s < 4; ++s) {
        const __m256d c = _mm256_add_pd(_mm256_loadu_pd(a + i + 4 * s),
                                        _mm256_loadu_pd(b + i + 4 * s));
        const __m256d lt = _mm256_cmp_pd(c, best[s], _CMP_LT_OQ);
        best[s] = _mm256_blendv_pd(best[s], c, lt);
        best_idx[s] =
            _mm256_blendv_epi8(best_idx[s], idx[s], _mm256_castpd_si256(lt));
        idx[s] = _mm256_add_epi64(idx[s], step);
      }
    }
    alignas(32) double v[16];
    alignas(32) std::uint64_t vi[16];
    for (int s = 0; s < 4; ++s) {
      _mm256_store_pd(v + 4 * s, best[s]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(vi + 4 * s), best_idx[s]);
    }
    std::size_t lane = 0;
    for (std::size_t l = 1; l < 16; ++l) {
      if (v[l] < v[lane] || (v[l] == v[lane] && vi[l] < vi[lane])) lane = l;
    }
    r = {v[lane], static_cast<std::size_t>(vi[lane])};
  } else if (n >= 8) {
    __m256d best = _mm256_add_pd(_mm256_loadu_pd(a), _mm256_loadu_pd(b));
    __m256i best_idx = _mm256_setr_epi64x(0, 1, 2, 3);
    __m256i idx = _mm256_setr_epi64x(4, 5, 6, 7);
    const __m256i step = _mm256_set1_epi64x(4);
    for (i = 4; i + 4 <= n; i += 4) {
      const __m256d c =
          _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
      const __m256d lt = _mm256_cmp_pd(c, best, _CMP_LT_OQ);
      best = _mm256_blendv_pd(best, c, lt);
      best_idx =
          _mm256_blendv_epi8(best_idx, idx, _mm256_castpd_si256(lt));
      idx = _mm256_add_epi64(idx, step);
    }
    alignas(32) double v[4];
    alignas(32) std::uint64_t vi[4];
    _mm256_store_pd(v, best);
    _mm256_store_si256(reinterpret_cast<__m256i*>(vi), best_idx);
    const std::size_t lane = fold_lanes<false>(v, vi);
    r = {v[lane], static_cast<std::size_t>(vi[lane])};
  }
  for (; i < n; ++i) {
    const double c = a[i] + b[i];
    if (c < r.value) r = {c, i};
  }
  return r;
}

__attribute__((target("avx2"))) void avx2_scale_inplace(double* d,
                                                        std::size_t n,
                                                        double factor) {
  const __m256d f = _mm256_set1_pd(factor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(d + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), f));
  }
  for (; i < n; ++i) d[i] *= factor;
}

__attribute__((target("avx2"))) std::uint64_t avx2_hash_block(
    const double* d, std::size_t n, std::uint64_t seed) {
  alignas(32) std::uint64_t lane[4];
  for (std::size_t l = 0; l < 4; ++l) {
    lane[l] = seed + (l + 1) * 0x9e3779b97f4a7c15ULL;
  }
  std::size_t i = 0;
  if (n >= 4) {
    __m256i h = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane));
    for (; i + 4 <= n; i += 4) {
      const __m256i bits =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
      h = _mm256_xor_si256(h, bits);
      h = _mm256_xor_si256(h, _mm256_slli_epi64(h, 13));
      h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 7));
      h = _mm256_xor_si256(h, _mm256_slli_epi64(h, 17));
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane), h);
  }
  for (; i < n; ++i) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &d[i], sizeof bits);
    lane[i & 3] = hash_lane_step(lane[i & 3], bits);
  }
  std::uint64_t acc = hash_mix(seed, n);
  for (std::size_t l = 0; l < 4; ++l) acc = hash_mix(acc, lane[l]);
  return acc;
}

// 64 genes per mask word: two 16-lane compares per 32 genes, narrowed to
// bytes by packs (0xFFFF saturates to 0xFF). packs interleaves the 128-bit
// halves of its operands, so the 64-bit permute restores gene order before
// movemask reads one bit per gene. A partial last word takes the scalar
// body.
__attribute__((target("avx2"))) inline std::uint64_t avx2_bits32(__m256i lo,
                                                                 __m256i hi) {
  const __m256i bytes = _mm256_permute4x64_epi64(_mm256_packs_epi16(lo, hi),
                                                 _MM_SHUFFLE(3, 1, 2, 0));
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(bytes));
}

__attribute__((target("avx2"))) inline __m256i avx2_load_u16(
    const std::uint16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2,popcnt"))) std::size_t avx2_eq_mask_u16(
    const std::uint16_t* d, std::size_t n, std::uint16_t value,
    std::uint64_t* words) {
  const __m256i v = _mm256_set1_epi16(static_cast<short>(value));
  std::size_t count = 0;
  std::size_t w = 0;
  for (; 64 * w + 64 <= n; ++w) {
    std::uint64_t bits = 0;
    for (std::size_t half = 0; half < 2; ++half) {
      const std::uint16_t* p = d + 64 * w + 32 * half;
      bits |= avx2_bits32(_mm256_cmpeq_epi16(avx2_load_u16(p), v),
                          _mm256_cmpeq_epi16(avx2_load_u16(p + 16), v))
              << (32 * half);
    }
    words[w] = bits;
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  return count + scalar_eq_mask_u16(d + 64 * w, n - 64 * w, value, words + w);
}

// The match mask's word loop over two arrays, inverted: a word's equal
// genes are its clear bits.
__attribute__((target("avx2,popcnt"))) std::size_t avx2_ne_mask_u16(
    const std::uint16_t* a, const std::uint16_t* b, std::size_t n,
    std::uint64_t* words) {
  std::size_t count = 0;
  std::size_t w = 0;
  for (; 64 * w + 64 <= n; ++w) {
    std::uint64_t same = 0;
    for (std::size_t half = 0; half < 2; ++half) {
      const std::size_t i = 64 * w + 32 * half;
      const __m256i lo =
          _mm256_cmpeq_epi16(avx2_load_u16(a + i), avx2_load_u16(b + i));
      const __m256i hi = _mm256_cmpeq_epi16(avx2_load_u16(a + i + 16),
                                            avx2_load_u16(b + i + 16));
      same |= avx2_bits32(lo, hi) << (32 * half);
    }
    words[w] = ~same;
    count += static_cast<std::size_t>(std::popcount(~same));
  }
  return count +
         scalar_ne_mask_u16(a + 64 * w, b + 64 * w, n - 64 * w, words + w);
}

// Rank counting, 4 entries m per block: lane m counts j when
// (d[j], j) < (d[m], m). Entries before the block precede every lane, so
// ties count (d[j] <= d[m]); entries after it follow every lane, so ties
// do not (d[j] < d[m]); the block's own entries pick LE or LT per lane,
// which also keeps m from counting itself. A compare is all-ones per
// counted lane, so subtracting it increments the rank. Lanes past n are
// cleared from the result; j only reads real entries.
// Counting costs O(n^2 / lanes) against the selection's O(n), so the
// vector bodies stop at one mask word (n <= 64) and hand larger n to the
// scalar body.
//
// The argmax comes from the same blocks: a max_pd pass finds the largest
// value, and the lowest index comparing equal to it is the scalar scan's
// answer (-0.0 == +0.0, so signed zeros cannot split the tie). Lanes past n
// load -inf, which cannot exceed a real entry, and are masked off.
__attribute__((target("avx2"))) inline __m256d avx2_load_block(
    const double* d, std::size_t n, std::size_t b) {
  const __m256i valid =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n - b)),
                         _mm256_setr_epi64x(0, 1, 2, 3));
  return _mm256_blendv_pd(
      _mm256_set1_pd(-std::numeric_limits<double>::infinity()),
      _mm256_maskload_pd(d + b, valid), _mm256_castsi256_pd(valid));
}

__attribute__((target("avx2"))) std::size_t avx2_lightest_mask(
    const double* d, std::size_t n, std::size_t k, std::uint64_t* words) {
  if (n > 64) return scalar_lightest_mask(d, n, k, words);
  if (n == 0) return 0;
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  __m256d top = avx2_load_block(d, n, 0);
  for (std::size_t b = 4; b < n; b += 4) {
    top = _mm256_max_pd(top, avx2_load_block(d, n, b));
  }
  top = _mm256_max_pd(top, _mm256_permute2f128_pd(top, top, 1));
  top = _mm256_max_pd(top, _mm256_permute_pd(top, 0b0101));
  const __m256i kv =
      _mm256_set1_epi64x(static_cast<long long>(std::min(k, n)));
  std::uint64_t bits = 0;
  std::uint64_t at_top = 0;
  for (std::size_t b = 0; b < n; b += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, n - b);
    const std::uint64_t valid = (std::uint64_t{1} << lanes) - 1;
    const __m256d vm = avx2_load_block(d, n, b);
    at_top |= (static_cast<std::uint64_t>(_mm256_movemask_pd(
                   _mm256_cmp_pd(vm, top, _CMP_EQ_OQ))) &
               valid)
              << b;
    __m256i rank = _mm256_setzero_si256();
    for (std::size_t j = 0; j < b; ++j) {
      const __m256d le = _mm256_cmp_pd(_mm256_set1_pd(d[j]), vm, _CMP_LE_OQ);
      rank = _mm256_sub_epi64(rank, _mm256_castpd_si256(le));
    }
    for (std::size_t j = b; j < b + lanes; ++j) {
      const __m256d dj = _mm256_set1_pd(d[j]);
      const __m256i after = _mm256_cmpgt_epi64(
          lane, _mm256_set1_epi64x(static_cast<long long>(j - b)));
      const __m256d counted =
          _mm256_blendv_pd(_mm256_cmp_pd(dj, vm, _CMP_LT_OQ),
                           _mm256_cmp_pd(dj, vm, _CMP_LE_OQ),
                           _mm256_castsi256_pd(after));
      rank = _mm256_sub_epi64(rank, _mm256_castpd_si256(counted));
    }
    for (std::size_t j = b + lanes; j < n; ++j) {
      const __m256d lt = _mm256_cmp_pd(_mm256_set1_pd(d[j]), vm, _CMP_LT_OQ);
      rank = _mm256_sub_epi64(rank, _mm256_castpd_si256(lt));
    }
    const auto lighter = static_cast<std::uint64_t>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(kv, rank))));
    bits |= (lighter & valid) << b;
  }
  words[0] = bits;
  return static_cast<std::size_t>(std::countr_zero(at_top));
}

__attribute__((target("popcnt"))) std::size_t avx2_select_bit(
    const std::uint64_t* words, std::size_t k) {
  return select_walk(words, k);
}

// avx2_lightest_mask on the register blocks of avx2_h2ll_regs: the argmax
// (returned, with the makespan broadcast into `top`) and the rank count as
// candidate lane masks, each d[j] broadcast from its block by a lane
// permute instead of a load. Block b against entry j of block jb: every
// lane of a later block follows j (ties count), every lane of an earlier
// block precedes it (ties do not), and j's own block picks per lane.
template <std::size_t NB>
__attribute__((target("avx2"), always_inline)) inline std::size_t
avx2_lightest_regs(const __m256d (&ct)[NB], const __m256i (&valid)[NB],
                   std::size_t machines, std::size_t k, __m256d (&cand)[NB],
                   __m256d& top) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256d neg_inf =
      _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d high = neg_inf;
  for (std::size_t b = 0; b < NB; ++b) {
    high = _mm256_max_pd(high, _mm256_blendv_pd(neg_inf, ct[b],
                                                _mm256_castsi256_pd(valid[b])));
  }
  high = _mm256_max_pd(high, _mm256_permute2f128_pd(high, high, 1));
  top = _mm256_max_pd(high, _mm256_permute_pd(high, 0b0101));
  std::uint32_t at_top = 0;
  for (std::size_t b = 0; b < NB; ++b) {
    const __m256d eq = _mm256_and_pd(_mm256_cmp_pd(ct[b], top, _CMP_EQ_OQ),
                                     _mm256_castsi256_pd(valid[b]));
    at_top |= static_cast<std::uint32_t>(_mm256_movemask_pd(eq)) << (4 * b);
  }
  __m256i rank[NB];
  for (std::size_t b = 0; b < NB; ++b) rank[b] = _mm256_setzero_si256();
  for (std::size_t jb = 0; jb < NB; ++jb) {
    const std::size_t lanes = std::min<std::size_t>(4, machines - 4 * jb);
    for (std::size_t l = 0; l < lanes; ++l) {
      // 32-bit permute indices 2l and 2l + 1 in every 64-bit lane.
      const __m256i pick = _mm256_set1_epi64x(
          static_cast<long long>(((2 * l + 1) << 32) | (2 * l)));
      const __m256d dj = _mm256_castps_pd(
          _mm256_permutevar8x32_ps(_mm256_castpd_ps(ct[jb]), pick));
      for (std::size_t b = 0; b < NB; ++b) {
        __m256d counted;
        if (b < jb) {
          counted = _mm256_cmp_pd(dj, ct[b], _CMP_LT_OQ);
        } else if (b > jb) {
          counted = _mm256_cmp_pd(dj, ct[b], _CMP_LE_OQ);
        } else {
          const __m256i after = _mm256_cmpgt_epi64(
              lane, _mm256_set1_epi64x(static_cast<long long>(l)));
          counted = _mm256_blendv_pd(_mm256_cmp_pd(dj, ct[b], _CMP_LT_OQ),
                                     _mm256_cmp_pd(dj, ct[b], _CMP_LE_OQ),
                                     _mm256_castsi256_pd(after));
        }
        rank[b] = _mm256_sub_epi64(rank[b], _mm256_castpd_si256(counted));
      }
    }
  }
  const __m256i kv =
      _mm256_set1_epi64x(static_cast<long long>(std::min(k, machines)));
  for (std::size_t b = 0; b < NB; ++b) {
    cand[b] = _mm256_castsi256_pd(
        _mm256_and_si256(_mm256_cmpgt_epi64(kv, rank[b]), valid[b]));
  }
  return static_cast<std::size_t>(std::countr_zero(at_top));
}

// H2LL with the completions in NB 4-lane registers (machines <= 4 * NB).
// Block b holds machines 4b..4b+3; lanes past `machines` hold 0 and are
// neither candidates nor move targets. The pass state comes from the
// blocks themselves (avx2_lightest_regs) and the tier's match mask. Per
// pass: one masked row load, add and compare per block against the
// makespan, and, only when a candidate undercuts it, a min over the
// winning lanes and the lowest lane equal to it; a move blends ct - row
// into the loaded lane and ct + row into the target lane.
template <std::size_t NB>
__attribute__((target("avx2,popcnt"))) void avx2_h2ll_regs(
    double* completions, std::uint16_t* genes, const double* rows,
    std::size_t tasks, std::size_t machines, std::size_t k,
    std::size_t passes, Xoshiro256& rng) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256i valid[NB];
  __m256d ct[NB];
  for (std::size_t b = 0; b < NB; ++b) {
    valid[b] = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(machines - 4 * b)), lane);
    ct[b] = _mm256_maskload_pd(completions + 4 * b, valid[b]);
  }
  std::uint64_t* task_words = h2ll_task_words(tasks);
  __m256d cand[NB];
  __m256d top = inf;  // the makespan, broadcast
  std::size_t most_loaded = machines;  // sentinel: no state yet
  std::size_t count = 0;
  std::size_t moved = tasks;
  bool stale = true;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    if (stale) {
      const std::size_t loaded =
          avx2_lightest_regs<NB>(ct, valid, machines, k, cand, top);
      const __m256i at = _mm256_set1_epi64x(static_cast<long long>(loaded));
      for (std::size_t b = 0; b < NB; ++b) {
        const __m256i idx = _mm256_add_epi64(
            lane, _mm256_set1_epi64x(static_cast<long long>(4 * b)));
        cand[b] = _mm256_andnot_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(idx, at)), cand[b]);
      }
      count = refresh_task_mask(avx2_eq_mask_u16, genes, tasks, loaded,
                                most_loaded, moved, count, task_words);
      if (count == 0) break;
      stale = false;
    }
    const std::size_t task = select_walk(task_words, rng.index(count));
    const double* row = rows + task * machines;
    __m256d r[NB];
    __m256d score[NB];
    __m256d win[NB];
    __m256d any = _mm256_setzero_pd();
    for (std::size_t b = 0; b < NB; ++b) {
      r[b] = _mm256_maskload_pd(row + 4 * b, valid[b]);
      score[b] = _mm256_add_pd(ct[b], r[b]);
      win[b] =
          _mm256_and_pd(_mm256_cmp_pd(score[b], top, _CMP_LT_OQ), cand[b]);
      any = _mm256_or_pd(any, win[b]);
    }
    if (_mm256_movemask_pd(any) == 0) continue;
    __m256d low = inf;
    for (std::size_t b = 0; b < NB; ++b) {
      low = _mm256_min_pd(low, _mm256_blendv_pd(inf, score[b], win[b]));
    }
    low = _mm256_min_pd(low, _mm256_permute2f128_pd(low, low, 1));
    low = _mm256_min_pd(low, _mm256_permute_pd(low, 0b0101));
    std::uint32_t at_low = 0;
    for (std::size_t b = 0; b < NB; ++b) {
      const __m256d eq =
          _mm256_and_pd(_mm256_cmp_pd(score[b], low, _CMP_EQ_OQ), win[b]);
      at_low |= static_cast<std::uint32_t>(_mm256_movemask_pd(eq)) << (4 * b);
    }
    const auto best = static_cast<std::size_t>(std::countr_zero(at_low));
    const __m256i from =
        _mm256_set1_epi64x(static_cast<long long>(most_loaded));
    const __m256i to = _mm256_set1_epi64x(static_cast<long long>(best));
    for (std::size_t b = 0; b < NB; ++b) {
      const __m256i idx = _mm256_add_epi64(
          lane, _mm256_set1_epi64x(static_cast<long long>(4 * b)));
      const __m256d is_from =
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(idx, from));
      const __m256d is_to = _mm256_castsi256_pd(_mm256_cmpeq_epi64(idx, to));
      ct[b] = _mm256_blendv_pd(ct[b], _mm256_sub_pd(ct[b], r[b]), is_from);
      ct[b] = _mm256_blendv_pd(ct[b], _mm256_add_pd(ct[b], r[b]), is_to);
    }
    genes[task] = static_cast<std::uint16_t>(best);
    moved = task;
    stale = true;
  }
  for (std::size_t b = 0; b < NB; ++b) {
    _mm256_maskstore_pd(completions + 4 * b, valid[b], ct[b]);
  }
}

__attribute__((target("avx2,popcnt"))) void avx2_h2ll(
    double* ct, std::uint16_t* genes, const double* rows, std::size_t tasks,
    std::size_t machines, std::size_t k, std::size_t passes, Xoshiro256& rng) {
  if (machines <= 4) {
    return avx2_h2ll_regs<1>(ct, genes, rows, tasks, machines, k, passes, rng);
  }
  if (machines <= 8) {
    return avx2_h2ll_regs<2>(ct, genes, rows, tasks, machines, k, passes, rng);
  }
  if (machines <= 12) {
    return avx2_h2ll_regs<3>(ct, genes, rows, tasks, machines, k, passes, rng);
  }
  if (machines <= 16) {
    return avx2_h2ll_regs<4>(ct, genes, rows, tasks, machines, k, passes, rng);
  }
  h2ll_pass_loop(avx2_lightest_mask, avx2_eq_mask_u16, avx2_select_bit, ct,
                 genes, rows, tasks, machines, k, passes, rng);
}

constexpr Dispatch kAvx2{avx2_max_value,     avx2_min_value,
                         avx2_argmax,        avx2_argmin,
                         avx2_min_plus,      avx2_scale_inplace,
                         avx2_hash_block,    avx2_eq_mask_u16,
                         avx2_lightest_mask, avx2_select_bit,
                         avx2_ne_mask_u16,   avx2_h2ll,
                         "avx2"};

// ---- AVX-512 path --------------------------------------------------------
//
// Same contract, 8-wide. The structure mirrors the AVX2 tier — raw
// max_pd/min_pd value reductions under `+ 0.0` canonicalization, strict
// per-lane compares that keep each lane's EARLIEST extreme, a cross-lane
// fold by (value, then lowest stored index), and a scalar tail — with two
// AVX-512 specifics: comparisons produce __mmask8 registers consumed by
// mask blends (no bit-pattern casts between double and integer vectors),
// and the 4-stream unroll advances 32 elements per round. Of AVX-512,
// avx512f is required, and avx512bw for the gene masks' 32-lane 16-bit
// compares. hash_block stays on the AVX2 path: its semantics are DEFINED
// as a 4-lane interleaved mix, so an 8-wide register buys nothing — the
// table reuses avx2_hash_block verbatim (avx512_supported() therefore also
// requires the AVX2 tier's features, a subset of every real AVX-512 CPU).
// select_bit adds BMI2's pdep to the AVX2 tier's popcnt, so bmi2 is
// required as well.

__attribute__((target("avx512f"))) double avx512_max_value(const double* d,
                                                           std::size_t n) {
  assert(n > 0);
  std::size_t i = 0;
  double best = d[0];
  if (n >= 16) {
    __m512d acc = _mm512_loadu_pd(d);
    for (i = 8; i + 8 <= n; i += 8) {
      acc = _mm512_max_pd(acc, _mm512_loadu_pd(d + i));
    }
    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, acc);
    best = lanes[0];
    for (std::size_t l = 1; l < 8; ++l) {
      if (lanes[l] > best) best = lanes[l];
    }
  }
  for (; i < n; ++i) {
    if (d[i] > best) best = d[i];
  }
  return best + 0.0;
}

__attribute__((target("avx512f"))) double avx512_min_value(const double* d,
                                                           std::size_t n) {
  assert(n > 0);
  std::size_t i = 0;
  double best = d[0];
  if (n >= 16) {
    __m512d acc = _mm512_loadu_pd(d);
    for (i = 8; i + 8 <= n; i += 8) {
      acc = _mm512_min_pd(acc, _mm512_loadu_pd(d + i));
    }
    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, acc);
    best = lanes[0];
    for (std::size_t l = 1; l < 8; ++l) {
      if (lanes[l] < best) best = lanes[l];
    }
  }
  for (; i < n; ++i) {
    if (d[i] < best) best = d[i];
  }
  return best + 0.0;
}

__attribute__((target("avx512f"))) inline __m512i avx512_iota(long long o) {
  return _mm512_set_epi64(o + 7, o + 6, o + 5, o + 4, o + 3, o + 2, o + 1, o);
}

template <bool kMax>
__attribute__((target("avx512f"))) std::size_t avx512_argextreme(
    const double* d, std::size_t n) {
  assert(n > 0);
  std::size_t i = 0;
  std::size_t arg = 0;
  if (n >= 64) {
    __m512d best[4];
    __m512i best_idx[4];
    __m512i idx[4];
    const __m512i step = _mm512_set1_epi64(32);
    for (int s = 0; s < 4; ++s) {
      best[s] = _mm512_loadu_pd(d + 8 * s);
      best_idx[s] = avx512_iota(8 * s);
      idx[s] = _mm512_add_epi64(best_idx[s], step);
    }
    for (i = 32; i + 32 <= n; i += 32) {
      for (int s = 0; s < 4; ++s) {
        const __m512d v = _mm512_loadu_pd(d + i + 8 * s);
        const __mmask8 better =
            kMax ? _mm512_cmp_pd_mask(v, best[s], _CMP_GT_OQ)
                 : _mm512_cmp_pd_mask(v, best[s], _CMP_LT_OQ);
        best[s] = _mm512_mask_blend_pd(better, best[s], v);
        best_idx[s] = _mm512_mask_blend_epi64(better, best_idx[s], idx[s]);
        idx[s] = _mm512_add_epi64(idx[s], step);
      }
    }
    alignas(64) double v[32];
    alignas(64) std::uint64_t vi[32];
    for (int s = 0; s < 4; ++s) {
      _mm512_store_pd(v + 8 * s, best[s]);
      _mm512_store_si512(vi + 8 * s, best_idx[s]);
    }
    std::size_t lane = 0;
    for (std::size_t l = 1; l < 32; ++l) {
      const bool better = kMax ? v[l] > v[lane] : v[l] < v[lane];
      if (better || (v[l] == v[lane] && vi[l] < vi[lane])) lane = l;
    }
    arg = static_cast<std::size_t>(vi[lane]);
  } else if (n >= 16) {
    __m512d best = _mm512_loadu_pd(d);
    __m512i best_idx = avx512_iota(0);
    __m512i idx = avx512_iota(8);
    const __m512i step = _mm512_set1_epi64(8);
    for (i = 8; i + 8 <= n; i += 8) {
      const __m512d v = _mm512_loadu_pd(d + i);
      const __mmask8 better = kMax ? _mm512_cmp_pd_mask(v, best, _CMP_GT_OQ)
                                   : _mm512_cmp_pd_mask(v, best, _CMP_LT_OQ);
      best = _mm512_mask_blend_pd(better, best, v);
      best_idx = _mm512_mask_blend_epi64(better, best_idx, idx);
      idx = _mm512_add_epi64(idx, step);
    }
    alignas(64) double v[8];
    alignas(64) std::uint64_t vi[8];
    _mm512_store_pd(v, best);
    _mm512_store_si512(vi, best_idx);
    std::size_t lane = 0;
    for (std::size_t l = 1; l < 8; ++l) {
      const bool better = kMax ? v[l] > v[lane] : v[l] < v[lane];
      if (better || (v[l] == v[lane] && vi[l] < vi[lane])) lane = l;
    }
    arg = static_cast<std::size_t>(vi[lane]);
  }
  // Tail indices are all larger than any vector-phase index, so the strict
  // compare alone preserves the tie-break.
  for (; i < n; ++i) {
    const bool better = kMax ? d[i] > d[arg] : d[i] < d[arg];
    if (better) arg = i;
  }
  return arg;
}

__attribute__((target("avx512f"))) std::size_t avx512_argmax(const double* d,
                                                             std::size_t n) {
  return avx512_argextreme<true>(d, n);
}

__attribute__((target("avx512f"))) std::size_t avx512_argmin(const double* d,
                                                             std::size_t n) {
  return avx512_argextreme<false>(d, n);
}

__attribute__((target("avx512f"))) MinScan avx512_min_plus(const double* a,
                                                           const double* b,
                                                           std::size_t n) {
  assert(n > 0);
  std::size_t i = 0;
  MinScan r{a[0] + b[0], 0};
  if (n >= 64) {
    __m512d best[4];
    __m512i best_idx[4];
    __m512i idx[4];
    const __m512i step = _mm512_set1_epi64(32);
    for (int s = 0; s < 4; ++s) {
      best[s] = _mm512_add_pd(_mm512_loadu_pd(a + 8 * s),
                              _mm512_loadu_pd(b + 8 * s));
      best_idx[s] = avx512_iota(8 * s);
      idx[s] = _mm512_add_epi64(best_idx[s], step);
    }
    for (i = 32; i + 32 <= n; i += 32) {
      for (int s = 0; s < 4; ++s) {
        const __m512d c = _mm512_add_pd(_mm512_loadu_pd(a + i + 8 * s),
                                        _mm512_loadu_pd(b + i + 8 * s));
        const __mmask8 lt = _mm512_cmp_pd_mask(c, best[s], _CMP_LT_OQ);
        best[s] = _mm512_mask_blend_pd(lt, best[s], c);
        best_idx[s] = _mm512_mask_blend_epi64(lt, best_idx[s], idx[s]);
        idx[s] = _mm512_add_epi64(idx[s], step);
      }
    }
    alignas(64) double v[32];
    alignas(64) std::uint64_t vi[32];
    for (int s = 0; s < 4; ++s) {
      _mm512_store_pd(v + 8 * s, best[s]);
      _mm512_store_si512(vi + 8 * s, best_idx[s]);
    }
    std::size_t lane = 0;
    for (std::size_t l = 1; l < 32; ++l) {
      if (v[l] < v[lane] || (v[l] == v[lane] && vi[l] < vi[lane])) lane = l;
    }
    r = {v[lane], static_cast<std::size_t>(vi[lane])};
  } else if (n >= 16) {
    __m512d best = _mm512_add_pd(_mm512_loadu_pd(a), _mm512_loadu_pd(b));
    __m512i best_idx = avx512_iota(0);
    __m512i idx = avx512_iota(8);
    const __m512i step = _mm512_set1_epi64(8);
    for (i = 8; i + 8 <= n; i += 8) {
      const __m512d c =
          _mm512_add_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
      const __mmask8 lt = _mm512_cmp_pd_mask(c, best, _CMP_LT_OQ);
      best = _mm512_mask_blend_pd(lt, best, c);
      best_idx = _mm512_mask_blend_epi64(lt, best_idx, idx);
      idx = _mm512_add_epi64(idx, step);
    }
    alignas(64) double v[8];
    alignas(64) std::uint64_t vi[8];
    _mm512_store_pd(v, best);
    _mm512_store_si512(vi, best_idx);
    std::size_t lane = 0;
    for (std::size_t l = 1; l < 8; ++l) {
      if (v[l] < v[lane] || (v[l] == v[lane] && vi[l] < vi[lane])) lane = l;
    }
    r = {v[lane], static_cast<std::size_t>(vi[lane])};
  }
  for (; i < n; ++i) {
    const double c = a[i] + b[i];
    if (c < r.value) r = {c, i};
  }
  return r;
}

__attribute__((target("avx512f"))) void avx512_scale_inplace(double* d,
                                                             std::size_t n,
                                                             double factor) {
  const __m512d f = _mm512_set1_pd(factor);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(d + i, _mm512_mul_pd(_mm512_loadu_pd(d + i), f));
  }
  for (; i < n; ++i) d[i] *= factor;
}

// The AVX2 rank count and argmax, 8 entries per block. On the block's own
// entries a compare mask picks LE under the lanes after j and LT under the
// rest; a masked add bumps the counted lanes' ranks.
__attribute__((target("avx512f"))) std::size_t avx512_lightest_mask(
    const double* d, std::size_t n, std::size_t k, std::uint64_t* words) {
  if (n > 64) return scalar_lightest_mask(d, n, k, words);
  if (n == 0) return 0;
  const __m512d neg_inf =
      _mm512_set1_pd(-std::numeric_limits<double>::infinity());
  __m512d top = neg_inf;
  for (std::size_t b = 0; b < n; b += 8) {
    const auto valid =
        static_cast<__mmask8>((1u << std::min<std::size_t>(8, n - b)) - 1);
    top = _mm512_max_pd(top, _mm512_mask_loadu_pd(neg_inf, valid, d + b));
  }
  top = _mm512_set1_pd(_mm512_reduce_max_pd(top));
  const __m512i kv = _mm512_set1_epi64(static_cast<long long>(std::min(k, n)));
  const __m512i one = _mm512_set1_epi64(1);
  std::uint64_t bits = 0;
  std::uint64_t at_top = 0;
  for (std::size_t b = 0; b < n; b += 8) {
    const std::size_t lanes = std::min<std::size_t>(8, n - b);
    const auto valid = static_cast<__mmask8>((1u << lanes) - 1);
    const __m512d vm = _mm512_mask_loadu_pd(neg_inf, valid, d + b);
    at_top |= std::uint64_t{static_cast<std::uint8_t>(
                  _mm512_mask_cmp_pd_mask(valid, vm, top, _CMP_EQ_OQ))}
              << b;
    __m512i rank = _mm512_setzero_si512();
    for (std::size_t j = 0; j < b; ++j) {
      const __mmask8 le =
          _mm512_cmp_pd_mask(_mm512_set1_pd(d[j]), vm, _CMP_LE_OQ);
      rank = _mm512_mask_add_epi64(rank, le, rank, one);
    }
    for (std::size_t j = b; j < b + lanes; ++j) {
      const __m512d dj = _mm512_set1_pd(d[j]);
      const auto after = static_cast<__mmask8>(0xFEu << (j - b));
      const __mmask8 counted =
          _mm512_mask_cmp_pd_mask(after, dj, vm, _CMP_LE_OQ) |
          _mm512_mask_cmp_pd_mask(static_cast<__mmask8>(~after), dj, vm,
                                  _CMP_LT_OQ);
      rank = _mm512_mask_add_epi64(rank, counted, rank, one);
    }
    for (std::size_t j = b + lanes; j < n; ++j) {
      const __mmask8 lt =
          _mm512_cmp_pd_mask(_mm512_set1_pd(d[j]), vm, _CMP_LT_OQ);
      rank = _mm512_mask_add_epi64(rank, lt, rank, one);
    }
    bits |= std::uint64_t{static_cast<std::uint8_t>(
                _mm512_cmplt_epi64_mask(rank, kv) & valid)}
            << b;
  }
  words[0] = bits;
  return static_cast<std::size_t>(std::countr_zero(at_top));
}

// In-word select by BMI2: pdep deposits the single bit 1 << k onto the k-th
// set bit of the word. AVX-512 CPUs run pdep in one uop; some AVX2-only
// CPUs microcode it, so the AVX2 tier keeps the clear-lowest loop.
__attribute__((target("popcnt,bmi2"), always_inline)) inline std::size_t
pdep_select(const std::uint64_t* words, std::size_t k) {
  const std::size_t w = select_word(words, k);
  return 64 * w + static_cast<std::size_t>(std::countr_zero(
                      _pdep_u64(std::uint64_t{1} << k, words[w])));
}

__attribute__((target("popcnt,bmi2"))) std::size_t avx512_select_bit(
    const std::uint64_t* words, std::size_t k) {
  return pdep_select(words, k);
}

// The gene masks, 64 genes per word as two 32-lane compares. The loads of
// a partial last word are masked to the genes below n, so no element past
// n is read.
inline std::uint64_t live_genes(std::size_t left) {
  return left >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << left) - 1;
}

__attribute__((target("avx512f,avx512bw,popcnt"))) std::size_t
avx512_eq_mask_u16(const std::uint16_t* d, std::size_t n, std::uint16_t value,
                   std::uint64_t* words) {
  const __m512i v = _mm512_set1_epi16(static_cast<short>(value));
  std::size_t count = 0;
  for (std::size_t w = 0; 64 * w < n; ++w) {
    const std::uint64_t live = live_genes(n - 64 * w);
    std::uint64_t bits = 0;
    for (std::size_t half = 0; half < 2; ++half) {
      const auto k = static_cast<__mmask32>(live >> (32 * half));
      const std::uint16_t* p = d + 64 * w + 32 * half;
      bits |= std::uint64_t{_mm512_mask_cmpeq_epi16_mask(
                  k, _mm512_maskz_loadu_epi16(k, p), v)}
              << (32 * half);
    }
    words[w] = bits;
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  return count;
}

__attribute__((target("avx512f,avx512bw,popcnt"))) std::size_t
avx512_ne_mask_u16(const std::uint16_t* a, const std::uint16_t* b,
                   std::size_t n, std::uint64_t* words) {
  std::size_t count = 0;
  for (std::size_t w = 0; 64 * w < n; ++w) {
    const std::uint64_t live = live_genes(n - 64 * w);
    std::uint64_t bits = 0;
    for (std::size_t half = 0; half < 2; ++half) {
      const auto k = static_cast<__mmask32>(live >> (32 * half));
      const std::size_t i = 64 * w + 32 * half;
      bits |= std::uint64_t{_mm512_mask_cmpneq_epi16_mask(
                  k, _mm512_maskz_loadu_epi16(k, a + i),
                  _mm512_maskz_loadu_epi16(k, b + i))}
              << (32 * half);
    }
    words[w] = bits;
    count += static_cast<std::size_t>(std::popcount(bits));
  }
  return count;
}

// avx512_lightest_mask on the register blocks of avx512_h2ll_regs: the
// argmax (returned, with the makespan broadcast into `top`) and the rank
// count, each d[j] broadcast from its block by a lane permute instead of a
// load. Block b against entry j of block jb: every lane of a later block
// follows j (ties count), every lane of an earlier block precedes it (ties
// do not), and j's own block picks per lane.
template <std::size_t NB>
__attribute__((target("avx512f"), always_inline)) inline std::size_t
avx512_lightest_regs(const __m512d (&ct)[NB], const __mmask8 (&valid)[NB],
                     std::size_t machines, std::size_t k, __mmask8 (&cand)[NB],
                     __m512d& top) {
  const __m512d neg_inf =
      _mm512_set1_pd(-std::numeric_limits<double>::infinity());
  __m512d high = neg_inf;
  for (std::size_t b = 0; b < NB; ++b) {
    high = _mm512_max_pd(high, _mm512_mask_blend_pd(valid[b], neg_inf, ct[b]));
  }
  top = _mm512_set1_pd(_mm512_reduce_max_pd(high));
  std::uint32_t at_top = 0;
  for (std::size_t b = 0; b < NB; ++b) {
    at_top |= std::uint32_t{_mm512_mask_cmp_pd_mask(valid[b], ct[b], top,
                                                    _CMP_EQ_OQ)}
              << (8 * b);
  }
  const __m512i one = _mm512_set1_epi64(1);
  __m512i rank[NB];
  for (std::size_t b = 0; b < NB; ++b) rank[b] = _mm512_setzero_si512();
  for (std::size_t jb = 0; jb < NB; ++jb) {
    const std::size_t lanes = std::min<std::size_t>(8, machines - 8 * jb);
    for (std::size_t l = 0; l < lanes; ++l) {
      const __m512d dj = _mm512_permutexvar_pd(
          _mm512_set1_epi64(static_cast<long long>(l)), ct[jb]);
      for (std::size_t b = 0; b < NB; ++b) {
        __mmask8 counted;
        if (b < jb) {
          counted = _mm512_cmp_pd_mask(dj, ct[b], _CMP_LT_OQ);
        } else if (b > jb) {
          counted = _mm512_cmp_pd_mask(dj, ct[b], _CMP_LE_OQ);
        } else {
          const auto after = static_cast<__mmask8>(0xFEu << l);
          counted = _mm512_mask_cmp_pd_mask(after, dj, ct[b], _CMP_LE_OQ) |
                    _mm512_mask_cmp_pd_mask(static_cast<__mmask8>(~after), dj,
                                            ct[b], _CMP_LT_OQ);
        }
        rank[b] = _mm512_mask_add_epi64(rank[b], counted, rank[b], one);
      }
    }
  }
  const __m512i kv =
      _mm512_set1_epi64(static_cast<long long>(std::min(k, machines)));
  for (std::size_t b = 0; b < NB; ++b) {
    cand[b] = _mm512_mask_cmplt_epi64_mask(valid[b], rank[b], kv);
  }
  return static_cast<std::size_t>(std::countr_zero(at_top));
}

// avx2_h2ll_regs with 8 lanes per block, so two blocks cover 16 machines.
// The lane masks are mask registers: the row load, the candidate compare
// and the winning-lane min are masked, and a move is one masked subtract
// and one masked add.
template <std::size_t NB>
__attribute__((target("avx512f,avx512bw,popcnt,bmi2"))) void
avx512_h2ll_regs(double* completions, std::uint16_t* genes, const double* rows,
                 std::size_t tasks, std::size_t machines, std::size_t k,
                 std::size_t passes, Xoshiro256& rng) {
  const __m512d inf = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __mmask8 valid[NB];
  __m512d ct[NB];
  for (std::size_t b = 0; b < NB; ++b) {
    valid[b] = static_cast<__mmask8>(
        (1u << std::min<std::size_t>(8, machines - 8 * b)) - 1);
    ct[b] = _mm512_maskz_loadu_pd(valid[b], completions + 8 * b);
  }
  std::uint64_t* task_words = h2ll_task_words(tasks);
  __mmask8 cand[NB];
  __m512d top = inf;  // the makespan, broadcast
  std::size_t most_loaded = machines;  // sentinel: no state yet
  std::size_t count = 0;
  std::size_t moved = tasks;
  bool stale = true;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    if (stale) {
      const std::size_t loaded =
          avx512_lightest_regs<NB>(ct, valid, machines, k, cand, top);
      const std::uint32_t loaded_bit = std::uint32_t{1} << loaded;
      for (std::size_t b = 0; b < NB; ++b) {
        cand[b] = static_cast<__mmask8>(cand[b] & ~(loaded_bit >> (8 * b)));
      }
      count = refresh_task_mask(avx512_eq_mask_u16, genes, tasks, loaded,
                                most_loaded, moved, count, task_words);
      if (count == 0) break;
      stale = false;
    }
    const std::size_t task = pdep_select(task_words, rng.index(count));
    const double* row = rows + task * machines;
    __m512d r[NB];
    __m512d score[NB];
    __mmask8 win[NB];
    unsigned any = 0;
    for (std::size_t b = 0; b < NB; ++b) {
      r[b] = _mm512_maskz_loadu_pd(valid[b], row + 8 * b);
      score[b] = _mm512_add_pd(ct[b], r[b]);
      win[b] = _mm512_mask_cmp_pd_mask(cand[b], score[b], top, _CMP_LT_OQ);
      any |= win[b];
    }
    if (any == 0) continue;
    __m512d low = inf;
    for (std::size_t b = 0; b < NB; ++b) {
      low = _mm512_min_pd(low, _mm512_mask_blend_pd(win[b], inf, score[b]));
    }
    low = _mm512_set1_pd(_mm512_reduce_min_pd(low));
    std::uint32_t at_low = 0;
    for (std::size_t b = 0; b < NB; ++b) {
      at_low |= std::uint32_t{_mm512_mask_cmp_pd_mask(win[b], score[b], low,
                                                      _CMP_EQ_OQ)}
                << (8 * b);
    }
    const auto best = static_cast<std::size_t>(std::countr_zero(at_low));
    const std::uint32_t from = std::uint32_t{1} << most_loaded;
    const std::uint32_t to = std::uint32_t{1} << best;
    for (std::size_t b = 0; b < NB; ++b) {
      ct[b] = _mm512_mask_sub_pd(ct[b], static_cast<__mmask8>(from >> (8 * b)),
                                 ct[b], r[b]);
      ct[b] = _mm512_mask_add_pd(ct[b], static_cast<__mmask8>(to >> (8 * b)),
                                 ct[b], r[b]);
    }
    genes[task] = static_cast<std::uint16_t>(best);
    moved = task;
    stale = true;
  }
  for (std::size_t b = 0; b < NB; ++b) {
    _mm512_mask_storeu_pd(completions + 8 * b, valid[b], ct[b]);
  }
}

__attribute__((target("avx512f,avx512bw,popcnt,bmi2"))) void avx512_h2ll(
    double* ct, std::uint16_t* genes, const double* rows, std::size_t tasks,
    std::size_t machines, std::size_t k, std::size_t passes, Xoshiro256& rng) {
  if (machines <= 8) {
    return avx512_h2ll_regs<1>(ct, genes, rows, tasks, machines, k, passes,
                               rng);
  }
  if (machines <= 16) {
    return avx512_h2ll_regs<2>(ct, genes, rows, tasks, machines, k, passes,
                               rng);
  }
  h2ll_pass_loop(avx512_lightest_mask, avx512_eq_mask_u16, avx512_select_bit,
                 ct, genes, rows, tasks, machines, k, passes, rng);
}

constexpr Dispatch kAvx512{avx512_max_value,     avx512_min_value,
                           avx512_argmax,        avx512_argmin,
                           avx512_min_plus,      avx512_scale_inplace,
                           avx2_hash_block,      avx512_eq_mask_u16,
                           avx512_lightest_mask, avx512_select_bit,
                           avx512_ne_mask_u16,   avx512_h2ll,
                           "avx512"};

#endif  // PACGA_KERNELS_X86_AVX2

const Dispatch* resolve() {
  const char* error = nullptr;
  const Dispatch* d = detail::resolve_tables(
      std::getenv("PACGA_FORCE_KERNELS"), detail::avx2_supported(),
      detail::avx512_supported(), &error);
  if (d == nullptr) {
    // A forced tier the host cannot honor must not degrade silently: the
    // caller asked for a specific code path (bit-identity audit, CI matrix
    // leg) and running any other would void what the run claims to prove.
    std::fprintf(stderr, "pacga: %s\n", error);
    std::abort();
  }
  return d;
}

}  // namespace

const Dispatch& active() noexcept {
  // Resolved once, on first use; thread-safe by the magic-static rule.
  static const Dispatch* const d = resolve();
  return *d;
}

const char* active_dispatch() noexcept { return active().name; }

namespace detail {

bool avx2_supported() noexcept {
#if PACGA_KERNELS_X86_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
#else
  return false;
#endif
}

bool avx512_supported() noexcept {
#if PACGA_KERNELS_X86_AVX2
  // The AVX2 table's features are required too: the 512-bit table reuses
  // its hash_block. The gene masks add avx512bw and select_bit adds bmi2
  // (every AVX-512 server CPU since Skylake-SP has both; the check guards
  // against feature-masked environments).
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") && avx2_supported() &&
         __builtin_cpu_supports("bmi2");
#else
  return false;
#endif
}

const Dispatch& scalar_table() noexcept { return kScalar; }

const Dispatch& avx2_table() noexcept {
#if PACGA_KERNELS_X86_AVX2
  return kAvx2;
#else
  return kScalar;
#endif
}

const Dispatch& avx512_table() noexcept {
#if PACGA_KERNELS_X86_AVX2
  return kAvx512;
#else
  return kScalar;
#endif
}

const Dispatch* resolve_tables(const char* force_kernels, bool have_avx2,
                               bool have_avx512, const char** error) noexcept {
  *error = nullptr;
  if (force_kernels != nullptr && *force_kernels != '\0') {
    const std::string_view want(force_kernels);
    if (want == "scalar") return &scalar_table();
    if (want == "avx2") {
      if (have_avx2) return &avx2_table();
      *error = "PACGA_FORCE_KERNELS=avx2 refused: no AVX2 support on this "
               "CPU/build";
      return nullptr;
    }
    if (want == "avx512") {
      if (have_avx512) return &avx512_table();
      *error = "PACGA_FORCE_KERNELS=avx512 refused: no AVX-512 support on "
               "this CPU/build";
      return nullptr;
    }
    *error = "unrecognized PACGA_FORCE_KERNELS value (want scalar|avx2|"
             "avx512)";
    return nullptr;
  }
  if (have_avx512) return &avx512_table();
  if (have_avx2) return &avx2_table();
  return &scalar_table();
}

}  // namespace detail

}  // namespace pacga::support::kernels
