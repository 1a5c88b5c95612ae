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

// The vector tiers compile under `#pragma GCC target`, which clang does not
// implement: a clang build, like a non-x86 one, runs the scalar tier.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define PACGA_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace pacga::support::kernels {

namespace {

// ---- portable scalar path ------------------------------------------------
//
// These loops ARE the semantic definition: in-order scans with strict
// comparisons (lowest index wins ties). The vector tiers reproduce them
// bit-for-bit; test_kernels holds every tier to that contract.

// max_value/min_value return the extreme VALUE canonicalized by `+ 0.0`:
// the only doubles that compare equal with different bit patterns are
// signed zeros (NaN is excluded by contract), and -0.0 + 0.0 == +0.0, so
// the result is bit-identical across paths no matter WHICH of several
// compare-equal extremes a reduction happens to select. That freedom is
// what lets the vector tiers use raw max_pd/min_pd reductions — the fastest
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

// ---- vector tiers ----------------------------------------------------------
//
// Each vector tier is a namespace of lane ops, always_inline wrappers over
// one tier's intrinsics, followed by kernels_body.inc, the one source of
// every vector algorithm. Both sit inside the tier's `#pragma GCC target`
// region, so the body compiles once per tier: 4 lanes of AVX2 and 8 lanes
// of AVX-512. Every header is included above, before the first region, so
// that no template from a header is defined under a vector target.

#if PACGA_KERNELS_X86

#define PACGA_ALWAYS_INLINE __attribute__((always_inline)) inline

#pragma GCC push_options
#pragma GCC target("avx2,popcnt")

namespace avx2 {

constexpr std::size_t kLanes = 4;
using Vd = __m256d;
using Vi = __m256i;
using Mask = __m256d;  // all-ones lanes

PACGA_ALWAYS_INLINE Vd loadu(const double* p) { return _mm256_loadu_pd(p); }
PACGA_ALWAYS_INLINE void storeu(double* p, Vd v) { _mm256_storeu_pd(p, v); }
PACGA_ALWAYS_INLINE void store(double* p, Vd v) { _mm256_store_pd(p, v); }
PACGA_ALWAYS_INLINE void store(std::uint64_t* p, Vi v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
}
PACGA_ALWAYS_INLINE Vd splat(double x) { return _mm256_set1_pd(x); }
PACGA_ALWAYS_INLINE Vi splat_i(std::size_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}
PACGA_ALWAYS_INLINE Vi iota(std::size_t o) {
  const auto b = static_cast<long long>(o);
  return _mm256_setr_epi64x(b, b + 1, b + 2, b + 3);
}
PACGA_ALWAYS_INLINE Vi zero_i() { return _mm256_setzero_si256(); }
PACGA_ALWAYS_INLINE Vd add(Vd a, Vd b) { return _mm256_add_pd(a, b); }
PACGA_ALWAYS_INLINE Vi add(Vi a, Vi b) { return _mm256_add_epi64(a, b); }
PACGA_ALWAYS_INLINE Vd mul(Vd a, Vd b) { return _mm256_mul_pd(a, b); }
PACGA_ALWAYS_INLINE Vd max(Vd a, Vd b) { return _mm256_max_pd(a, b); }
PACGA_ALWAYS_INLINE Vd min(Vd a, Vd b) { return _mm256_min_pd(a, b); }

// Compares, plain and restricted to the lanes of m.
template <int kPred>
PACGA_ALWAYS_INLINE Mask cmp(Vd a, Vd b) {
  return _mm256_cmp_pd(a, b, kPred);
}
template <int kPred>
PACGA_ALWAYS_INLINE Mask cmp_in(Mask m, Vd a, Vd b) {
  return _mm256_and_pd(_mm256_cmp_pd(a, b, kPred), m);
}
// a where m is clear, b where it is set.
PACGA_ALWAYS_INLINE Vd blend(Mask m, Vd a, Vd b) {
  return _mm256_blendv_pd(a, b, m);
}
PACGA_ALWAYS_INLINE Vi blend(Mask m, Vi a, Vi b) {
  return _mm256_blendv_epi8(a, b, _mm256_castpd_si256(m));
}
// a - b and a + b in the lanes of m, a elsewhere.
PACGA_ALWAYS_INLINE Vd sub_in(Mask m, Vd a, Vd b) {
  return _mm256_blendv_pd(a, _mm256_sub_pd(a, b), m);
}
PACGA_ALWAYS_INLINE Vd add_in(Mask m, Vd a, Vd b) {
  return _mm256_blendv_pd(a, _mm256_add_pd(a, b), m);
}

// The lanes below `left`, and the lane of block b that holds entry m.
PACGA_ALWAYS_INLINE Mask first_lanes(std::size_t left) {
  return _mm256_castsi256_pd(_mm256_cmpgt_epi64(splat_i(left), iota(0)));
}
PACGA_ALWAYS_INLINE Mask lane_of(std::size_t b, std::size_t m) {
  return _mm256_castsi256_pd(_mm256_cmpeq_epi64(iota(kLanes * b), splat_i(m)));
}
PACGA_ALWAYS_INLINE Mask no_lanes() { return _mm256_setzero_pd(); }
PACGA_ALWAYS_INLINE Mask mask_or(Mask a, Mask b) { return _mm256_or_pd(a, b); }
// b without the lanes of a.
PACGA_ALWAYS_INLINE Mask mask_andnot(Mask a, Mask b) {
  return _mm256_andnot_pd(a, b);
}
PACGA_ALWAYS_INLINE unsigned to_bits(Mask m) {
  return static_cast<unsigned>(_mm256_movemask_pd(m));
}

// Masked loads read nothing outside m: load_z zeroes the other lanes,
// load_or fills them from `fill`.
PACGA_ALWAYS_INLINE Vd load_z(const double* p, Mask m) {
  return _mm256_maskload_pd(p, _mm256_castpd_si256(m));
}
PACGA_ALWAYS_INLINE Vd load_or(const double* p, Mask m, Vd fill) {
  return _mm256_blendv_pd(fill, load_z(p, m), m);
}
PACGA_ALWAYS_INLINE void store_in(double* p, Mask m, Vd v) {
  _mm256_maskstore_pd(p, _mm256_castpd_si256(m), v);
}

// The largest (smallest) lane, broadcast to every lane.
PACGA_ALWAYS_INLINE Vd bcast_max(Vd v) {
  v = _mm256_max_pd(v, _mm256_permute2f128_pd(v, v, 1));
  return _mm256_max_pd(v, _mm256_permute_pd(v, 0b0101));
}
PACGA_ALWAYS_INLINE Vd bcast_min(Vd v) {
  v = _mm256_min_pd(v, _mm256_permute2f128_pd(v, v, 1));
  return _mm256_min_pd(v, _mm256_permute_pd(v, 0b0101));
}
// Lane l broadcast: 32-bit permute indices 2l and 2l + 1 in every lane.
PACGA_ALWAYS_INLINE Vd bcast_lane(Vd v, std::size_t l) {
  const __m256i pick = _mm256_set1_epi64x(
      static_cast<long long>(((2 * l + 1) << 32) | (2 * l)));
  return _mm256_castps_pd(
      _mm256_permutevar8x32_ps(_mm256_castpd_ps(v), pick));
}

// The rank count: a counted lane is all-ones (-1), so subtracting the mask
// adds one to that lane's rank.
PACGA_ALWAYS_INLINE Vi tally(Vi rank, Mask counted) {
  return _mm256_sub_epi64(rank, _mm256_castpd_si256(counted));
}
// The lanes of m where a < b.
PACGA_ALWAYS_INLINE Mask lt_in(Mask m, Vi a, Vi b) {
  return _mm256_castsi256_pd(
      _mm256_and_si256(_mm256_cmpgt_epi64(b, a), _mm256_castpd_si256(m)));
}
// The rank count's own block against its lane l: the lanes after l count
// ties (LE), the others do not (LT).
PACGA_ALWAYS_INLINE Mask cmp_diag(Vd dj, Vd v, std::size_t l) {
  const Mask after =
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(iota(0), splat_i(l)));
  return _mm256_blendv_pd(cmp<_CMP_LT_OQ>(dj, v), cmp<_CMP_LE_OQ>(dj, v),
                          after);
}

// One 64-gene mask word of the genes from p on, `left` of them real. A
// whole word is four 16-lane compares, narrowed to bytes by packs (0xFFFF
// saturates to 0xFF); packs interleaves the 128-bit halves of its
// operands, so the 64-bit permute restores gene order before movemask
// reads one bit per gene. AVX2 has no masked 16-bit loads, so a partial
// last word takes the scalar body, which reads no gene past n.
PACGA_ALWAYS_INLINE __m256i load_u16(const std::uint16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
PACGA_ALWAYS_INLINE std::uint64_t bits32(__m256i lo, __m256i hi) {
  const __m256i bytes = _mm256_permute4x64_epi64(_mm256_packs_epi16(lo, hi),
                                                 _MM_SHUFFLE(3, 1, 2, 0));
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(bytes));
}
PACGA_ALWAYS_INLINE std::uint64_t eq_word(const std::uint16_t* p,
                                          std::size_t left,
                                          std::uint16_t value) {
  std::uint64_t bits = 0;
  if (left < 64) {
    scalar_eq_mask_u16(p, left, value, &bits);
    return bits;
  }
  const __m256i v = _mm256_set1_epi16(static_cast<short>(value));
  for (std::size_t half = 0; half < 2; ++half) {
    const std::uint16_t* q = p + 32 * half;
    bits |= bits32(_mm256_cmpeq_epi16(load_u16(q), v),
                   _mm256_cmpeq_epi16(load_u16(q + 16), v))
            << (32 * half);
  }
  return bits;
}
PACGA_ALWAYS_INLINE std::uint64_t ne_word(const std::uint16_t* a,
                                          const std::uint16_t* b,
                                          std::size_t left) {
  std::uint64_t bits = 0;
  if (left < 64) {
    scalar_ne_mask_u16(a, b, left, &bits);
    return bits;
  }
  for (std::size_t half = 0; half < 2; ++half) {
    const std::size_t i = 32 * half;
    bits |= bits32(_mm256_cmpeq_epi16(load_u16(a + i), load_u16(b + i)),
                   _mm256_cmpeq_epi16(load_u16(a + i + 16),
                                      load_u16(b + i + 16)))
            << (32 * half);
  }
  return ~bits;
}

// The clear-lowest-bit walk: some AVX2-only CPUs microcode pdep.
PACGA_ALWAYS_INLINE std::size_t nth_set_bit(const std::uint64_t* words,
                                            std::size_t k) {
  return select_walk(words, k);
}

#include "support/kernels_body.inc"

// hash_block is DEFINED as a 4-lane mix (see scalar_hash_block), so this is
// its one vector body; the AVX-512 table uses it too.
std::uint64_t hash_block(const double* d, std::size_t n, std::uint64_t seed) {
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

}  // namespace avx2

#pragma GCC pop_options

// AVX-512: avx512f, plus avx512bw for the 32-lane 16-bit gene compares and
// BMI2 for nth_set_bit's pdep. Compares produce mask registers, so every
// masked op is one instruction.
#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,popcnt,bmi2")

namespace avx512 {

constexpr std::size_t kLanes = 8;
using Vd = __m512d;
using Vi = __m512i;
using Mask = __mmask8;

PACGA_ALWAYS_INLINE Vd loadu(const double* p) { return _mm512_loadu_pd(p); }
PACGA_ALWAYS_INLINE void storeu(double* p, Vd v) { _mm512_storeu_pd(p, v); }
PACGA_ALWAYS_INLINE void store(double* p, Vd v) { _mm512_store_pd(p, v); }
PACGA_ALWAYS_INLINE void store(std::uint64_t* p, Vi v) {
  _mm512_store_si512(p, v);
}
PACGA_ALWAYS_INLINE Vd splat(double x) { return _mm512_set1_pd(x); }
PACGA_ALWAYS_INLINE Vi splat_i(std::size_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}
PACGA_ALWAYS_INLINE Vi iota(std::size_t o) {
  const auto b = static_cast<long long>(o);
  return _mm512_set_epi64(b + 7, b + 6, b + 5, b + 4, b + 3, b + 2, b + 1, b);
}
PACGA_ALWAYS_INLINE Vi zero_i() { return _mm512_setzero_si512(); }
PACGA_ALWAYS_INLINE Vd add(Vd a, Vd b) { return _mm512_add_pd(a, b); }
PACGA_ALWAYS_INLINE Vi add(Vi a, Vi b) { return _mm512_add_epi64(a, b); }
PACGA_ALWAYS_INLINE Vd mul(Vd a, Vd b) { return _mm512_mul_pd(a, b); }
PACGA_ALWAYS_INLINE Vd max(Vd a, Vd b) { return _mm512_max_pd(a, b); }
PACGA_ALWAYS_INLINE Vd min(Vd a, Vd b) { return _mm512_min_pd(a, b); }

template <int kPred>
PACGA_ALWAYS_INLINE Mask cmp(Vd a, Vd b) {
  return _mm512_cmp_pd_mask(a, b, kPred);
}
template <int kPred>
PACGA_ALWAYS_INLINE Mask cmp_in(Mask m, Vd a, Vd b) {
  return _mm512_mask_cmp_pd_mask(m, a, b, kPred);
}
PACGA_ALWAYS_INLINE Vd blend(Mask m, Vd a, Vd b) {
  return _mm512_mask_blend_pd(m, a, b);
}
PACGA_ALWAYS_INLINE Vi blend(Mask m, Vi a, Vi b) {
  return _mm512_mask_blend_epi64(m, a, b);
}
PACGA_ALWAYS_INLINE Vd sub_in(Mask m, Vd a, Vd b) {
  return _mm512_mask_sub_pd(a, m, a, b);
}
PACGA_ALWAYS_INLINE Vd add_in(Mask m, Vd a, Vd b) {
  return _mm512_mask_add_pd(a, m, a, b);
}

PACGA_ALWAYS_INLINE Mask first_lanes(std::size_t left) {
  return static_cast<Mask>((1u << std::min(kLanes, left)) - 1);
}
// Requires m < 32 (the register bodies hold at most 16 entries).
PACGA_ALWAYS_INLINE Mask lane_of(std::size_t b, std::size_t m) {
  return static_cast<Mask>((std::uint32_t{1} << m) >> (kLanes * b));
}
PACGA_ALWAYS_INLINE Mask no_lanes() { return 0; }
PACGA_ALWAYS_INLINE Mask mask_or(Mask a, Mask b) {
  return static_cast<Mask>(a | b);
}
PACGA_ALWAYS_INLINE Mask mask_andnot(Mask a, Mask b) {
  return static_cast<Mask>(~a & b);
}
PACGA_ALWAYS_INLINE unsigned to_bits(Mask m) { return m; }

PACGA_ALWAYS_INLINE Vd load_z(const double* p, Mask m) {
  return _mm512_maskz_loadu_pd(m, p);
}
PACGA_ALWAYS_INLINE Vd load_or(const double* p, Mask m, Vd fill) {
  return _mm512_mask_loadu_pd(fill, m, p);
}
PACGA_ALWAYS_INLINE void store_in(double* p, Mask m, Vd v) {
  _mm512_mask_storeu_pd(p, m, v);
}

PACGA_ALWAYS_INLINE Vd bcast_max(Vd v) {
  return _mm512_set1_pd(_mm512_reduce_max_pd(v));
}
PACGA_ALWAYS_INLINE Vd bcast_min(Vd v) {
  return _mm512_set1_pd(_mm512_reduce_min_pd(v));
}
PACGA_ALWAYS_INLINE Vd bcast_lane(Vd v, std::size_t l) {
  return _mm512_permutexvar_pd(splat_i(l), v);
}

PACGA_ALWAYS_INLINE Vi tally(Vi rank, Mask counted) {
  return _mm512_mask_add_epi64(rank, counted, rank, _mm512_set1_epi64(1));
}
PACGA_ALWAYS_INLINE Mask lt_in(Mask m, Vi a, Vi b) {
  return _mm512_mask_cmplt_epi64_mask(m, a, b);
}
PACGA_ALWAYS_INLINE Mask cmp_diag(Vd dj, Vd v, std::size_t l) {
  const auto after = static_cast<Mask>(0xFEu << l);
  return _mm512_mask_cmp_pd_mask(after, dj, v, _CMP_LE_OQ) |
         _mm512_mask_cmp_pd_mask(static_cast<Mask>(~after), dj, v,
                                 _CMP_LT_OQ);
}

// One 64-gene mask word as two 32-lane compares. The loads of a partial
// last word are masked to the genes below n, so no gene past n is read.
PACGA_ALWAYS_INLINE std::uint64_t live_genes(std::size_t left) {
  return left >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << left) - 1;
}
PACGA_ALWAYS_INLINE std::uint64_t eq_word(const std::uint16_t* p,
                                          std::size_t left,
                                          std::uint16_t value) {
  const __m512i v = _mm512_set1_epi16(static_cast<short>(value));
  const std::uint64_t live = live_genes(left);
  std::uint64_t bits = 0;
  for (std::size_t half = 0; half < 2; ++half) {
    const auto k = static_cast<__mmask32>(live >> (32 * half));
    bits |= std::uint64_t{_mm512_mask_cmpeq_epi16_mask(
                k, _mm512_maskz_loadu_epi16(k, p + 32 * half), v)}
            << (32 * half);
  }
  return bits;
}
PACGA_ALWAYS_INLINE std::uint64_t ne_word(const std::uint16_t* a,
                                          const std::uint16_t* b,
                                          std::size_t left) {
  const std::uint64_t live = live_genes(left);
  std::uint64_t bits = 0;
  for (std::size_t half = 0; half < 2; ++half) {
    const auto k = static_cast<__mmask32>(live >> (32 * half));
    const std::size_t i = 32 * half;
    bits |= std::uint64_t{_mm512_mask_cmpneq_epi16_mask(
                k, _mm512_maskz_loadu_epi16(k, a + i),
                _mm512_maskz_loadu_epi16(k, b + i))}
            << (32 * half);
  }
  return bits;
}

// In-word select by BMI2: pdep deposits the single bit 1 << k onto the
// k-th set bit of the word.
PACGA_ALWAYS_INLINE std::size_t nth_set_bit(const std::uint64_t* words,
                                            std::size_t k) {
  const std::size_t w = select_word(words, k);
  return 64 * w + static_cast<std::size_t>(std::countr_zero(
                      _pdep_u64(std::uint64_t{1} << k, words[w])));
}

#include "support/kernels_body.inc"

}  // namespace avx512

#pragma GCC pop_options

#undef PACGA_ALWAYS_INLINE

constexpr Dispatch kAvx2{avx2::max_value,     avx2::min_value,
                         avx2::argmax,        avx2::argmin,
                         avx2::min_plus,      avx2::scale_inplace,
                         avx2::hash_block,    avx2::eq_mask_u16,
                         avx2::lightest_mask, avx2::select_bit,
                         avx2::ne_mask_u16,   avx2::h2ll,
                         "avx2"};

constexpr Dispatch kAvx512{avx512::max_value,     avx512::min_value,
                           avx512::argmax,        avx512::argmin,
                           avx512::min_plus,      avx512::scale_inplace,
                           avx2::hash_block,      avx512::eq_mask_u16,
                           avx512::lightest_mask, avx512::select_bit,
                           avx512::ne_mask_u16,   avx512::h2ll,
                           "avx512"};

#endif  // PACGA_KERNELS_X86

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
#if PACGA_KERNELS_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
#else
  return false;
#endif
}

bool avx512_supported() noexcept {
#if PACGA_KERNELS_X86
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
#if PACGA_KERNELS_X86
  return kAvx2;
#else
  return kScalar;
#endif
}

const Dispatch& avx512_table() noexcept {
#if PACGA_KERNELS_X86
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
