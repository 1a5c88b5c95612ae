// Runtime-dispatched SIMD kernels — the vector layer under the whole solver
// stack.
//
// Every hot reduction in the repo (makespan max-scans, argmax/argmin over
// machine completions, the fused `ct[m] + etc_row[m]` min-scan at the heart
// of Min-min / Sufferage / Tabu-hop candidate selection, machine-column
// scaling, content fingerprinting, the gene match mask and set-bit select
// behind the H2LL task pick, the two-parent difference mask behind
// crossover and the Hamming distance, and a whole H2LL local-search call)
// funnels through this header.
// Three tiers — AVX-512 (8-wide doubles), AVX2 (4-wide), and a portable
// scalar path — are resolved ONCE at startup from CPU features;
// `PACGA_FORCE_KERNELS=scalar|avx2|avx512` pins a specific tier for testing
// (refusing tiers the CPU cannot run). The two vector tiers are one source,
// kernels_body.inc, compiled once per tier over that tier's lane ops (see
// kernels.cpp); they are built by GCC only, so a clang or non-x86 build
// runs the scalar tier.
//
// Semantics are PINNED and dispatch-independent:
//   * argmax/argmin and the fused min scans break ties toward the LOWEST
//     index (the strict-comparison in-order-scan convention every caller's
//     golden determinism already depends on);
//   * all floating-point results are BIT-IDENTICAL across paths: the kernels
//     only select, compare, add element-wise, and multiply element-wise —
//     no reassociated sums, no FMA contraction — so a schedule computed
//     under AVX2 is byte-for-byte the schedule computed under the scalar
//     path (test_kernels proves this over adversarial inputs); max_value /
//     min_value canonicalize -0.0 to +0.0 on return, closing the one
//     representable gap (signed-zero ties) between reduction orders;
//   * hash_block is defined as a fixed 4-lane interleaved mix, so the
//     scalar path reproduces the vector path's value exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "support/rng.hpp"

namespace pacga::support::kernels {

/// Result of a fused scan: the winning value and its (lowest, on ties)
/// index.
struct MinScan {
  double value;
  std::size_t index;
};

/// The resolved kernel table. All function pointers are non-null; `name` is
/// "avx512", "avx2" or "scalar". Scans require n >= 1 unless noted.
struct Dispatch {
  double (*max_value)(const double* data, std::size_t n);
  double (*min_value)(const double* data, std::size_t n);
  std::size_t (*argmax)(const double* data, std::size_t n);
  std::size_t (*argmin)(const double* data, std::size_t n);
  /// min over i of a[i] + b[i], lowest index on ties. The element-wise sum
  /// is computed exactly as the scalar loop computes it, so the winning
  /// value is bit-identical across paths.
  MinScan (*min_plus)(const double* a, const double* b, std::size_t n);
  void (*scale_inplace)(double* data, std::size_t n, double factor);
  /// 4-lane interleaved content hash (lane l mixes elements l, l+4, ...).
  /// Stable across platforms, standard libraries, and dispatch paths.
  std::uint64_t (*hash_block)(const double* data, std::size_t n,
                              std::uint64_t seed);
  /// Match mask over 16-bit genes: writes ceil(n/64) words, bit i of word
  /// w set iff data[64w + i] == value, bits past n zero. Returns the
  /// number of matches. n may be 0 (no word is written). No element past
  /// n is read (see ne_mask_u16).
  std::size_t (*eq_mask_u16)(const std::uint16_t* data, std::size_t n,
                             std::uint16_t value, std::uint64_t* words);
  /// The k lightest entries as a mask: writes ceil(n/64) words, bit m set
  /// iff fewer than k indices j have (data[j], j) < (data[m], m) — value
  /// first, lower index on ties — so exactly min(k, n) bits are set and
  /// bits past n are zero. Returns the most loaded entry, exactly argmax's
  /// answer (largest value, lowest index on ties), so the pass state of
  /// the h2ll reference loop costs one call. n may be 0 (no word is
  /// written, 0 is returned). The
  /// vector tiers rank-count every entry against every other
  /// (O(n^2 / lanes), branch-free) and take the argmax from a max_pd pass
  /// over the same blocks while n fits one mask word (n <= 64); above that
  /// they run the scalar bodies, an O(n) nth_element selection and the
  /// in-order argmax scan.
  std::size_t (*lightest_mask)(const double* data, std::size_t n,
                               std::size_t k, std::uint64_t* words);
  /// Select: the position (64w + i for bit i of word w) of the k-th set
  /// bit of the mask, counting from 0 in ascending order. Requires k below
  /// the mask's popcount; only the words up to the answer are read. Every
  /// tier walks whole words by popcount. The scalar tier's popcount is
  /// libgcc's software routine on a baseline x86-64 build, and it clears
  /// the k lowest bits of the last word; the vector tiers count with the
  /// popcnt instruction. In-word, the AVX2 tier keeps the scalar tier's
  /// clear-lowest-bit loop (some AVX2-only CPUs microcode pdep) and the
  /// AVX-512 tier selects with BMI2 pdep; that choice is the tiers' one
  /// select op, which their h2ll bodies use too.
  std::size_t (*select_bit)(const std::uint64_t* words, std::size_t k);
  /// Difference mask over two 16-bit gene arrays: writes ceil(n/64) words,
  /// bit i of word w set iff a[64w + i] != b[64w + i], bits past n zero.
  /// Returns the number of differing genes. n may be 0 (no word is
  /// written). No element past n is read: the AVX-512 tier masks its tail
  /// loads, the others finish a partial last word with the scalar body.
  std::size_t (*ne_mask_u16)(const std::uint16_t* a, const std::uint16_t* b,
                             std::size_t n, std::uint64_t* words);
  /// A whole H2LL call (paper Alg. 4), `passes` passes over raw arrays:
  /// `completions` (machines entries) and `genes` (tasks entries) are
  /// edited in place, `etc_rows` is the task-major ETC matrix (row t holds
  /// task t's times on machines 0..machines-1). Requires machines >= 1.
  /// Each pass, in the order of the scalar reference loop:
  ///   1. the most loaded machine L (argmax: lowest index on ties) and the
  ///      candidates, lightest_mask's k lightest machines minus L;
  ///   2. the tasks on L as a match mask; when there is none the call
  ///      returns, with no draw;
  ///   3. one draw rng.index(count) picks the task t of that rank in
  ///      ascending task order;
  ///   4. the candidate c of least completions[c] + etc_rows[t][c] strictly
  ///      below completions[L] (lowest index on ties) receives t:
  ///      completions[L] -= etc_rows[t][L], completions[c] +=
  ///      etc_rows[t][c], genes[t] = c. No such candidate: no move.
  /// Steps 1 and 2 run on entry and after a pass that moved a task; a pass
  /// that moves nothing leaves them as a recompute would find them, and a
  /// move that keeps L only clears t's bit. Every tier makes the same
  /// draws and the same IEEE operations, so the arrays and the RNG come
  /// out bit-identical. The scalar tier, and every tier above 16
  /// machines, runs that loop over this table's lightest_mask,
  /// eq_mask_u16 and select_bit. For machines <= 16 the vector tiers keep
  /// the completions in registers for the whole call (two 8-lane AVX-512
  /// or four 4-lane AVX2 blocks at most): the candidate scan is one
  /// masked add/compare/min per block, and a move is a masked subtract
  /// and add on the two lanes.
  void (*h2ll)(double* completions, std::uint16_t* genes,
               const double* etc_rows, std::size_t tasks,
               std::size_t machines, std::size_t k, std::size_t passes,
               Xoshiro256& rng);
  const char* name;
};

/// The active table: resolved once (first use) from CPU features and the
/// PACGA_FORCE_KERNELS environment variable. A forced tier the CPU cannot
/// run (or an unrecognized value) aborts loudly rather than silently
/// running something else.
const Dispatch& active() noexcept;

/// "avx512", "avx2" or "scalar" — what active() resolved to.
const char* active_dispatch() noexcept;

// ---- convenience wrappers over the active table --------------------------

inline double max_value(const double* data, std::size_t n) noexcept {
  return active().max_value(data, n);
}

inline double min_value(const double* data, std::size_t n) noexcept {
  return active().min_value(data, n);
}

inline std::size_t argmax(const double* data, std::size_t n) noexcept {
  return active().argmax(data, n);
}

inline std::size_t argmin(const double* data, std::size_t n) noexcept {
  return active().argmin(data, n);
}

/// Fused completion scan: min over machines of ct[m] + etc_row[m] — the
/// inner loop of MCT, Min-min, Sufferage, tabu-hop and H2LL candidate
/// evaluation.
inline MinScan min_completion_index(const double* ct, const double* etc_row,
                                    std::size_t n) noexcept {
  return active().min_plus(ct, etc_row, n);
}

/// Same scan with one index excluded (Sufferage's second-best machine,
/// tabu-hop's "any machine but the loaded one"). Requires n >= 2 and
/// skip < n; ties still break toward the lowest surviving index.
inline MinScan min_completion_index_skip(const double* ct,
                                         const double* etc_row, std::size_t n,
                                         std::size_t skip) noexcept {
  const auto& d = active();
  MinScan lo{std::numeric_limits<double>::infinity(), 0};
  if (skip > 0) lo = d.min_plus(ct, etc_row, skip);
  if (skip + 1 < n) {
    MinScan hi = d.min_plus(ct + skip + 1, etc_row + skip + 1, n - skip - 1);
    hi.index += skip + 1;
    // Strict <: on ties the low range (lower indices) wins.
    if (hi.value < lo.value) return hi;
  }
  return lo;
}

inline void scale_inplace(double* data, std::size_t n,
                          double factor) noexcept {
  active().scale_inplace(data, n, factor);
}

inline std::uint64_t hash_block(const double* data, std::size_t n,
                                std::uint64_t seed) noexcept {
  return active().hash_block(data, n, seed);
}

inline std::size_t eq_mask_u16(const std::uint16_t* data, std::size_t n,
                               std::uint16_t value,
                               std::uint64_t* words) noexcept {
  return active().eq_mask_u16(data, n, value, words);
}

inline std::size_t lightest_mask(const double* data, std::size_t n,
                                 std::size_t k,
                                 std::uint64_t* words) noexcept {
  return active().lightest_mask(data, n, k, words);
}

inline std::size_t select_bit(const std::uint64_t* words,
                              std::size_t k) noexcept {
  return active().select_bit(words, k);
}

inline std::size_t ne_mask_u16(const std::uint16_t* a, const std::uint16_t* b,
                               std::size_t n, std::uint64_t* words) noexcept {
  return active().ne_mask_u16(a, b, n, words);
}

inline void h2ll(double* completions, std::uint16_t* genes,
                 const double* etc_rows, std::size_t tasks,
                 std::size_t machines, std::size_t k, std::size_t passes,
                 Xoshiro256& rng) noexcept {
  active().h2ll(completions, genes, etc_rows, tasks, machines, k, passes, rng);
}

// ---- direct access to both paths (equivalence tests, benchmarks) ---------

namespace detail {

/// True when this CPU can run the AVX2 table (avx2 and popcnt).
bool avx2_supported() noexcept;

/// True when this CPU can run the AVX-512 table: avx512f, avx512bw (the
/// 32-lane 16-bit compares of the gene masks), bmi2 (select_bit's pdep),
/// plus the AVX2 table's features (its 4-lane hash stays on that path).
bool avx512_supported() noexcept;

/// The portable reference path — always valid.
const Dispatch& scalar_table() noexcept;

/// The AVX2 path; only callable when avx2_supported(). On non-x86 builds
/// this aliases the scalar table.
const Dispatch& avx2_table() noexcept;

/// The AVX-512 path; only callable when avx512_supported(). On non-x86
/// builds this aliases the scalar table.
const Dispatch& avx512_table() noexcept;

/// The pure resolution rule behind active(), exposed so tests can pin the
/// precedence order without forking per environment combination:
/// PACGA_FORCE_KERNELS (scalar|avx2|avx512) wins when set; otherwise the
/// best supported tier (avx512 > avx2 > scalar). Returns nullptr with `*error` set to a
/// static message when a forced tier is unsupported or the value is
/// unrecognized — active() turns that into an abort.
const Dispatch* resolve_tables(const char* force_kernels, bool have_avx2,
                               bool have_avx512, const char** error) noexcept;

}  // namespace detail

}  // namespace pacga::support::kernels
