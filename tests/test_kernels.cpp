// Kernel equivalence suite: the AVX-512, AVX2, and scalar paths must agree
// BIT-FOR-BIT — same extreme values, same lowest-index tie-breaks — over
// randomized and adversarial inputs (exact ties across lane boundaries,
// denormals, infinities as parked sentinels, sizes straddling the 8/16/
// 32/64 vector boundaries, sizes below them). Vector tiers the host cannot
// run are skipped at run time but always compiled. Golden determinism
// across dispatch paths rests on this file; the PACGA_FORCE_KERNELS
// resolution order is regression-tested here too.
#include "support/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace pacga::support::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

/// Every tier this host can execute (the scalar reference always; the
/// vector tiers when the CPU supports them). Unsupported tiers are skipped
/// at run time only — the code under test always compiles.
std::vector<const Dispatch*> testable_tables() {
  std::vector<const Dispatch*> tables{&detail::scalar_table()};
  if (detail::avx2_supported()) tables.push_back(&detail::avx2_table());
  if (detail::avx512_supported()) tables.push_back(&detail::avx512_table());
  return tables;
}

/// In-order strict-comparison reference scans — the pinned semantics,
/// written independently of the library's scalar path.
std::size_t ref_argmax(const std::vector<double>& d) {
  std::size_t arg = 0;
  for (std::size_t i = 1; i < d.size(); ++i) {
    if (d[i] > d[arg]) arg = i;
  }
  return arg;
}

std::size_t ref_argmin(const std::vector<double>& d) {
  std::size_t arg = 0;
  for (std::size_t i = 1; i < d.size(); ++i) {
    if (d[i] < d[arg]) arg = i;
  }
  return arg;
}

MinScan ref_min_plus(const std::vector<double>& a,
                     const std::vector<double>& b) {
  MinScan r{a[0] + b[0], 0};
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double c = a[i] + b[i];
    if (c < r.value) r = {c, i};
  }
  return r;
}

/// Asserts that one table reproduces the reference on `d` (and that both
/// tables agree bit-for-bit with each other).
void check_reductions(const std::vector<double>& d, const std::string& label) {
  const std::size_t n = d.size();
  const std::size_t amax = ref_argmax(d);
  const std::size_t amin = ref_argmin(d);
  for (const Dispatch* t : testable_tables()) {
    SCOPED_TRACE(label + " via " + t->name);
    EXPECT_EQ(t->argmax(d.data(), n), amax);
    EXPECT_EQ(t->argmin(d.data(), n), amin);
    // Values compared through their bit patterns: 0x... == 0x... is the
    // byte-identity the golden tests need, not just numeric equality.
    // max_value/min_value canonicalize signed zeros (`+ 0.0`), so the
    // reference does too.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(t->max_value(d.data(), n)),
              std::bit_cast<std::uint64_t>(d[amax] + 0.0));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(t->min_value(d.data(), n)),
              std::bit_cast<std::uint64_t>(d[amin] + 0.0));
  }
}

void check_min_plus(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& label) {
  ASSERT_EQ(a.size(), b.size());
  const MinScan ref = ref_min_plus(a, b);
  for (const Dispatch* t : testable_tables()) {
    SCOPED_TRACE(label + " via " + t->name);
    const MinScan got = t->min_plus(a.data(), b.data(), a.size());
    EXPECT_EQ(got.index, ref.index);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
              std::bit_cast<std::uint64_t>(ref.value));
  }
}

/// Sizes straddling every interesting boundary: below the 4- and 8-lane
/// widths, at them, around the 8/16-element single-stream thresholds and
/// the 32/64-element 4-stream thresholds of the vector tiers, unaligned
/// tails, and larger blocks.
const std::size_t kSizes[] = {1,   2,   3,   4,   5,   7,   8,   9,   12,  15,
                              16,  17,  31,  32,  33,  63,  64,  65,  100, 127,
                              128, 129, 255, 256, 257, 511, 512, 513};

TEST(Kernels, RandomizedEquivalenceAcrossSizes) {
  Xoshiro256 rng(42);
  for (const std::size_t n : kSizes) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> d(n), b(n);
      for (auto& x : d) x = rng.uniform(0.0, 1e6);
      for (auto& x : b) x = rng.uniform(0.0, 1e3);
      const std::string label =
          "random n=" + std::to_string(n) + " rep=" + std::to_string(rep);
      check_reductions(d, label);
      check_min_plus(d, b, label);
    }
  }
}

TEST(Kernels, ExactTiesBreakToLowestIndexEverywhere) {
  // Duplicate the extreme value at every pair of positions; the winner
  // must always be the earlier one, under every path. Sizes cross the
  // 8-lane width and the AVX-512 single-stream threshold too.
  for (const std::size_t n : {5ul, 8ul, 9ul, 13ul, 16ul, 17ul, 33ul}) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        std::vector<double> d(n, 1.0);
        d[i] = d[j] = 2.0;  // tied maxima
        const std::string label = "tie n=" + std::to_string(n) + " at " +
                                  std::to_string(i) + "," + std::to_string(j);
        for (const Dispatch* t : testable_tables()) {
          SCOPED_TRACE(label + " via " + t->name);
          EXPECT_EQ(t->argmax(d.data(), n), i);
          d[i] = d[j] = 0.5;  // tied minima
          EXPECT_EQ(t->argmin(d.data(), n), i);
          const std::vector<double> zero(n, 0.0);
          EXPECT_EQ(t->min_plus(d.data(), zero.data(), n).index, i);
          d[i] = d[j] = 2.0;  // restore for the next table
        }
      }
    }
  }
}

TEST(Kernels, AllEqualPicksIndexZero) {
  for (const std::size_t n : kSizes) {
    const std::vector<double> d(n, 3.25);
    check_reductions(d, "all-equal n=" + std::to_string(n));
  }
}

TEST(Kernels, DenormalsAndParkedInfinities) {
  Xoshiro256 rng(7);
  for (const std::size_t n : {3ul, 8ul, 16ul, 17ul, 64ul, 65ul, 129ul, 257ul}) {
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) {
      // A mix of denormals, tiny normals, and parked +/-inf sentinels —
      // the actual contents of the heuristics' key arrays mid-run.
      switch (i % 4) {
        case 0: d[i] = kDenorm * static_cast<double>(i + 1); break;
        case 1: d[i] = rng.uniform(0.0, 1.0); break;
        case 2: d[i] = (i % 8 == 2) ? kInf : -kInf; break;
        default: d[i] = rng.uniform(1e300, 1e301); break;
      }
    }
    check_reductions(d, "denorm/inf n=" + std::to_string(n));
  }
}

TEST(Kernels, SignedZeroTiesKeepFirstOccurrenceBits) {
  // -0.0 and +0.0 compare equal but differ in bits; the pinned contract
  // says both paths return the element at the LOWEST index among the
  // extremes, so the returned bit pattern must be the first occurrence's.
  for (const std::size_t n : {2ul, 5ul, 8ul, 9ul, 16ul, 33ul}) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> d(n, -0.0);
      d[i] = +0.0;  // one +0 among -0s: every element is max AND min
      check_reductions(d, "signed-zero n=" + std::to_string(n) + " at " +
                              std::to_string(i));
    }
  }
}

TEST(Kernels, MinPlusSkipMatchesReferenceLoop) {
  Xoshiro256 rng(9);
  for (const std::size_t n : {2ul, 3ul, 5ul, 8ul, 9ul, 33ul, 64ul}) {
    std::vector<double> a(n), b(n);
    for (auto& x : a) x = rng.uniform(0.0, 100.0);
    for (auto& x : b) x = rng.uniform(0.0, 100.0);
    for (std::size_t skip = 0; skip < n; ++skip) {
      MinScan ref{kInf, 0};
      bool seen = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (i == skip) continue;
        const double c = a[i] + b[i];
        if (!seen || c < ref.value) ref = {c, i};
        seen = true;
      }
      const MinScan got = min_completion_index_skip(a.data(), b.data(), n, skip);
      EXPECT_EQ(got.index, ref.index) << "n=" << n << " skip=" << skip;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
                std::bit_cast<std::uint64_t>(ref.value));
    }
  }
}

TEST(Kernels, ScaleInplaceBitIdenticalAcrossPaths) {
  Xoshiro256 rng(11);
  for (const std::size_t n : kSizes) {
    std::vector<double> base(n);
    for (auto& x : base) x = rng.uniform(0.1, 1e4);
    for (const double factor : {0.5, 1.0 / 3.0, 1.75, 1e-100, 1e100}) {
      std::vector<double> scalar_out = base;
      detail::scalar_table().scale_inplace(scalar_out.data(), n, factor);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(scalar_out[i]),
                  std::bit_cast<std::uint64_t>(base[i] * factor));
      }
      for (const Dispatch* t : testable_tables()) {
        std::vector<double> vec_out = base;
        t->scale_inplace(vec_out.data(), n, factor);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(vec_out[i]),
                    std::bit_cast<std::uint64_t>(scalar_out[i]))
              << "via " << t->name;
        }
      }
    }
  }
}

TEST(Kernels, HashBlockIdenticalAcrossPathsAndSensitive) {
  Xoshiro256 rng(13);
  for (const std::size_t n : kSizes) {
    std::vector<double> d(n);
    for (auto& x : d) x = rng.uniform(0.0, 1e6);
    const std::uint64_t scalar_h =
        detail::scalar_table().hash_block(d.data(), n, 77);
    for (const Dispatch* t : testable_tables()) {
      EXPECT_EQ(t->hash_block(d.data(), n, 77), scalar_h)
          << "n=" << n << " via " << t->name;
    }
    // Sensitivity: flipping any single element changes the hash.
    for (std::size_t i = 0; i < n; ++i) {
      const double saved = d[i];
      d[i] = saved + 1.0;
      EXPECT_NE(detail::scalar_table().hash_block(d.data(), n, 77), scalar_h)
          << "n=" << n << " i=" << i;
      d[i] = saved;
    }
    // Seed-sensitive too.
    EXPECT_NE(detail::scalar_table().hash_block(d.data(), n, 78), scalar_h);
  }
}

TEST(Kernels, ExhaustiveSizesOneToFiveHundredThirteen) {
  // Every size from 1 to 513: covers each possible tail length and stream
  // phase of every tier (4/8-lane single-stream, 16/32-element rounds).
  // One random vector per size keeps the sweep cheap; the adversarial
  // content cases live in the dedicated suites above.
  Xoshiro256 rng(21);
  for (std::size_t n = 1; n <= 513; ++n) {
    std::vector<double> d(n), b(n);
    for (auto& x : d) x = rng.uniform(0.0, 1e6);
    for (auto& x : b) x = rng.uniform(0.0, 1e3);
    // Planted duplicate extremes make ties likely even at large n.
    if (n >= 3) {
      d[n / 3] = d[0];
      d[n - 1] = d[n / 2];
    }
    const std::string label = "exhaustive n=" + std::to_string(n);
    check_reductions(d, label);
    check_min_plus(d, b, label);
  }
}

TEST(Kernels, EqMaskU16BitIdenticalAcrossPaths) {
  // Every tier writes the same mask words as an independent per-gene
  // reference, returns their popcount, leaves tail bits zero and writes
  // nothing past ceil(n/64) words. Values: 0, 0xFFFF (the packs
  // saturation edge), one absent from the data, and all-equal data.
  constexpr std::uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ULL;
  Xoshiro256 rng(41);
  for (const std::size_t n : {0ul, 1ul, 15ul, 16ul, 17ul, 31ul, 32ul, 33ul,
                              63ul, 64ul, 65ul, 100ul, 512ul, 4096ul}) {
    std::vector<std::uint16_t> mixed(n);
    for (auto& g : mixed) {
      switch (rng.index(4)) {
        case 0: g = 0; break;
        case 1: g = 0xFFFF; break;
        default: g = static_cast<std::uint16_t>(1 + rng.index(16)); break;
      }
    }
    const std::vector<std::uint16_t> same(n, 0x8000);
    const struct {
      const std::vector<std::uint16_t>* data;
      std::uint16_t value;
      const char* label;
    } cases[] = {{&mixed, 0, "zero"},
                 {&mixed, 0xFFFF, "ffff"},
                 {&mixed, 7, "mid"},
                 {&mixed, 0x1234, "absent"},
                 {&same, 0x8000, "all-equal"}};
    const std::size_t n_words = (n + 63) / 64;
    for (const auto& c : cases) {
      std::vector<std::uint64_t> ref(n_words, 0);
      std::size_t ref_count = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if ((*c.data)[i] != c.value) continue;
        ref[i / 64] |= std::uint64_t{1} << (i % 64);
        ++ref_count;
      }
      for (const Dispatch* t : testable_tables()) {
        SCOPED_TRACE(std::string("eq_mask n=") + std::to_string(n) + " " +
                     c.label + " via " + t->name);
        std::vector<std::uint64_t> words(n_words + 2, kSentinel);
        const std::size_t count =
            t->eq_mask_u16(c.data->data(), n, c.value, words.data());
        EXPECT_EQ(count, ref_count);
        std::size_t popcount = 0;
        for (std::size_t w = 0; w < n_words; ++w) {
          EXPECT_EQ(words[w], ref[w]) << "word " << w;
          popcount += static_cast<std::size_t>(std::popcount(words[w]));
        }
        EXPECT_EQ(count, popcount);
        if (n % 64 != 0) {
          EXPECT_EQ(words[n_words - 1] >> (n % 64), 0u) << "tail bits";
        }
        EXPECT_EQ(words[n_words], kSentinel);
        EXPECT_EQ(words[n_words + 1], kSentinel);
      }
    }
  }
}

TEST(Kernels, LightestMaskBitIdenticalAcrossPaths) {
  // Every tier marks exactly the entries an independent nth_element
  // selection under (value, index) picks: popcount min(k, n), tail bits
  // zero, nothing written past ceil(n/64) words. Sizes cover both sides of
  // the one-word rank-count cutoff; inputs are random, all-equal, exact
  // tie pairs straddling the 4-, 8- and 64-lane boundaries, signed zeros,
  // denormals and parked infinities.
  constexpr std::uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ULL;
  Xoshiro256 rng(43);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 130; ++n) sizes.push_back(n);
  for (const std::size_t n : {255ul, 256ul, 513ul}) sizes.push_back(n);
  for (const std::size_t n : sizes) {
    std::vector<double> random(n);
    for (auto& v : random) v = rng.uniform(0.0, 100.0);
    std::vector<double> ties(n);
    for (auto& v : ties) v = static_cast<double>(8 + rng.index(8));
    for (const std::size_t edge : {4ul, 8ul, 64ul}) {
      for (std::size_t b = edge; b < n; b += edge) {
        ties[b - 1] = ties[b] = static_cast<double>(rng.index(8));
      }
    }
    std::vector<double> special(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng.index(5)) {
        case 0: special[i] = 0.0; break;
        case 1: special[i] = -0.0; break;
        case 2: special[i] = kDenorm; break;
        case 3: special[i] = kInf; break;
        default: special[i] = rng.uniform(0.0, 1.0); break;
      }
    }
    const std::vector<double> same(n, 3.5);
    const struct {
      const std::vector<double>* data;
      const char* label;
    } inputs[] = {{&random, "random"},
                  {&ties, "ties"},
                  {&special, "special"},
                  {&same, "all-equal"}};
    const std::size_t n_words = (n + 63) / 64;
    for (const auto& in : inputs) {
      const std::vector<double>& d = *in.data;
      for (const std::size_t k : {0ul, 1ul, n / 2, n - 1, n}) {
        std::vector<std::uint32_t> idx(n);
        for (std::uint32_t i = 0; i < n; ++i) idx[i] = i;
        std::nth_element(idx.begin(), idx.begin() + static_cast<long>(k),
                         idx.end(), [&](std::uint32_t a, std::uint32_t b) {
                           return d[a] < d[b] || (d[a] == d[b] && a < b);
                         });
        std::vector<std::uint64_t> ref(n_words, 0);
        for (std::size_t i = 0; i < k; ++i) {
          ref[idx[i] / 64] |= std::uint64_t{1} << (idx[i] % 64);
        }
        for (const Dispatch* t : testable_tables()) {
          SCOPED_TRACE(std::string("lightest_mask n=") + std::to_string(n) +
                       " k=" + std::to_string(k) + " " + in.label + " via " +
                       t->name);
          std::vector<std::uint64_t> words(n_words + 2, kSentinel);
          t->lightest_mask(d.data(), n, k, words.data());
          std::size_t popcount = 0;
          for (std::size_t w = 0; w < n_words; ++w) {
            EXPECT_EQ(words[w], ref[w]) << "word " << w;
            popcount += static_cast<std::size_t>(std::popcount(words[w]));
          }
          EXPECT_EQ(popcount, k);
          if (n % 64 != 0) {
            EXPECT_EQ(words[n_words - 1] >> (n % 64), 0u) << "tail bits";
          }
          EXPECT_EQ(words[n_words], kSentinel);
          EXPECT_EQ(words[n_words + 1], kSentinel);
        }
      }
    }
  }
}

TEST(Kernels, LightestMaskReturnsArgmaxOnEveryTier) {
  // lightest_mask's return value is H2LL's most loaded machine, so on every
  // tier it must be exactly argmax's answer: largest value, lowest index on
  // ties. Inputs put exact ties at the maximum on and across lane
  // boundaries, make signed zeros the maximum in both orders, and include
  // all-equal rows; n = 65 and 128 run the scalar bodies.
  Xoshiro256 rng(44);
  for (const std::size_t n :
       {1ul, 2ul, 7ul, 8ul, 9ul, 15ul, 16ul, 17ul, 63ul, 64ul, 65ul, 128ul}) {
    std::vector<std::vector<double>> inputs;
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<double> d(n);
      for (auto& v : d) v = static_cast<double>(rng.index(6));
      inputs.push_back(d);  // small integers: ties at the maximum abound
      for (std::size_t i = 0; i < n; ++i) {
        d[i] = rng.index(3) == 0 ? 5.0 : rng.uniform(0.0, 5.0);
      }
      inputs.push_back(d);  // the maximum repeated at random indices
      for (auto& v : d) v = -rng.uniform(0.0, 1.0);
      d[rng.index(n)] = rep % 2 == 0 ? -0.0 : 0.0;
      d[rng.index(n)] = rep % 2 == 0 ? 0.0 : -0.0;
      inputs.push_back(d);  // signed zeros tie at the maximum
    }
    inputs.emplace_back(n, 2.5);
    inputs.emplace_back(n, -0.0);
    for (const auto& d : inputs) {
      const std::size_t want = ref_argmax(d);
      for (const Dispatch* t : testable_tables()) {
        SCOPED_TRACE(std::string("argmax n=") + std::to_string(n) + " via " +
                     t->name);
        std::vector<std::uint64_t> words((n + 63) / 64);
        EXPECT_EQ(t->lightest_mask(d.data(), n, n / 2, words.data()), want);
        EXPECT_EQ(t->argmax(d.data(), n), want);
      }
    }
  }
}

TEST(Kernels, SelectBitMatchesScalarWalk) {
  // Every tier's select returns the k-th set bit (0-based, ascending) for
  // every k, on masks of 1 to 9 words mixing random, full, single-bit and
  // empty words, with empty words between matches.
  Xoshiro256 rng(45);
  for (std::size_t n_words = 1; n_words <= 9; ++n_words) {
    for (int rep = 0; rep < 40; ++rep) {
      std::vector<std::uint64_t> words(n_words);
      for (auto& w : words) {
        switch (rng.index(4)) {
          case 0: w = 0; break;
          case 1: w = ~std::uint64_t{0}; break;
          case 2: w = std::uint64_t{1} << rng.index(64); break;
          default: w = rng() & rng(); break;
        }
      }
      if (rep == 0) words.back() = std::uint64_t{1} << 63;  // empty run, top bit
      std::vector<std::size_t> positions;  // the scalar walk, bit by bit
      for (std::size_t i = 0; i < 64 * n_words; ++i) {
        if ((words[i / 64] >> (i % 64)) & 1) positions.push_back(i);
      }
      for (const Dispatch* t : testable_tables()) {
        SCOPED_TRACE(std::string("select words=") + std::to_string(n_words) +
                     " rep=" + std::to_string(rep) + " via " + t->name);
        for (std::size_t k = 0; k < positions.size(); ++k) {
          ASSERT_EQ(t->select_bit(words.data(), k), positions[k]) << "k=" << k;
        }
      }
    }
  }
}

TEST(Kernels, NeMaskU16BitIdenticalAcrossPaths) {
  // Every tier writes the same difference words as a per-gene reference,
  // returns their popcount, leaves tail bits zero and writes nothing past
  // ceil(n/64) words. Pairs: identical arrays, fully differing arrays, a
  // few scattered differences, and 0 against 0xFFFF (the packs saturation
  // edge); each also from an odd start, as a crossover segment begins.
  constexpr std::uint64_t kSentinel = 0xA5A5A5A5A5A5A5A5ULL;
  Xoshiro256 rng(43);
  for (const std::size_t n : {0ul, 1ul, 15ul, 16ul, 17ul, 31ul, 32ul, 33ul,
                              63ul, 64ul, 65ul, 100ul, 512ul, 4097ul}) {
    std::vector<std::uint16_t> a(n + 1);
    for (auto& g : a) g = static_cast<std::uint16_t>(rng.index(16));
    std::vector<std::uint16_t> differ(a);
    for (auto& g : differ) g = static_cast<std::uint16_t>(g + 1);
    std::vector<std::uint16_t> few(a);
    for (std::size_t i = 0; i < few.size(); i += 1 + rng.index(40)) {
      few[i] = static_cast<std::uint16_t>(few[i] ^ 0x8001);
    }
    const std::vector<std::uint16_t> zeros(n + 1, 0);
    const std::vector<std::uint16_t> ones(n + 1, 0xFFFF);
    const struct {
      const std::vector<std::uint16_t>* a;
      const std::vector<std::uint16_t>* b;
      const char* label;
    } cases[] = {{&a, &a, "identical"},
                 {&a, &differ, "all-differ"},
                 {&a, &few, "few"},
                 {&zeros, &ones, "0-ffff"}};
    const std::size_t n_words = (n + 63) / 64;
    for (const auto& c : cases) {
      for (const std::size_t start : {0ul, 1ul}) {
        const std::uint16_t* pa = c.a->data() + start;
        const std::uint16_t* pb = c.b->data() + start;
        std::vector<std::uint64_t> ref(n_words, 0);
        std::size_t ref_count = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (pa[i] == pb[i]) continue;
          ref[i / 64] |= std::uint64_t{1} << (i % 64);
          ++ref_count;
        }
        for (const Dispatch* t : testable_tables()) {
          SCOPED_TRACE(std::string("ne_mask n=") + std::to_string(n) + " " +
                       c.label + " start=" + std::to_string(start) +
                       " via " + t->name);
          std::vector<std::uint64_t> words(n_words + 2, kSentinel);
          EXPECT_EQ(t->ne_mask_u16(pa, pb, n, words.data()), ref_count);
          for (std::size_t w = 0; w < n_words; ++w) {
            EXPECT_EQ(words[w], ref[w]) << "word " << w;
          }
          EXPECT_EQ(words[n_words], kSentinel);
          EXPECT_EQ(words[n_words + 1], kSentinel);
        }
      }
    }
  }
}

/// One input of the H2LL kernel: task-major ETC rows, genes, and the
/// completions they imply (ready time plus the ETCs of each machine's
/// tasks, summed in task order).
struct H2llInput {
  std::size_t tasks;
  std::size_t machines;
  std::vector<double> rows;
  std::vector<std::uint16_t> genes;
  std::vector<double> ct;
};

/// Kinds: 0 real-valued ETCs; 1 small integer ETCs (score and load ties);
/// 2 one value per task on every machine (ties everywhere); 3 small
/// integers plus one machine with no task whose ready time exceeds any
/// load, so the first pass finds the loaded machine empty and the call
/// returns before any draw.
H2llInput make_h2ll_input(std::size_t tasks, std::size_t machines, int kind,
                          Xoshiro256& rng) {
  H2llInput in{tasks, machines, std::vector<double>(tasks * machines),
               std::vector<std::uint16_t>(tasks),
               std::vector<double>(machines, 0.0)};
  for (std::size_t t = 0; t < tasks; ++t) {
    const auto flat = static_cast<double>(1 + rng.index(4));
    for (std::size_t m = 0; m < machines; ++m) {
      double& v = in.rows[t * machines + m];
      switch (kind) {
        case 0: v = 1.0 + 999.0 * rng.uniform(); break;
        case 2: v = flat; break;
        default: v = static_cast<double>(1 + rng.index(3)); break;
      }
    }
  }
  const std::size_t idle = kind == 3 ? machines / 2 : machines;
  if (idle < machines) in.ct[idle] = 1e6;
  for (std::size_t t = 0; t < tasks; ++t) {
    std::size_t m = rng.index(idle < machines ? machines - 1 : machines);
    if (m >= idle) ++m;
    in.genes[t] = static_cast<std::uint16_t>(m);
    in.ct[m] += in.rows[t * machines + m];
  }
  return in;
}

TEST(Kernels, H2llBitIdenticalAcrossTiers) {
  // Every tier's h2ll leaves the same completion bits, genes and RNG state
  // as the scalar table's reference loop. Machine counts reach every
  // register body of both vector tiers (1 to 4 blocks of 4 lanes, 1 and 2
  // of 8) at its smallest, a partial and its full size, and 17, where every
  // tier runs the reference loop; task counts are not multiples of 64.
  std::size_t moved_calls = 0;
  std::size_t early_exits = 0;
  Xoshiro256 rng(47);
  for (const std::size_t machines :
       {1ul, 2ul, 3ul, 4ul, 5ul, 8ul, 9ul, 12ul, 13ul, 15ul, 16ul, 17ul}) {
    for (const std::size_t tasks : {1ul, 7ul, 63ul, 65ul, 200ul, 513ul}) {
      for (int kind = 0; kind < 4; ++kind) {
        if (kind == 3 && machines < 2) continue;
        const H2llInput in = make_h2ll_input(tasks, machines, kind, rng);
        for (const std::size_t k :
             {machines / 2, std::size_t{1}, machines - 1, machines}) {
          for (const std::size_t passes : {1ul, 10ul, 60ul}) {
            SCOPED_TRACE("machines=" + std::to_string(machines) +
                         " tasks=" + std::to_string(tasks) + " kind=" +
                         std::to_string(kind) + " k=" + std::to_string(k) +
                         " passes=" + std::to_string(passes));
            const Xoshiro256 start(1000 * machines + tasks);
            H2llInput ref = in;
            Xoshiro256 r_ref = start;
            detail::scalar_table().h2ll(ref.ct.data(), ref.genes.data(),
                                        ref.rows.data(), tasks, machines, k,
                                        passes, r_ref);
            moved_calls += ref.genes != in.genes;
            if (kind == 3) {
              EXPECT_TRUE(r_ref == start) << "a draw before the early exit";
              EXPECT_EQ(ref.genes, in.genes);
              early_exits += r_ref == start;
            }
            for (const Dispatch* t : testable_tables()) {
              SCOPED_TRACE(t->name);
              H2llInput got = in;
              Xoshiro256 r_got = start;
              t->h2ll(got.ct.data(), got.genes.data(), got.rows.data(), tasks,
                      machines, k, passes, r_got);
              EXPECT_EQ(got.genes, ref.genes);
              for (std::size_t m = 0; m < machines; ++m) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got.ct[m]),
                          std::bit_cast<std::uint64_t>(ref.ct[m]))
                    << "machine " << m;
              }
              EXPECT_TRUE(r_got == r_ref);
            }
          }
        }
      }
    }
  }
  // The sweep exercises moves, not only draws.
  EXPECT_GT(moved_calls, 500u);
  EXPECT_GT(early_exits, 0u);
}

TEST(Kernels, Avx512TierRunsOnThisHostOrSkips) {
  // The dedicated presence check: on AVX-512 hosts the tier must actually
  // execute (a direct call, not just table registration); elsewhere the
  // test skips visibly instead of silently passing.
  if (!detail::avx512_supported()) {
    GTEST_SKIP() << "host has no AVX-512; tier compiled but not executable";
  }
  const double d[17] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2};
  EXPECT_EQ(detail::avx512_table().argmax(d, 17), 5u);  // first 9
  EXPECT_EQ(std::bit_cast<std::uint64_t>(detail::avx512_table().max_value(d, 17)),
            std::bit_cast<std::uint64_t>(9.0));
  EXPECT_STREQ(detail::avx512_table().name, "avx512");
}

TEST(Kernels, ForceResolutionOrderIsPinned) {
  // detail::resolve_tables is the pure rule behind active(); exercising it
  // directly pins the precedence across every environment combination
  // without forking per-env child processes.
  const Dispatch* scalar = &detail::scalar_table();
  const Dispatch* avx2 = &detail::avx2_table();
  const Dispatch* avx512 = &detail::avx512_table();
  const char* err = nullptr;

  // Unforced (unset or empty): best supported tier wins.
  EXPECT_EQ(detail::resolve_tables(nullptr, true, true, &err), avx512);
  EXPECT_EQ(detail::resolve_tables("", true, true, &err), avx512);
  EXPECT_EQ(detail::resolve_tables(nullptr, true, false, &err), avx2);
  EXPECT_EQ(detail::resolve_tables(nullptr, false, false, &err), scalar);

  // PACGA_FORCE_KERNELS pins a tier; supported requests are honored...
  EXPECT_EQ(detail::resolve_tables("scalar", true, true, &err), scalar);
  EXPECT_EQ(detail::resolve_tables("avx2", true, true, &err), avx2);
  EXPECT_EQ(detail::resolve_tables("avx512", true, true, &err), avx512);

  // ...unsupported or malformed ones are refused loudly (null + message),
  // never silently downgraded.
  EXPECT_EQ(detail::resolve_tables("avx512", true, false, &err), nullptr);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(std::string(err).find("avx512"), std::string::npos);
  EXPECT_EQ(detail::resolve_tables("avx2", false, false, &err), nullptr);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(detail::resolve_tables("sse9", true, true, &err), nullptr);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(std::string(err).find("unrecognized"), std::string::npos);
}

TEST(Kernels, ActiveDispatchIsOneOfTheTables) {
  const std::string name = active_dispatch();
  EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "scalar");
  if (!detail::avx2_supported()) {
    EXPECT_EQ(name, "scalar");
  }
  // The forced-tier CI matrix runs the whole suite under each value of
  // PACGA_FORCE_KERNELS.
  const char* forced_tier = std::getenv("PACGA_FORCE_KERNELS");
  if (forced_tier && *forced_tier) {
    EXPECT_EQ(name, forced_tier);
  }
}

}  // namespace
}  // namespace pacga::support::kernels
