// Deterministic, fast pseudo-random number generation for the PA-CGA library.
//
// Design notes (HPC):
//  * xoshiro256** is the workhorse generator: 4x64-bit state, sub-ns step,
//    passes BigCrush, and is trivially splittable into independent per-thread
//    streams via SplitMix64 seeding (the scheme recommended by its authors).
//  * All distribution helpers are branch-light and avoid libstdc++'s
//    <random> distribution objects in hot paths (their state and rejection
//    loops are slower and not reproducible across standard libraries).
//  * One master seed -> any number of decorrelated streams, so experiments
//    are reproducible while threads never share generator state.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace pacga::support {

/// SplitMix64: tiny generator used to expand a single 64-bit seed into
/// well-distributed state words for other generators. Never use it as the
/// main generator; its purpose is seeding.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: general-purpose 64-bit generator (Blackman & Vigna).
/// Satisfies the std::uniform_random_bit_generator concept so it can be
/// plugged into <random> and <algorithm> where convenient.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from a single seed through SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0xdeadbeefcafef00dULL) noexcept {
    reseed(seed);
  }

  /// Re-initializes state from `seed`; guarantees a non-zero state.
  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;  // all-zero is absorbing
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  /// Lemire's multiply-shift method with rejection for exact uniformity.
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    // Fast path via 128-bit multiply; rejection loop runs ~never for the
    // small bounds (tasks/machines/population) used in this library.
    __uint128_t m = static_cast<__uint128_t>(operator()()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(operator()()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    bounded(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Bernoulli trial with success probability `p`.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal deviate (Marsaglia polar method; the spare deviate is
  /// discarded so the generator stays a pure function of its 256-bit
  /// state — no hidden cache to break reproducibility reasoning).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Gamma(shape, scale) deviate, shape > 0, scale > 0. Marsaglia-Tsang
  /// squeeze for shape >= 1; the boost `Gamma(a) = Gamma(a+1) * U^(1/a)`
  /// for shape < 1. Used by the CVB ETC generation method.
  double gamma(double shape, double scale) noexcept;

  /// Fisher-Yates shuffle of a vector-like container.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(bounded(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Picks an index in [0, n) — convenience wrapper over bounded().
  std::size_t index(std::size_t n) noexcept {
    return static_cast<std::size_t>(bounded(n));
  }

  /// Same state: the two generators draw the same stream from here on.
  bool operator==(const Xoshiro256&) const noexcept = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// Derives `n` decorrelated generators from one master seed. Stream i is
/// seeded with SplitMix64(master).next() applied i+1 times, so streams are
/// stable under changes of n (stream i is the same for n=2 and n=8).
std::vector<Xoshiro256> make_streams(std::uint64_t master_seed, std::size_t n);

/// Hashes an instance name (or any string) to a stable 64-bit seed (FNV-1a).
/// Used to give each benchmark instance a deterministic generation seed.
std::uint64_t seed_from_string(const char* s) noexcept;

/// SplitMix64-style avalanche step folding one word into a running hash.
/// Deliberately not std::hash (implementation-defined): users — the ETC
/// content fingerprint and the service's cache keys derived from it —
/// need values that are stable across platforms and standard libraries.
constexpr std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 27);
}

}  // namespace pacga::support
