#include "support/rng.hpp"

#include <cmath>

namespace pacga::support {

double Xoshiro256::normal() noexcept {
  // Marsaglia polar: draw points in the unit disc, transform.
  for (;;) {
    const double u = 2.0 * uniform() - 1.0;
    const double v = 2.0 * uniform() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Xoshiro256::gamma(double shape, double scale) noexcept {
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
    const double u = 1.0 - uniform();  // (0, 1]
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia & Tsang (2000).
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = 1.0 - uniform();  // (0, 1]
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v * scale;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

std::vector<Xoshiro256> make_streams(std::uint64_t master_seed, std::size_t n) {
  std::vector<Xoshiro256> streams;
  streams.reserve(n);
  SplitMix64 sm(master_seed);
  for (std::size_t i = 0; i < n; ++i) {
    streams.emplace_back(sm.next());
  }
  return streams;
}

std::uint64_t seed_from_string(const char* s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (; *s != '\0'; ++s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(*s));
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

}  // namespace pacga::support
