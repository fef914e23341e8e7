// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components of the library (trace generators, speed-up
// scenarios, permutation tests) draw from Rng so that every experiment is
// reproducible from a single seed. The generator is xoshiro256**, seeded
// via splitmix64 as recommended by its authors.

#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace jigsaw {

/// Counter-based seeding helper; also usable standalone for hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dULL) {
    for (auto& word : state_) word = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire's nearly-divisionless method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    // 1 - uniform() is in (0, 1], avoiding log(0).
    return -mean * std::log(1.0 - uniform());
  }

  /// Standard normal via Box-Muller (polar-free variant is fine here).
  double normal() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.141592653589793 * u2);
  }

  /// Lognormal with parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::exp(mu + sigma * normal());
  }

  /// True with probability p.
  bool chance(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace jigsaw
