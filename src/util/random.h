#ifndef FWDECAY_UTIL_RANDOM_H_
#define FWDECAY_UTIL_RANDOM_H_

#include <cmath>
#include <cstdint>

#include "util/check.h"

// Fast, reproducible pseudo-random number generation.
//
// All randomized algorithms in the library (sampling, sketches, workload
// generators) take an explicit Rng so runs are deterministic given a seed.
// The generator is xoshiro256++ seeded via SplitMix64 — far faster than
// std::mt19937_64 and with better statistical behaviour than rand().

namespace fwdecay {

/// Advances a SplitMix64 state and returns the next 64-bit output.
/// Used for seeding and as a stateless hash-like mixer.
inline std::uint64_t SplitMix64Next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ pseudo-random generator.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can be used
/// with <random> distributions, though the library prefers the member
/// helpers below to stay allocation- and libstdc++-variance-free.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire state is derived from `seed`.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from a single 64-bit value.
  void Seed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64Next(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Returns the next 64 random bits.
  result_type operator()() { return Next64(); }

  /// Returns the next 64 random bits.
  std::uint64_t Next64() {
    const std::uint64_t result =
        Rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Returns a double uniform in [0, 1) with 53 random bits of mantissa.
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// Returns a double uniform in (0, 1]; never zero, so it is safe as the
  /// `u` in keys like u^(1/w) or priorities like w/u.
  double NextDoubleOpenZero() { return 1.0 - NextDouble(); }

  /// Returns an integer uniform in [0, bound) using Lemire's multiply-shift
  /// rejection method. `bound` must be positive.
  std::uint64_t NextBounded(std::uint64_t bound) {
    FWDECAY_DCHECK(bound > 0);
    // Debiased multiply-shift (Lemire 2019).
    std::uint64_t x = Next64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = Next64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Returns an exponentially distributed double with rate `lambda` > 0.
  double NextExponential(double lambda) {
    FWDECAY_DCHECK(lambda > 0);
    return -std::log(NextDoubleOpenZero()) / lambda;
  }

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p) { return NextDouble() < p; }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace fwdecay

#endif  // FWDECAY_UTIL_RANDOM_H_
