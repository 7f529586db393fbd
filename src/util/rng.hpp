// Deterministic pseudo-random number generation.
//
// The simulator must be bit-reproducible across runs and platforms, so we use
// our own xoshiro256** implementation rather than std::mt19937 +
// distribution objects (libstdc++ distributions are not guaranteed stable).
// SplitMix64 seeds the state and derives independent substreams.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/assert.hpp"

namespace gcr {

/// SplitMix64 step; used for seeding and cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes two 64-bit values into one; used to derive per-entity substreams
/// (e.g. per-process jitter streams) from a run seed.
constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** generator with stable cross-platform output.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  std::uint64_t next_u64() {
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
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound), bound > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) {
    GCR_ASSERT(bound > 0);
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Standard normal via Box-Muller (deterministic; no cached spare to keep
  /// the stream position independent of call pattern).
  double next_normal() {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Lognormal with the given log-space mu/sigma. Used by the OS jitter model.
  double next_lognormal(double mu, double sigma) {
    return std::exp(mu + sigma * next_normal());
  }

  /// Exponential with the given mean. Used by the failure injector.
  double next_exponential(double mean) {
    double u = next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace gcr
