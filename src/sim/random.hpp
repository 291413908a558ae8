// Deterministic pseudo-random number generation.
//
// xoshiro256** seeded via splitmix64 — fast, high quality and identical on
// every platform, so simulations with fault injection or process skew are
// reproducible from a seed alone (std::mt19937 + std::uniform_*_distribution
// are not portable across standard libraries).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace nicmcast::sim {

/// splitmix64's increment (2^64 / golden ratio, odd).
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's finalizer: a fixed bijective 64-bit mix.  The one copy
/// behind seed expansion, seed derivation, hashing and counter-hash coins.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The top 53 bits of `bits` as a uniform double in [0, 1).
[[nodiscard]] constexpr double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 expansion of the single-word seed into xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += kGoldenGamma;
      word = mix64(x);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
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
  double uniform() { return unit_interval(next()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive), unbiased via rejection.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>(next());  // full range
    const std::uint64_t limit = max() - max() % range;
    std::uint64_t v = next();
    while (v >= limit) v = next();
    return lo + static_cast<std::int64_t>(v % range);
  }

  /// Bernoulli draw.
  bool chance(double p) { return uniform() < p; }

  /// Derives an independent child generator (per-link / per-node streams).
  Rng fork() { return Rng{next() ^ 0xd1b54a32d192ed03ULL}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace nicmcast::sim
