#ifndef PRISTE_COMMON_RANDOM_H_
#define PRISTE_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace priste {

/// Deterministic, seedable pseudo-random generator (xoshiro256**) with the
/// sampling primitives the library needs. Implemented from scratch so that
/// results are bit-reproducible across platforms and standard libraries —
/// std::normal_distribution et al. are implementation-defined, which would
/// make golden tests non-portable.
class Rng {
 public:
  /// Seeds the four-word state from `seed` via SplitMix64, as recommended by
  /// the xoshiro authors. Any 64-bit seed (including 0) is valid.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64 random bits.
  uint64_t NextUint64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection to avoid
  /// modulo bias.
  uint64_t NextBelow(uint64_t n);

  /// Exponential variate with rate `lambda` (mean 1/lambda). Requires
  /// lambda > 0.
  double NextExponential(double lambda);

  /// Samples an index from an unnormalized non-negative weight vector by
  /// inverse-CDF. Requires at least one strictly positive weight.
  int SampleDiscrete(const std::vector<double>& weights);

  /// Returns an independent generator seeded from this one (stream split).
  Rng Split();

 private:
  uint64_t state_[4];
};

}  // namespace priste

#endif  // PRISTE_COMMON_RANDOM_H_
