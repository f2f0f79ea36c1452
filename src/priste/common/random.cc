#include "priste/common/random.h"

#include <cmath>

#include "priste/common/check.h"

namespace priste {
namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  PRISTE_DCHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t Rng::NextBelow(uint64_t n) {
  PRISTE_CHECK(n > 0);
  const uint64_t threshold = -n % n;  // 2^64 mod n
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

double Rng::NextExponential(double lambda) {
  PRISTE_CHECK(lambda > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -std::log(u) / lambda;
}

int Rng::SampleDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    PRISTE_DCHECK(w >= 0.0);
    total += w;
  }
  PRISTE_CHECK_MSG(total > 0.0, "SampleDiscrete needs a positive weight");
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return static_cast<int>(i);
  }
  // Floating-point underflow fallback: return the last positive-weight index.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

Rng Rng::Split() { return Rng(NextUint64()); }

}  // namespace priste
