#include "util/rng.h"

#include <cmath>

namespace biorank {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64Next(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed;
  uint64_t mixed = SplitMix64Next(state);
  // Inject the stream index with an odd multiplier so that consecutive
  // streams land far apart in SplitMix64's state space, then mix again.
  state = mixed ^ (stream * 0xD1B54A32D192ED03ULL + 0x8CB92BA72F3D8DD7ULL);
  return SplitMix64Next(state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64Next(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Lemire's nearly-divisionless method.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (l < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller with rejection of u1 == 0.
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::NextExponential(double rate) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

}  // namespace biorank
