// Deterministic SplitMix64-seeded PRNG wrapper so every experiment
// and test is reproducible from a single seed.

#ifndef BIORANK_UTIL_RNG_H_
#define BIORANK_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace biorank {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
/// Used for seeding and as a cheap stand-alone generator.
uint64_t SplitMix64Next(uint64_t& state);

/// Stateless hash of (seed, stream) to an independent child seed: two
/// SplitMix64 rounds with the stream index injected between them. This is
/// what makes sharded Monte Carlo deterministic regardless of thread
/// count — shard i always draws from stream (seed, i) no matter which
/// worker runs it, unlike a child seeded from a shared parent generator,
/// whose seed depends on how many draws preceded it.
uint64_t DeriveStreamSeed(uint64_t seed, uint64_t stream);

/// Deterministic, seedable pseudo-random number generator.
///
/// Implementation: xoshiro256++ (Blackman & Vigna), seeded from a single
/// 64-bit seed via SplitMix64. Monte Carlo reliability estimation
/// (Algorithm 3.1 of the paper) consumes on the order of |N|+|E| uniform
/// draws per trial and 1e4 trials per query, so the generator must be fast;
/// xoshiro256++ is roughly 3x faster than std::mt19937_64 while passing
/// BigCrush. All experiments in this repository pass explicit seeds so that
/// every table and figure regenerates bit-identically.
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed. Equal seeds give equal
  /// streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit output.
  uint64_t NextUint64();

  /// Uniform double in [0, 1). Uses the top 53 bits of NextUint64().
  double NextDouble();

  /// Bernoulli draw: true with probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double NextUniform(double lo, double hi);

  /// Standard normal draw (Box-Muller, one value per call with caching).
  double NextGaussian();

  /// Normal draw with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Exponentially distributed draw with the given rate (lambda > 0).
  double NextExponential(double rate);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Generator for the `stream`-th parallel shard of a computation rooted
  /// at `seed` (see DeriveStreamSeed). Streams are mutually independent
  /// and depend only on (seed, stream), never on thread scheduling.
  static Rng ForStream(uint64_t seed, uint64_t stream) {
    return Rng(DeriveStreamSeed(seed, stream));
  }

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace biorank

#endif  // BIORANK_UTIL_RNG_H_
