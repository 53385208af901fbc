#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/stats.h"

namespace biorank {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.NextDouble());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(RngTest, BernoulliDegenerateCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(RngTest, BoundedIsApproximatelyUniform) {
  Rng rng(19);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(23);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextGaussian(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.NextExponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(RngTest, ShufflePermutesAllElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(RngTest, ShuffleIsNotIdentityForLongVectors) {
  Rng rng(41);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);
}

TEST(StreamSeedTest, DeterministicInSeedAndStream) {
  EXPECT_EQ(DeriveStreamSeed(42, 7), DeriveStreamSeed(42, 7));
  EXPECT_NE(DeriveStreamSeed(42, 7), DeriveStreamSeed(42, 8));
  EXPECT_NE(DeriveStreamSeed(42, 7), DeriveStreamSeed(43, 7));
}

TEST(StreamSeedTest, ConsecutiveStreamsAreIndependent) {
  Rng a = Rng::ForStream(5, 0);
  Rng b = Rng::ForStream(5, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(StreamSeedTest, ForStreamMatchesDerivedSeed) {
  Rng direct(DeriveStreamSeed(99, 3));
  Rng stream = Rng::ForStream(99, 3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(direct.NextUint64(), stream.NextUint64());
  }
}

TEST(SplitMix64Test, KnownFirstOutputsAreStable) {
  uint64_t state = 0;
  uint64_t first = SplitMix64Next(state);
  uint64_t second = SplitMix64Next(state);
  EXPECT_NE(first, second);
  // Regression pin: SplitMix64 from seed 0 (reference values).
  uint64_t s2 = 0;
  EXPECT_EQ(SplitMix64Next(s2), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(SplitMix64Next(s2), 0x6E789E6AA1B965F4ULL);
}

}  // namespace
}  // namespace biorank
