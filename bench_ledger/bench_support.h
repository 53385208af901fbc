// Helpers shared by the bench_ledger benchmark: sample statistics under
// the nearest-rank percentile rule, a probe of the host's pace, a seeded
// Zipf sampler, bit-exact ranking fingerprints, and the generators for the
// benchmark's synthetic inputs (layered DAGs and small evidence deltas).

#ifndef BIORANK_BENCH_LEDGER_BENCH_SUPPORT_H_
#define BIORANK_BENCH_LEDGER_BENCH_SUPPORT_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/query_graph.h"
#include "ingest/delta.h"
#include "util/rng.h"

namespace biorank::ledger {

/// A percentile is reported only when at least this many samples lie
/// beyond its rank; below that the "tail" is a handful of outliers.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile `q` over `n` samples: ceil(q * n),
/// clamped to [1, n]. The small epsilon keeps q * n = 190.00000000000003
/// (0.95 * 200 in binary) from rounding up past the exact rank.
inline size_t NearestRank(double q, size_t n) {
  double scaled = std::ceil(q * static_cast<double>(n) - 1e-9);
  size_t rank = scaled < 1.0 ? 1 : static_cast<size_t>(scaled);
  return std::min(rank, n);
}

/// Nearest-rank percentile: the sample at rank ceil(q * n) of the sorted
/// values. Refuses (nullopt) when fewer than kMinSamplesBeyond samples
/// lie beyond that rank, so p95 needs n >= 200 and p50 needs n >= 20.
inline std::optional<double> Percentile(std::vector<double> values,
                                        double q) {
  if (values.empty()) return std::nullopt;
  const size_t rank = NearestRank(q, values.size());
  if (values.size() - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

/// Median without the tail rule (for spreads and small run sets).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median absolute deviation from the median.
inline double Mad(const std::vector<double>& values) {
  const double median = Median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::fabs(v - median));
  return Median(std::move(deviations));
}

/// A fixed amount of CPU work that runs none of the code under test:
/// xorshift keys inserted into and probed in an open-addressing table
/// (1 MiB), then an array of doubles sorted. The buffers are allocated
/// once, so a pass allocates nothing. How long a pass takes measures how
/// fast the shared host runs at that moment.
class PaceProbe {
 public:
  PaceProbe() : keys_(kSlots), values_(kSlots), sorted_(kSorted) {
    // Read at run time, so the compiler cannot precompute a pass.
    volatile uint64_t seed = 0x9e3779b97f4a7c15ULL;
    seed_ = seed;
  }

  /// Runs one pass; returns its wall time in seconds.
  double Pass() {
    const auto start = std::chrono::steady_clock::now();
    uint64_t x = seed_;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::fill(keys_.begin(), keys_.end(), 0);
    for (uint64_t i = 0; i < kInserts; ++i) {
      const uint64_t key = next() | 1;  // 0 marks an empty slot.
      size_t slot = key & (kSlots - 1);
      while (keys_[slot] != 0 && keys_[slot] != key) {
        slot = (slot + 1) & (kSlots - 1);
      }
      keys_[slot] = key;
      values_[slot] += i;
    }
    uint64_t found = 0;
    for (uint64_t i = 0; i < kInserts; ++i) {
      const uint64_t key = next() | 1;
      for (size_t slot = key & (kSlots - 1); keys_[slot] != 0;
           slot = (slot + 1) & (kSlots - 1)) {
        if (keys_[slot] == key) {
          found += values_[slot];
          break;
        }
      }
    }
    for (double& d : sorted_) d = static_cast<double>(next() >> 11);
    std::sort(sorted_.begin(), sorted_.end());
    sink_ = sink_ + found + static_cast<uint64_t>(sorted_[kSorted / 2]);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

 private:
  static constexpr size_t kSlots = size_t{1} << 16;
  static constexpr uint64_t kInserts = 40000;
  static constexpr size_t kSorted = 32768;

  uint64_t seed_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> values_;
  std::vector<double> sorted_;
  volatile uint64_t sink_ = 0;  ///< Keeps the pass's work observable.
};

/// Draws ranks 0..n-1 with P(r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// (answer node, reliability) pairs of a ranking, in rank order — the
/// same pairs api::RankingFingerprint extracts from a response.
using Fingerprint = std::vector<std::pair<NodeId, double>>;

/// Bit-for-bit equality: node ids match and every reliability has the
/// same IEEE-754 bit pattern (so -0.0 != 0.0 and NaN == the same NaN).
inline bool SameBits(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

inline bool SameFingerprint(const Fingerprint& a, const Fingerprint& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !SameBits(a[i].second, b[i].second)) {
      return false;
    }
  }
  return true;
}

/// One layered random DAG (3 layers x 6 nodes, 12 answers) with enough
/// multi-path answers that the blocking path resolves most survivors by
/// exact factoring or Monte Carlo: bench/bench_open_loop.cpp's generator,
/// drawing topology and probabilities from `rng`, except that every
/// probability is scaled by 1 + u * 1e-6 with u uniform in [-1, 1) drawn
/// from `jitter`. The jitter gives each request fresh canonical keys (so
/// it misses the reliability cache) while leaving every bounds, pruning
/// and resolution decision, and therefore the work, as for `rng` alone.
inline QueryGraph MakeLayeredDag(Rng& rng, Rng& jitter) {
  constexpr int kLayers = 3;
  constexpr int kNodesPerLayer = 6;
  constexpr int kAnswers = 12;
  constexpr double kEdgeDensity = 0.45;
  constexpr double kSkipDensity = 0.15;
  auto draw = [&rng, &jitter](double lo, double hi) {
    const double scale = 1.0 + 1e-6 * (2.0 * jitter.NextDouble() - 1.0);
    return std::min(1.0, rng.NextUniform(lo, hi) * scale);
  };
  QueryGraphBuilder builder;
  std::vector<std::vector<NodeId>> layers = {{builder.Source()}};
  for (int layer = 0; layer < kLayers; ++layer) {
    std::vector<NodeId> current;
    for (int i = 0; i < kNodesPerLayer; ++i) {
      current.push_back(builder.Node(draw(0.3, 1.0)));
    }
    layers.push_back(current);
  }
  std::vector<NodeId> answers;
  for (int i = 0; i < kAnswers; ++i) {
    answers.push_back(
        builder.Node(draw(0.3, 1.0), "ans" + std::to_string(i)));
  }
  layers.push_back(answers);
  for (size_t layer = 0; layer + 1 < layers.size(); ++layer) {
    for (NodeId from : layers[layer]) {
      for (NodeId to : layers[layer + 1]) {
        if (rng.NextBernoulli(kEdgeDensity)) {
          builder.Edge(from, to, draw(0.2, 1.0));
        }
      }
      for (size_t skip = layer + 2; skip < layers.size(); ++skip) {
        for (NodeId to : layers[skip]) {
          if (rng.NextBernoulli(kSkipDensity)) {
            builder.Edge(from, to, draw(0.2, 1.0));
          }
        }
      }
    }
  }
  // Every non-source node gets at least one in-edge from the previous
  // layer, so every answer is reachable.
  for (size_t layer = 1; layer < layers.size(); ++layer) {
    for (NodeId to : layers[layer]) {
      const std::vector<NodeId>& prev = layers[layer - 1];
      builder.Edge(prev[static_cast<size_t>(rng.NextBounded(prev.size()))],
                   to, draw(0.2, 1.0));
    }
  }
  return std::move(builder).Build(answers);
}

/// A small evidence update against `base`: reweights ~2% of the evidence
/// edges and revises ~1% of the tuple probabilities (never the query
/// node's). It only reweights and revises — never removes — so a delta
/// built from a setup-time snapshot stays valid however many other
/// deltas landed on the session since.
inline ingest::EvidenceDelta BuildDelta(const QueryGraph& base, Rng& rng) {
  ingest::EvidenceDelta delta;
  std::vector<EdgeId> edges;
  for (EdgeId e : base.graph.AliveEdges()) {
    if (base.graph.edge(e).from != base.source) edges.push_back(e);
  }
  const int reweights = std::max<int>(1, static_cast<int>(edges.size()) / 50);
  rng.Shuffle(edges);
  for (int i = 0; i < reweights && i < static_cast<int>(edges.size()); ++i) {
    const EdgeId e = edges[static_cast<size_t>(i)];
    const double q = base.graph.edge(e).q;
    delta.reweight_edges.push_back(
        {e, std::min(1.0, std::max(0.05, q * rng.NextUniform(0.9, 1.1)))});
  }
  std::vector<NodeId> nodes = base.graph.AliveNodes();
  rng.Shuffle(nodes);
  const int revisions = std::max<int>(1, static_cast<int>(nodes.size()) / 100);
  int revised = 0;
  for (NodeId n : nodes) {
    if (revised >= revisions) break;
    if (n == base.source) continue;
    const double p = base.graph.node(n).p;
    delta.revise_node_probs.push_back(
        {n, std::min(1.0, std::max(0.05, p * rng.NextUniform(0.95, 1.05)))});
    ++revised;
  }
  return delta;
}

}  // namespace biorank::ledger

#endif  // BIORANK_BENCH_LEDGER_BENCH_SUPPORT_H_
