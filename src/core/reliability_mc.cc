#include "core/reliability_mc.h"

#include <algorithm>
#include <cmath>

#include "core/trial_bound.h"
#include "util/rng.h"

namespace biorank {

namespace {

Status ValidateMcOptions(const McOptions& options) {
  if (options.trials <= 0) {
    return Status::InvalidArgument("MC trials must be positive");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "MC num_threads must be >= 0 (0 = full shared pool)");
  }
  if (options.shard_trials < 1) {
    return Status::InvalidArgument("MC shard_trials must be >= 1");
  }
  return Status::OK();
}

/// xoshiro256++ inlined into the kernels, bit-compatible with util/rng.h's
/// Rng: same SplitMix64 seeding and the same output function, so shard i
/// draws exactly the words of Rng::ForStream(seed, i).
struct InlineRng {
  uint64_t s[4];

  explicit InlineRng(uint64_t seed) {
    for (auto& word : s) word = SplitMix64Next(seed);
  }

  inline uint64_t Next() {
    const uint64_t rotated = s[0] + s[3];
    const uint64_t result = ((rotated << 23) | (rotated >> 41)) + s[0];
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = ((s[3] << 45) | (s[3] >> 19));
    return result;
  }
};

/// Probabilities pre-scaled to 53-bit integer thresholds so the kernels
/// compare raw 53-bit draws directly: for integer x < 2^53 and p in
/// (0,1), (double)x * 2^-53 < p  ⟺  x < ceil(p * 2^53) — both sides are
/// exact (power-of-two scaling is lossless and x has ≤ 53 bits), so the
/// accept/reject decision equals Rng::NextBernoulli's. Certain and
/// impossible elements get sentinels and consume no draw. On the Fig. 7
/// workload 76% of edges are certain, so the common case collapses to
/// one integer compare with no RNG advance.
constexpr uint64_t kThreshNever = 0;                     // p <= 0: false, no draw
constexpr uint64_t kThreshCertain = ~uint64_t{0};        // p >= 1: true, no draw

inline uint64_t BernoulliThreshold(double p) {
  if (p <= 0.0) return kThreshNever;
  if (p >= 1.0) return kThreshCertain;
  // ceil(p * 2^53); p < 1 so the product is < 2^53 and never collides
  // with kThreshCertain. p > 0 so it is >= 1 and never kThreshNever.
  return static_cast<uint64_t>(std::ceil(p * 9007199254740992.0));
}

/// Draw-consuming path only; callers must have peeled the sentinels.
inline bool DrawAgainst(InlineRng& rng, uint64_t threshold) {
  return (rng.Next() >> 11) < threshold;
}

/// Per-call threshold tables mirroring node_p / out_q, built once before
/// the shard fan-out and shared read-only by every worker.
struct CsrThresholds {
  std::vector<uint64_t> node;
  std::vector<uint64_t> edge;

  explicit CsrThresholds(const CsrSnapshot& csr) {
    node.reserve(csr.node_p.size());
    for (double p : csr.node_p) node.push_back(BernoulliThreshold(p));
    edge.reserve(csr.out_q.size());
    for (double q : csr.out_q) edge.push_back(BernoulliThreshold(q));
  }
};

/// Per-slot scratch reused across every shard a thread runs, so no shard
/// allocates. Arrays are sized to the snapshot's node and edge counts (no
/// tombstone slack). Reach counts are integers, which is what makes the
/// cross-shard sum order-independent and the final estimate bit-identical
/// for any thread count.
struct ShardWorkspace {
  std::vector<int64_t> reach_count;
  // Traversal: `last_sim[x] == epoch` marks x as simulated in the current
  // trial. The epoch increments across trials *and shards*, so reuse
  // needs no clearing.
  std::vector<int64_t> last_sim;
  std::vector<uint32_t> stack;
  int64_t epoch = 0;
  // 64 lanes: one presence mask per node and edge, one reach mask per
  // node, and a FIFO worklist of nodes whose reach mask grew.
  std::vector<uint64_t> node_mask;
  std::vector<uint64_t> edge_mask;
  std::vector<uint64_t> reach;
  std::vector<uint32_t> queue;
  std::vector<uint8_t> queued;

  void Init(uint32_t node_count, uint32_t edge_count, McOptions::Mode mode) {
    reach_count.assign(node_count, 0);
    if (mode == McOptions::Mode::kTraversal) {
      last_sim.assign(node_count, -1);
      stack.reserve(64);
    } else {
      node_mask.assign(node_count, 0);
      edge_mask.assign(edge_count, 0);
      reach.assign(node_count, 0);
      queue.assign(node_count, 0);
      queued.assign(node_count, 0);
    }
  }
};

/// Runs `trials` traversal trials (Algorithm 3.1), accumulating per-node
/// reach counts into `ws.reach_count`.
void RunTraversalTrials(const CsrSnapshot& csr,
                        const CsrThresholds& thresholds, uint32_t source,
                        int64_t trials, InlineRng rng, ShardWorkspace& ws) {
  const uint64_t* const node_t = thresholds.node.data();
  const uint64_t* const edge_t = thresholds.edge.data();
  const uint32_t* const out_offset = csr.out_offset.data();
  const uint32_t* const out_to = csr.out_to.data();
  for (int64_t trial = 0; trial < trials; ++trial) {
    const int64_t epoch = ++ws.epoch;
    ws.stack.clear();
    ws.last_sim[source] = epoch;
    const uint64_t source_t = node_t[source];
    if (source_t == kThreshCertain ||
        (source_t != kThreshNever && DrawAgainst(rng, source_t))) {
      ++ws.reach_count[source];
      ws.stack.push_back(source);
    }
    while (!ws.stack.empty()) {
      const uint32_t x = ws.stack.back();
      ws.stack.pop_back();
      const uint32_t end = out_offset[x + 1];
      for (uint32_t i = out_offset[x]; i < end; ++i) {
        // One coin per edge per trial: x expands at most once per trial.
        const uint64_t et = edge_t[i];
        if (et != kThreshCertain &&
            (et == kThreshNever || !DrawAgainst(rng, et))) {
          continue;
        }
        const uint32_t y = out_to[i];
        if (ws.last_sim[y] == epoch) continue;
        ws.last_sim[y] = epoch;
        const uint64_t nt = node_t[y];
        if (nt == kThreshCertain ||
            (nt != kThreshNever && DrawAgainst(rng, nt))) {
          ++ws.reach_count[y];
          ws.stack.push_back(y);
        }
      }
    }
  }
}

constexpr int kLanes = 64;

/// 64 independent Bernoulli(threshold / 2^53) coins, one per bit. Lane j
/// compares a uniform 53-bit x_j with the threshold most significant bit
/// first, and word k supplies bit 52 - k of every lane's x_j at once. A
/// lane is decided at its first bit that differs from the threshold's:
/// x_j < threshold iff that bit is 0 in x_j and 1 in the threshold. Each
/// word decides about half the undecided lanes, so a mask costs about 7
/// words rather than 64. The draw also stops at the threshold's lowest
/// set bit: a lane still equal to the threshold there has x_j >= it.
inline uint64_t DrawLaneMask(InlineRng& rng, uint64_t threshold) {
  const int lowest = __builtin_ctzll(threshold);
  uint64_t undecided = ~uint64_t{0};
  uint64_t accept = 0;
  for (int bit = 52;; --bit) {
    const uint64_t word = rng.Next();
    const uint64_t threshold_bit = uint64_t{0} - ((threshold >> bit) & 1);
    accept |= undecided & ~word & threshold_bit;
    undecided &= ~(word ^ threshold_bit);
    if (bit == lowest || undecided == 0) return accept;
  }
}

/// A lane mask for one element; certain and impossible elements draw no
/// word.
inline uint64_t LaneMask(InlineRng& rng, uint64_t threshold) {
  if (threshold == kThreshCertain) return ~uint64_t{0};
  if (threshold == kThreshNever) return 0;
  return DrawLaneMask(rng, threshold);
}

/// Runs `trials` naive trials 64 at a time: every node and then every
/// edge draws its lane mask, reach masks propagate from the source by
/// AND/OR over a worklist, and each node counts the lanes it was reached
/// and present in. Masks only grow, so the worklist drains on cyclic
/// graphs too, and its fixpoint does not depend on the visiting order.
void RunLaneTrials(const CsrSnapshot& csr, const CsrThresholds& thresholds,
                   uint32_t source, int64_t trials, InlineRng rng,
                   ShardWorkspace& ws) {
  const uint32_t n = csr.num_nodes();
  const uint32_t m = csr.num_edges();
  const uint32_t* const out_offset = csr.out_offset.data();
  const uint32_t* const out_to = csr.out_to.data();
  uint64_t* const node_mask = ws.node_mask.data();
  uint64_t* const edge_mask = ws.edge_mask.data();
  uint64_t* const reach = ws.reach.data();
  uint32_t* const queue = ws.queue.data();
  uint8_t* const queued = ws.queued.data();
  for (int64_t first = 0; first < trials; first += kLanes) {
    const int64_t lanes = std::min<int64_t>(kLanes, trials - first);
    const uint64_t live =
        lanes == kLanes ? ~uint64_t{0} : (uint64_t{1} << lanes) - 1;
    for (uint32_t i = 0; i < n; ++i) {
      node_mask[i] = LaneMask(rng, thresholds.node[i]);
    }
    for (uint32_t i = 0; i < m; ++i) {
      edge_mask[i] = LaneMask(rng, thresholds.edge[i]);
    }
    std::fill(reach, reach + n, uint64_t{0});
    // Masking the source's lanes masks every node's: reach only flows
    // out of the source.
    reach[source] = node_mask[source] & live;
    if (reach[source] == 0) continue;
    uint32_t head = 0;
    uint32_t size = 1;
    queue[0] = source;
    queued[source] = 1;
    while (size > 0) {
      const uint32_t x = queue[head];
      head = head + 1 == n ? 0 : head + 1;
      --size;
      queued[x] = 0;
      const uint64_t from = reach[x];
      const uint32_t end = out_offset[x + 1];
      for (uint32_t i = out_offset[x]; i < end; ++i) {
        const uint32_t y = out_to[i];
        const uint64_t grown = from & edge_mask[i] & node_mask[y] & ~reach[y];
        if (grown == 0) continue;
        reach[y] |= grown;
        if (!queued[y]) {
          queued[y] = 1;
          const uint32_t tail = head + size;
          queue[tail >= n ? tail - n : tail] = y;
          ++size;
        }
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      ws.reach_count[i] += __builtin_popcountll(reach[i]);
    }
  }
}

}  // namespace

Result<McShardTallies> TallyReliabilityMcShards(
    const CsrQuerySnapshot& snapshot, const McOptions& options,
    int64_t shard_begin, int64_t shard_end) {
  BIORANK_RETURN_IF_ERROR(ValidateMcOptions(options));
  if (snapshot.source == kCsrInvalid ||
      snapshot.source >= snapshot.csr.num_nodes()) {
    return Status::InvalidArgument("MC snapshot has no valid source node");
  }
  const CsrSnapshot& csr = snapshot.csr;
  const uint32_t n = csr.num_nodes();
  const uint32_t m = csr.num_edges();

  Result<std::vector<int64_t>> plan =
      PlanTrialShards(options.trials, options.shard_trials);
  if (!plan.ok()) return plan.status();
  const std::vector<int64_t>& shards = plan.value();
  if (shard_begin < 0 || shard_end < shard_begin ||
      shard_end > static_cast<int64_t>(shards.size())) {
    return Status::OutOfRange(
        "MC shard range [" + std::to_string(shard_begin) + ", " +
        std::to_string(shard_end) + ") is outside the " +
        std::to_string(shards.size()) + "-shard schedule");
  }
  const int64_t range = shard_end - shard_begin;

  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::Global();
  const int max_parallelism = options.num_threads == 0
                                  ? ThreadPool::kUnlimitedParallelism
                                  : options.num_threads;

  const CsrThresholds thresholds(csr);
  std::vector<ShardWorkspace> workspaces(pool.slot_count());
  pool.ParallelFor(
      range,
      [&](int slot, int64_t offset) {
        const int64_t shard = shard_begin + offset;
        ShardWorkspace& ws = workspaces[slot];
        if (ws.reach_count.empty()) ws.Init(n, m, options.mode);
        // Same per-shard stream as Rng::ForStream(seed, shard).
        InlineRng rng(DeriveStreamSeed(options.seed,
                                       static_cast<uint64_t>(shard)));
        if (options.mode == McOptions::Mode::kTraversal) {
          RunTraversalTrials(csr, thresholds, snapshot.source, shards[shard],
                             rng, ws);
        } else {
          RunLaneTrials(csr, thresholds, snapshot.source, shards[shard], rng,
                        ws);
        }
      },
      max_parallelism);

  // Dense integer totals, then one expansion back to original NodeId
  // indexing (dead nodes count 0).
  std::vector<int64_t> totals(n, 0);
  for (const ShardWorkspace& ws : workspaces) {
    if (ws.reach_count.empty()) continue;
    for (uint32_t i = 0; i < n; ++i) totals[i] += ws.reach_count[i];
  }
  McShardTallies tallies;
  for (int64_t shard = shard_begin; shard < shard_end; ++shard) {
    tallies.trials += shards[shard];
  }
  tallies.counts.assign(static_cast<size_t>(csr.orig_capacity()), 0);
  for (uint32_t i = 0; i < n; ++i) {
    tallies.counts[static_cast<size_t>(csr.orig_id[i])] = totals[i];
  }
  return tallies;
}

Result<McEstimate> EstimateReliabilityMcOnSnapshot(
    const CsrQuerySnapshot& snapshot, const McOptions& options) {
  // One full pass over the shard schedule. Expressing the one-shot
  // estimator through the resumable tally keeps the two structurally
  // incapable of drifting: an incremental refinement that covers the
  // whole schedule sums exactly these integers.
  Result<std::vector<int64_t>> plan =
      PlanTrialShards(options.trials, options.shard_trials);
  if (!plan.ok()) return plan.status();
  Result<McShardTallies> tallies = TallyReliabilityMcShards(
      snapshot, options, 0, static_cast<int64_t>(plan.value().size()));
  if (!tallies.ok()) return tallies.status();
  McEstimate estimate;
  estimate.trials = options.trials;
  estimate.scores.assign(tallies.value().counts.size(), 0.0);
  for (size_t i = 0; i < estimate.scores.size(); ++i) {
    estimate.scores[i] = static_cast<double>(tallies.value().counts[i]) /
                         static_cast<double>(options.trials);
  }
  return estimate;
}

Result<McEstimate> EstimateReliabilityMc(const QueryGraph& query_graph,
                                         const McOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  BIORANK_RETURN_IF_ERROR(ValidateMcOptions(options));
  Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(query_graph);
  if (!snapshot.ok()) return snapshot.status();
  return EstimateReliabilityMcOnSnapshot(snapshot.value(), options);
}

}  // namespace biorank
