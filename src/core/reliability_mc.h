// Monte Carlo estimation of source-target reliability (the paper's
// Algorithm 3.1) on the flat CSR snapshot, with two kernels: the lazy
// depth-first sampler that only flips coins for elements actually
// reached, and a naive sampler that flips every coin for 64 trials at a
// time.

#ifndef BIORANK_CORE_RELIABILITY_MC_H_
#define BIORANK_CORE_RELIABILITY_MC_H_

#include <cstdint>
#include <vector>

#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "util/parallel.h"
#include "util/status.h"

namespace biorank {

/// Monte Carlo estimation options (Section 3.1, Algorithm 3.1).
struct McOptions {
  /// How the random subgraph is sampled per trial. The two modes are
  /// the same estimator (each trial is one random subgraph, and a node
  /// scores the fraction of trials it was reached and present in) but
  /// draw different coins, so their estimates differ at a fixed seed.
  enum class Mode {
    /// Algorithm 3.1: one trial at a time, a depth-first traversal from
    /// the source that only flips coins for elements actually reached
    /// (the paper reports an average 3.4x speedup over a scalar naive
    /// sampler on its scenario graphs). The default: Ranker, the
    /// scenario harness and the Figure 7 reproduction run it, and
    /// tests/testdata/mc_golden.txt pins its estimates.
    kTraversal,
    /// Every element flips its coin, 64 trials at a time. Per block of
    /// 64 consecutive trials of a shard, each uncertain node and then
    /// each uncertain edge (dense CSR order) gets one 64-bit presence
    /// mask, bit j for trial j: an exact Bernoulli draw against the
    /// 53-bit threshold ceil(p * 2^53), made as a most-significant-bit-
    /// first bit-sliced compare over fresh generator words (about 7
    /// words per mask, not 64). Certain and impossible elements draw
    /// nothing. Reach masks then propagate from the source by AND/OR
    /// over a worklist, and each node adds the popcount of its reach
    /// mask, with the lanes past a shard's last trial masked off. The
    /// serve layer's RankingService runs this mode.
    kNaive,
  };

  int64_t trials = 10000;
  uint64_t seed = 42;
  Mode mode = Mode::kTraversal;
  /// Parallelism. Trials are split into fixed shards of `shard_trials`
  /// whose RNG streams depend only on (seed, shard index), and the
  /// per-shard reach counts are integers, so the estimate is bit-identical
  /// for any thread count: results depend only on (seed, trials,
  /// shard_trials, mode).
  ///
  /// 0 = use the full shared pool (`BIORANK_THREADS` or hardware
  /// concurrency); 1 = run inline on the calling thread; k > 1 = cap the
  /// pool at k concurrent threads. Negative values are rejected.
  int num_threads = 0;
  /// Trials per parallel shard. Larger shards amortize scheduling; smaller
  /// shards load-balance better. Changing this changes the RNG streams
  /// (and thus the exact estimate), so it is part of the reproducibility
  /// key. kNaive draws whole 64-trial blocks, so a multiple of 64 wastes
  /// no lanes.
  int64_t shard_trials = 512;
  /// Pool to fan shards out on; nullptr = ThreadPool::Global().
  ThreadPool* pool = nullptr;
};

/// A Monte Carlo reliability estimate.
struct McEstimate {
  /// Per-NodeId fraction of trials in which the node was reached from the
  /// source and present. Dead nodes get 0.
  std::vector<double> scores;
  int64_t trials = 0;
};

/// Estimates the reliability score of *every* node (answers included) of
/// the query graph by Monte Carlo simulation. Fails on invalid query
/// graphs or non-positive trial counts.
Result<McEstimate> EstimateReliabilityMc(const QueryGraph& query_graph,
                                         const McOptions& options = {});

/// Same estimator on a prebuilt CSR query snapshot, skipping the
/// per-call snapshot build — the fast path for callers that run many
/// batches against one graph (the Figure 7 repetition harness). Scores
/// come back indexed by the snapshot's original NodeIds, exactly like
/// EstimateReliabilityMc.
Result<McEstimate> EstimateReliabilityMcOnSnapshot(
    const CsrQuerySnapshot& snapshot, const McOptions& options = {});

/// Integer per-node reach counts for one contiguous range of the
/// deterministic shard schedule PlanTrialShards(options.trials,
/// options.shard_trials). This is the resumable half of the estimator:
/// shard i always draws from RNG stream (options.seed, i) regardless of
/// which call runs it, and the counts are integers, so summing the
/// tallies of any partition of [0, num_shards) reproduces — bit for bit
/// — the totals EstimateReliabilityMcOnSnapshot computes in one shot.
/// The serve layer's anytime refinement path rides this: each Refine
/// increment runs the next few shards and accumulates the tallies, and a
/// fully-refined estimate equals the blocking one exactly.
struct McShardTallies {
  /// Per original-NodeId reach counts over the range's trials (dead
  /// nodes count 0).
  std::vector<int64_t> counts;
  /// Trials the range covered (the sum of its shard sizes).
  int64_t trials = 0;
};
Result<McShardTallies> TallyReliabilityMcShards(
    const CsrQuerySnapshot& snapshot, const McOptions& options,
    int64_t shard_begin, int64_t shard_end);

}  // namespace biorank

#endif  // BIORANK_CORE_RELIABILITY_MC_H_
