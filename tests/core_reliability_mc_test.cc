#include "core/reliability_mc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "core/reliability_exact.h"
#include "core/trial_bound.h"
#include "testing/random_graphs.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace biorank {
namespace {

TEST(McTest, SingleCertainEdgeIsAlwaysReached) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 1.0);
  QueryGraph g = std::move(b).Build({t});
  McOptions options;
  options.trials = 100;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().scores[t], 1.0);
  EXPECT_DOUBLE_EQ(r.value().scores[g.source], 1.0);
}

TEST(McTest, ZeroEdgeNeverReached) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.0);
  QueryGraph g = std::move(b).Build({t});
  McOptions options;
  options.trials = 100;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().scores[t], 0.0);
}

TEST(McTest, ConvergesToFig4aReliability) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions options;
  options.trials = 200000;
  options.seed = 7;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().scores[g.answers[0]], 0.5, 0.005);
}

TEST(McTest, ConvergesToBridgeReliability) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 200000;
  options.seed = 11;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().scores[g.answers[0]], 15.0 / 32.0, 0.005);
}

TEST(McTest, NaiveAndTraversalAgreeInDistribution) {
  // Same estimator, different coins: the 64-lane naive kernel and the
  // traversal kernel land within sampling noise of each other.
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions traversal;
  traversal.trials = 100000;
  traversal.seed = 13;
  traversal.mode = McOptions::Mode::kTraversal;
  McOptions naive = traversal;
  naive.mode = McOptions::Mode::kNaive;
  Result<McEstimate> rt = EstimateReliabilityMc(g, traversal);
  Result<McEstimate> rn = EstimateReliabilityMc(g, naive);
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rn.ok());
  EXPECT_NEAR(rt.value().scores[g.answers[0]],
              rn.value().scores[g.answers[0]], 0.01);
}

TEST(McTest, UncertainTargetNodeCountsPresence) {
  // r(t) = P[reachable AND present] = q * p = 0.5 * 0.6.
  QueryGraphBuilder b;
  NodeId t = b.Node(0.6, "t");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  McOptions options;
  options.trials = 200000;
  options.seed = 17;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().scores[t], 0.3, 0.005);
}

TEST(McTest, DeterministicForFixedSeed) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 5000;
  options.seed = 99;
  Result<McEstimate> r1 = EstimateReliabilityMc(g, options);
  Result<McEstimate> r2 = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().scores, r2.value().scores);
}

TEST(McTest, DifferentSeedsDiffer) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions a;
  a.trials = 5000;
  a.seed = 1;
  McOptions b = a;
  b.seed = 2;
  Result<McEstimate> r1 = EstimateReliabilityMc(g, a);
  Result<McEstimate> r2 = EstimateReliabilityMc(g, b);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1.value().scores[g.answers[0]], r2.value().scores[g.answers[0]]);
}

TEST(McTest, MultithreadedMatchesAccuracy) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 100000;
  options.seed = 23;
  options.num_threads = 4;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().scores[g.answers[0]], 15.0 / 32.0, 0.01);
}

TEST(McTest, MultithreadedIsDeterministicGivenThreadCount) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 20000;
  options.seed = 29;
  options.num_threads = 3;
  Result<McEstimate> r1 = EstimateReliabilityMc(g, options);
  Result<McEstimate> r2 = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().scores, r2.value().scores);
}

TEST(McTest, BitIdenticalAcrossThreadCounts) {
  // The sharded engine's contract: for a fixed seed the estimate depends
  // only on (seed, trials, shard_trials, mode), never on thread count.
  // Trials span many shards (20000 / 512 -> 40 shards) so real work
  // interleaves differently per pool, yet the counts must agree exactly.
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 20000;
  options.seed = 29;
  options.num_threads = 1;  // Pure inline single-thread reference.
  Result<McEstimate> reference = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    ThreadPool pool(threads - 1);
    McOptions parallel = options;
    parallel.num_threads = threads;
    parallel.pool = &pool;
    Result<McEstimate> r = EstimateReliabilityMc(g, parallel);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().scores, reference.value().scores)
        << "thread count " << threads << " changed the estimate";
  }
}

TEST(McTest, ShardTrialsIsPartOfTheReproducibilityKey) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions a;
  a.trials = 5000;
  a.seed = 3;
  a.shard_trials = 512;
  McOptions b = a;
  b.shard_trials = 100;
  Result<McEstimate> ra = EstimateReliabilityMc(g, a);
  Result<McEstimate> rb = EstimateReliabilityMc(g, b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Different shard schedules draw from different stream sets.
  EXPECT_NE(ra.value().scores[g.answers[0]], rb.value().scores[g.answers[0]]);
  // But both still converge to the same quantity.
  EXPECT_NEAR(ra.value().scores[g.answers[0]],
              rb.value().scores[g.answers[0]], 0.05);
}

TEST(McTest, AutoThreadsMatchesExplicitPool) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions auto_options;
  auto_options.trials = 4000;
  auto_options.seed = 41;
  auto_options.num_threads = 0;  // Shared pool, whatever its size.
  ThreadPool pool(3);
  McOptions pool_options = auto_options;
  pool_options.pool = &pool;
  Result<McEstimate> r1 = EstimateReliabilityMc(g, auto_options);
  Result<McEstimate> r2 = EstimateReliabilityMc(g, pool_options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().scores, r2.value().scores);
}

TEST(McTest, NaiveModeIsAlsoThreadCountInvariant) {
  // 6000 trials = 11 full 512-trial shards plus a 368-trial one, whose
  // last 64-lane block is partial.
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 6000;
  options.seed = 53;
  options.mode = McOptions::Mode::kNaive;
  options.num_threads = 1;
  Result<McEstimate> reference = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(reference.ok());
  ThreadPool pool(3);
  for (int threads : {3, 4}) {
    McOptions parallel = options;
    parallel.num_threads = threads;
    parallel.pool = &pool;
    Result<McEstimate> r = EstimateReliabilityMc(g, parallel);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().scores, reference.value().scores)
        << threads << " threads";
  }
}

/// Sums the naive kernel's tallies over consecutive ranges of the shard
/// schedule that end at the shards where `cuts` has a bit set (bit i: a
/// range ends after shard i).
McShardTallies TallyInRanges(const CsrQuerySnapshot& snapshot,
                             const McOptions& options, int64_t num_shards,
                             uint32_t cuts) {
  McShardTallies sum;
  int64_t begin = 0;
  for (int64_t shard = 0; shard < num_shards; ++shard) {
    const bool last = shard == num_shards - 1;
    if (!last && ((cuts >> shard) & 1) == 0) continue;
    Result<McShardTallies> range =
        TallyReliabilityMcShards(snapshot, options, begin, shard + 1);
    EXPECT_TRUE(range.ok()) << range.status();
    if (!range.ok()) return sum;
    if (sum.counts.empty()) sum.counts.assign(range.value().counts.size(), 0);
    for (size_t i = 0; i < sum.counts.size(); ++i) {
      sum.counts[i] += range.value().counts[i];
    }
    sum.trials += range.value().trials;
    begin = shard + 1;
  }
  return sum;
}

TEST(McTest, NaiveTalliesAreBitIdenticalAcrossThreadsAndShardPartitions) {
  // Shard i draws only from stream (seed, i) and tallies are integers,
  // so every partition of the schedule into TallyReliabilityMcShards
  // ranges, at any thread count, sums to the one-shot counts. The trial
  // counts leave a short last shard, and shard sizes 1 and 7 run
  // partial 64-lane blocks only.
  struct Plan {
    int64_t shard_trials;
    int64_t trials;
  };
  const Plan plans[] = {{1, 9}, {7, 45}, {64, 300}, {512, 1100}};
  Rng rng(4242);
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    Result<CsrQuerySnapshot> snapshot =
        BuildCsrQuerySnapshot(testing::MakeRoundRobinGraph(rng, round));
    ASSERT_TRUE(snapshot.ok());
    for (const Plan& plan : plans) {
      McOptions options;
      options.mode = McOptions::Mode::kNaive;
      options.trials = plan.trials;
      options.shard_trials = plan.shard_trials;
      options.seed = 900 + static_cast<uint64_t>(round);
      options.num_threads = 1;
      const int64_t num_shards =
          PlanTrialShards(plan.trials, plan.shard_trials).value().size();
      Result<McShardTallies> reference = TallyReliabilityMcShards(
          snapshot.value(), options, 0, num_shards);
      ASSERT_TRUE(reference.ok());
      ASSERT_EQ(reference.value().trials, plan.trials);
      for (int threads : {3, 4}) {
        McOptions parallel = options;
        parallel.num_threads = threads;
        parallel.pool = &pool;
        Result<McShardTallies> r = TallyReliabilityMcShards(
            snapshot.value(), parallel, 0, num_shards);
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value().counts, reference.value().counts)
            << "round " << round << ", shard_trials " << plan.shard_trials
            << ", " << threads << " threads";
      }
      for (uint32_t cuts = 0; cuts < (1u << (num_shards - 1)); ++cuts) {
        McShardTallies sum =
            TallyInRanges(snapshot.value(), options, num_shards, cuts);
        EXPECT_EQ(sum.trials, plan.trials);
        EXPECT_EQ(sum.counts, reference.value().counts)
            << "round " << round << ", shard_trials " << plan.shard_trials
            << ", cuts " << cuts;
      }
    }
  }
}

TEST(McTest, NaiveCertainAndImpossibleElementsDrawNoWord) {
  // The extended graph adds certain and impossible elements, with the
  // source's new out-edges ahead of every other node's edges in draw
  // order. Had any of them drawn a word, every later mask would shift
  // and the original nodes' estimates would move.
  auto build = [](bool extended) {
    QueryGraphBuilder b;
    NodeId s = b.Source();
    NodeId a = b.Node(0.8, "a");
    NodeId c = b.Node(0.7, "c");
    NodeId u = b.Node(0.9, "u");
    b.Edge(s, a, 0.6);
    b.Edge(s, c, 0.5);
    b.Edge(a, c, 0.3);
    b.Edge(a, u, 0.55);
    b.Edge(c, u, 0.45);
    if (extended) {
      NodeId certain = b.Node(1.0, "certain");
      NodeId impossible = b.Node(0.0, "impossible");
      b.Edge(s, certain, 1.0);
      b.Edge(s, impossible, 1.0);
      b.Edge(s, u, 0.0);
      b.Edge(u, s, 1.0);
    }
    return std::move(b).Build({u});
  };
  QueryGraph base = build(false);
  QueryGraph extended = build(true);
  McOptions options;
  options.mode = McOptions::Mode::kNaive;
  options.trials = 1000;
  options.seed = 61;
  Result<McEstimate> rb = EstimateReliabilityMc(base, options);
  Result<McEstimate> re = EstimateReliabilityMc(extended, options);
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(re.ok());
  const std::vector<double>& scores = re.value().scores;
  ASSERT_EQ(scores.size(), rb.value().scores.size() + 2);
  EXPECT_EQ(std::vector<double>(scores.begin(),
                                scores.begin() + rb.value().scores.size()),
            rb.value().scores);
  EXPECT_EQ(scores[scores.size() - 2], 1.0);  // Certain, off the source.
  EXPECT_EQ(scores.back(), 0.0);              // Impossible.
}

TEST(McTest, NaiveEstimatesMatchExactReliability) {
  // Every graph of the seeded random-graph corpus that factoring resolves
  // within 20,000 calls (45 of its 80), at the serve layer's trial count for epsilon 0.02 and delta
  // 0.05: each answer's estimate lies within 0.02 of the exact value,
  // and the mean signed error over the corpus lies within 3 standard
  // errors of 0, so a bit-order or threshold slip in the lane coins
  // fails even when it stays inside the per-answer tolerance.
  const int64_t trials = RequiredMcTrials(0.02, 0.05).value();
  FactoringOptions factoring;
  factoring.max_calls = 20000;
  double error_sum = 0.0;
  double variance_sum = 0.0;
  int graphs = 0;
  std::vector<QueryGraph> corpus = testing::MakeRestrictionCorpus();
  for (size_t index = 0; index < corpus.size(); ++index) {
    const QueryGraph& graph = corpus[index];
    std::vector<double> exact;
    for (NodeId answer : graph.answers) {
      Result<double> r = ExactReliabilityFactoring(graph, answer, factoring);
      if (!r.ok()) break;
      exact.push_back(r.value());
    }
    if (exact.size() != graph.answers.size()) continue;
    McOptions options;
    options.mode = McOptions::Mode::kNaive;
    options.trials = trials;
    options.seed = 7000 + index;
    options.num_threads = 1;
    Result<McEstimate> estimate = EstimateReliabilityMc(graph, options);
    ASSERT_TRUE(estimate.ok());
    // A graph's answers share trials, so their errors may correlate:
    // bound the variance of their mean by the square of their mean
    // standard deviation.
    double graph_error = 0.0;
    double graph_sd = 0.0;
    for (size_t i = 0; i < exact.size(); ++i) {
      const double value =
          estimate.value().scores[static_cast<size_t>(graph.answers[i])];
      EXPECT_NEAR(value, exact[i], 0.02)
          << "graph " << index << ", answer " << graph.answers[i];
      graph_error += value - exact[i];
      graph_sd += std::sqrt(exact[i] * (1.0 - exact[i]) /
                            static_cast<double>(trials));
    }
    graph_error /= static_cast<double>(exact.size());
    graph_sd /= static_cast<double>(exact.size());
    error_sum += graph_error;
    variance_sum += graph_sd * graph_sd;
    ++graphs;
  }
  ASSERT_EQ(graphs, 45) << "the corpus or the factoring budget changed";
  const double mean_error = error_sum / graphs;
  const double standard_error = std::sqrt(variance_sum) / graphs;
  EXPECT_LE(std::fabs(mean_error), 3.0 * standard_error)
      << "mean signed error " << mean_error << " over " << graphs
      << " graphs";
}

TEST(McTest, RejectsNonPositiveTrials) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions options;
  options.trials = 0;
  EXPECT_FALSE(EstimateReliabilityMc(g, options).ok());
}

TEST(McTest, RejectsInvalidThreadCount) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions options;
  options.num_threads = -1;  // 0 means "full shared pool" and is valid.
  EXPECT_FALSE(EstimateReliabilityMc(g, options).ok());
}

TEST(McTest, RejectsInvalidShardTrials) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions options;
  options.shard_trials = 0;
  EXPECT_FALSE(EstimateReliabilityMc(g, options).ok());
}

TEST(McTest, RejectsInvalidQueryGraph) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0);
  QueryGraph g = std::move(b).Build({t, t});  // Duplicate answer.
  EXPECT_FALSE(EstimateReliabilityMc(g).ok());
}

TEST(McTest, HandlesCyclesWithoutHanging) {
  QueryGraphBuilder b;
  NodeId a = b.Node(1.0, "a");
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), a, 0.5);
  b.Edge(a, t, 0.5);
  b.Edge(t, a, 0.5);  // Cycle a <-> t.
  QueryGraph g = std::move(b).Build({t});
  McOptions options;
  options.trials = 10000;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  // Reliability of t: edge(s,a) and edge(a,t) both present = 0.25. The
  // cycle back-edge changes nothing.
  EXPECT_NEAR(r.value().scores[t], 0.25, 0.02);
}

TEST(TrialBoundTest, PaperExampleRoundsBelowTenThousand) {
  Result<int64_t> n = RequiredMcTrials(0.02, 0.05);
  ASSERT_TRUE(n.ok());
  // Appendix A with eps=.02, delta=.05 gives 7,896; the paper rounds to
  // "10,000 trials should be enough".
  EXPECT_EQ(n.value(), 7896);
  EXPECT_LE(n.value(), 10000);
}

TEST(TrialBoundTest, MonotoneInEpsilonAndDelta) {
  int64_t loose = RequiredMcTrials(0.05, 0.05).value();
  int64_t tight_eps = RequiredMcTrials(0.01, 0.05).value();
  int64_t tight_delta = RequiredMcTrials(0.05, 0.001).value();
  EXPECT_GT(tight_eps, loose);
  EXPECT_GT(tight_delta, loose);
}

TEST(TrialBoundTest, RejectsBadArguments) {
  EXPECT_FALSE(RequiredMcTrials(0.0, 0.05).ok());
  EXPECT_FALSE(RequiredMcTrials(-0.1, 0.05).ok());
  EXPECT_FALSE(RequiredMcTrials(1.5, 0.05).ok());
  EXPECT_FALSE(RequiredMcTrials(0.02, 0.0).ok());
  EXPECT_FALSE(RequiredMcTrials(0.02, 1.0).ok());
}

}  // namespace
}  // namespace biorank
