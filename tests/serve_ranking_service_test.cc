// The bounds-driven ranking service: top-k values must agree exactly
// with the exact per-answer reliabilities where those are computable,
// and the service output must be bit-identical with the cache on or
// off, at 1 or k threads, and across repeated requests.

#include "serve/ranking_service.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/query_graph.h"
#include "core/reliability_exact.h"
#include "testing/random_graphs.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace biorank::serve {
namespace {

using biorank::testing::MakeRandomLayeredDag;
using biorank::testing::RandomDagOptions;

/// (node, reliability) pairs for exact output comparison. Doubles are
/// compared with ==: the service's determinism contract is bit-identity.
std::vector<std::pair<NodeId, double>> Flatten(const TopKResult& result) {
  std::vector<std::pair<NodeId, double>> out;
  for (const RankedCandidate& c : result.top) {
    out.emplace_back(c.node, c.reliability);
  }
  return out;
}

std::vector<QueryGraph> MakeWorkload(int count, uint64_t seed) {
  Rng rng(seed);
  RandomDagOptions options;
  options.layers = 2;
  options.nodes_per_layer = 4;
  options.answers = 6;
  std::vector<QueryGraph> graphs;
  for (int i = 0; i < count; ++i) {
    graphs.push_back(MakeRandomLayeredDag(rng, options));
  }
  return graphs;
}

TEST(RankingServiceTest, FullRankingMatchesExactReliability) {
  for (const QueryGraph& g :
       {MakeFig4aSerialParallel(), MakeFig4bWheatstoneBridge()}) {
    RankingService service;
    Result<TopKResult> result =
        service.RankTopK(g, static_cast<int>(g.answers.size()));
    ASSERT_TRUE(result.ok()) << result.status();
    Result<std::vector<double>> exact = ExactReliabilityAllAnswers(g);
    ASSERT_TRUE(exact.ok());
    ASSERT_EQ(result.value().top.size(), g.answers.size());
    for (const RankedCandidate& c : result.value().top) {
      for (size_t i = 0; i < g.answers.size(); ++i) {
        if (g.answers[i] == c.node) {
          EXPECT_NEAR(c.reliability, exact.value()[i], 1e-12)
              << "answer node " << c.node;
          EXPECT_TRUE(c.exact);
        }
      }
    }
  }
}

TEST(RankingServiceTest, CanonicalizeTargetsChecksTheBatchUpFront) {
  // The batch is validated once and every target is then canonicalized
  // unchecked, so one bad target or an invalid graph fails the call.
  QueryGraph g = MakeFig4aSerialParallel();
  RankingService service;
  const CsrSnapshot csr = BuildCsrSnapshot(g.graph);
  std::vector<CanonicalCandidate> out;
  ASSERT_TRUE(service.CanonicalizeTargets(g, g.answers, {}, out, &csr).ok());
  ASSERT_EQ(out.size(), 1u);
  Result<CanonicalCandidate> single = CanonicalizeCandidate(g, g.answers[0]);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(out[0].key.repr, single.value().key.repr);

  EXPECT_EQ(service.CanonicalizeTargets(g, {g.answers[0], g.source}, {}, out,
                                        &csr)
                .code(),
            StatusCode::kInvalidArgument);
  QueryGraph duplicated = g;
  duplicated.answers.push_back(g.answers[0]);
  EXPECT_FALSE(
      service.CanonicalizeTargets(duplicated, g.answers, {}, out, &csr).ok());
  EXPECT_EQ(service.CanonicalizeTargets(g, {g.answers[0], g.answers[0]}, {},
                                        out, &csr)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(RankingServiceTest, TopKIsSortedAndTruncated) {
  Rng rng(7);
  RandomDagOptions options;
  options.answers = 8;
  QueryGraph g = MakeRandomLayeredDag(rng, options);
  RankingService service;
  Result<TopKResult> all = service.RankTopK(g, 8);
  ASSERT_TRUE(all.ok()) << all.status();
  Result<TopKResult> top3 = service.RankTopK(g, 3);
  ASSERT_TRUE(top3.ok());
  ASSERT_EQ(top3.value().top.size(), 3u);
  for (size_t i = 1; i < all.value().top.size(); ++i) {
    EXPECT_GE(all.value().top[i - 1].reliability,
              all.value().top[i].reliability);
  }
  // The truncated request returns a prefix of the full ranking.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top3.value().top[i].node, all.value().top[i].node);
    EXPECT_EQ(top3.value().top[i].reliability,
              all.value().top[i].reliability);
  }
}

TEST(RankingServiceTest, BitIdenticalWithCacheOnAndOff) {
  std::vector<QueryGraph> workload = MakeWorkload(6, 11);
  RankingServiceOptions with_cache;
  RankingServiceOptions without_cache;
  without_cache.enable_cache = false;
  RankingService cached(with_cache);
  RankingService uncached(without_cache);
  for (int pass = 0; pass < 2; ++pass) {
    for (const QueryGraph& g : workload) {
      Result<TopKResult> a = cached.RankTopK(g, 3);
      Result<TopKResult> b = uncached.RankTopK(g, 3);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(Flatten(a.value()), Flatten(b.value()));
    }
  }
  // The warm cache actually served hits; the uncached service did not.
  EXPECT_GT(cached.cache().Stats().hits, 0u);
  EXPECT_EQ(uncached.cache().Stats().hits + uncached.cache().Stats().misses,
            0u);
}

TEST(RankingServiceTest, BitIdenticalAcrossThreadCounts) {
  std::vector<QueryGraph> workload = MakeWorkload(4, 23);
  RankingServiceOptions inline_options;
  inline_options.num_threads = 1;
  inline_options.exact_max_edges = 0;  // Force Monte Carlo on survivors.
  RankingServiceOptions pooled_options = inline_options;
  pooled_options.num_threads = 4;
  ThreadPool pool(3);
  pooled_options.pool = &pool;
  RankingService inline_service(inline_options);
  RankingService pooled_service(pooled_options);
  bool saw_mc = false;
  for (const QueryGraph& g : workload) {
    Result<TopKResult> a = inline_service.RankTopK(g, 3);
    Result<TopKResult> b = pooled_service.RankTopK(g, 3);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(Flatten(a.value()), Flatten(b.value()));
    saw_mc = saw_mc || a.value().stats.monte_carlo > 0;
  }
  EXPECT_TRUE(saw_mc) << "workload never exercised the MC path";
}

TEST(RankingServiceTest, SecondRequestIsServedFromTheCache) {
  QueryGraph g = MakeFig4aSerialParallel();
  RankingService service;
  Result<TopKResult> first = service.RankTopK(g, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.cache_hits, 0);
  EXPECT_GT(first.value().stats.cache_misses, 0);
  Result<TopKResult> second = service.RankTopK(g, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.cache_misses, 0);
  EXPECT_GT(second.value().stats.cache_hits, 0);
  EXPECT_EQ(Flatten(first.value()), Flatten(second.value()));
}

TEST(RankingServiceTest, BoundsPruneBelowTheCut) {
  // A star of answers with well-separated edge probabilities: with k=2
  // the weak answers' upper bounds sit below the strong answers' lower
  // bounds, so they must be pruned without exact/MC work.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  std::vector<NodeId> answers;
  for (int i = 0; i < 8; ++i) {
    NodeId t = b.Node(1.0);
    b.Edge(s, t, i < 2 ? 0.9 : 0.1 + 0.01 * i);
    answers.push_back(t);
  }
  QueryGraph g = std::move(b).Build(answers);
  RankingService service;
  Result<TopKResult> result = service.RankTopK(g, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().top.size(), 2u);
  EXPECT_EQ(result.value().top[0].node, answers[0]);
  EXPECT_EQ(result.value().top[1].node, answers[1]);
  EXPECT_DOUBLE_EQ(result.value().top[0].reliability, 0.9);
  EXPECT_GT(result.value().stats.pruned, 0);
  EXPECT_GT(result.value().stats.PrunedFraction(), 0.0);
}

TEST(RankingServiceTest, IsomorphicAnswersShareOneResolution) {
  // Two answers with identical evidence shape: one canonical key, one
  // computation, and the duplicate lookup counts as a hit.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId m1 = b.Node(0.9);
  NodeId m2 = b.Node(0.9);
  NodeId t1 = b.Node(0.8);
  NodeId t2 = b.Node(0.8);
  b.Edge(s, m1, 0.7);
  b.Edge(s, m2, 0.7);
  b.Edge(m1, t1, 0.6);
  b.Edge(m2, t2, 0.6);
  QueryGraph g = std::move(b).Build({t1, t2});
  RankingService service;
  Result<TopKResult> result = service.RankTopK(g, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.cache_hits, 1);
  EXPECT_EQ(result.value().stats.cache_misses, 1);
  ASSERT_EQ(result.value().top.size(), 2u);
  EXPECT_EQ(result.value().top[0].reliability,
            result.value().top[1].reliability);
}

TEST(RankingServiceTest, EmptyAnswerSetReturnsEmptyResult) {
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId m = b.Node(0.9);
  b.Edge(s, m, 0.5);
  QueryGraph g = std::move(b).Build({});
  RankingService service;
  Result<TopKResult> result = service.RankTopK(g, 3);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result.value().top.empty());
  EXPECT_EQ(result.value().stats.candidates, 0);
}

TEST(RankingServiceTest, UnreachableAnswerHasEmptyEvidenceSubgraph) {
  // An answer with no path from the query node: its query-relevant
  // subgraph is empty, its reliability is exactly 0, and it must still
  // appear in a full ranking (below every supported answer).
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId supported = b.Node(1.0);
  NodeId stranded = b.Node(1.0);
  b.Edge(s, supported, 0.7);
  QueryGraph g = std::move(b).Build({supported, stranded});
  RankingService service;
  Result<TopKResult> result = service.RankTopK(g, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().top.size(), 2u);
  EXPECT_EQ(result.value().top[0].node, supported);
  EXPECT_DOUBLE_EQ(result.value().top[0].reliability, 0.7);
  EXPECT_EQ(result.value().top[1].node, stranded);
  EXPECT_DOUBLE_EQ(result.value().top[1].reliability, 0.0);
  EXPECT_TRUE(result.value().top[1].exact);
}

TEST(RankingServiceTest, RankPreparedRejectsNullCanonicals) {
  RankingService service;
  std::vector<PreparedCandidate> prepared(1);
  prepared[0].node = 1;
  EXPECT_EQ(service.RankPrepared(prepared, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RankingServiceTest, DuplicateRankingTargetIsRejected) {
  RankingService service;
  QueryGraph duplicate = MakeFig4aSerialParallel();
  duplicate.answers = {duplicate.answers[0], duplicate.answers[0]};
  EXPECT_EQ(service.RankTopK(duplicate, 1).status().code(),
            StatusCode::kInvalidArgument);
  QueryGraph with_source = MakeFig4aSerialParallel();
  with_source.answers = {with_source.source};
  EXPECT_EQ(service.RankTopK(with_source, 1).status().code(),
            StatusCode::kInvalidArgument);
  // Rejected before any work: nothing reached the cache.
  EXPECT_EQ(service.cache().Stats().entries, 0u);
}

TEST(RankingServiceTest, InvalidRequestsAreRejected) {
  QueryGraph g = MakeFig4aSerialParallel();
  RankingService service;
  EXPECT_FALSE(service.RankTopK(g, 0).ok());
  // k larger than the answer set is clamped, not an error.
  Result<TopKResult> clamped = service.RankTopK(g, 99);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped.value().top.size(), g.answers.size());
}

class TopKProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopKProperty, ServedTopOneAgreesWithExactOrdering) {
  // With factoring switched off, survivors of the bounds resolve by
  // seeded Monte Carlo; the served top answer must still be the exact
  // best one whenever the top two are separated beyond MC resolution.
  Rng rng(9200 + GetParam());
  RandomDagOptions options;
  options.layers = 2;
  options.nodes_per_layer = 3;
  options.answers = 4;
  options.edge_density = 0.5;
  QueryGraph g = MakeRandomLayeredDag(rng, options);

  Result<std::vector<double>> exact = ExactReliabilityAllAnswers(g);
  ASSERT_TRUE(exact.ok()) << exact.status();
  size_t best = 0;
  double best_score = -1.0, second = -1.0;
  for (size_t i = 0; i < exact.value().size(); ++i) {
    if (exact.value()[i] > best_score) {
      second = best_score;
      best_score = exact.value()[i];
      best = i;
    } else if (exact.value()[i] > second) {
      second = exact.value()[i];
    }
  }
  if (best_score - second < 0.05) {
    GTEST_SKIP() << "top answers too close for a cheap MC check";
  }

  RankingServiceOptions service_options;
  service_options.exact_max_edges = 0;
  service_options.seed = 9200 + GetParam();
  RankingService service(service_options);
  Result<TopKResult> result = service.RankTopK(g, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().top.size(), 1u);
  EXPECT_EQ(result.value().top[0].node, g.answers[best]);
  const RequestStats& stats = result.value().stats;
  EXPECT_EQ(stats.exact, 0);
  if (stats.monte_carlo == 0) {
    // Only legitimate when the bounds settled every miss on their own.
    EXPECT_EQ(stats.pruned + stats.bound_exact, stats.cache_misses);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKProperty, ::testing::Range(0, 8));

}  // namespace
}  // namespace biorank::serve
