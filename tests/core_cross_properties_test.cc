// Second-round cross-algorithm properties covering the extension modules
// and cyclic inputs (the first round, core_properties_test.cc, covers the
// DAG core).

#include <gtest/gtest.h>

#include "core/reduction.h"
#include "core/reliability_bounds.h"
#include "core/reliability_exact.h"
#include "testing/random_graphs.h"
#include "util/rng.h"

namespace biorank {
namespace {

class CyclicGraphProperty : public ::testing::TestWithParam<int> {};

TEST_P(CyclicGraphProperty, ReductionPreservesReliabilityWithCycles) {
  // The Section 3.1 rules must stay sound on arbitrary digraphs, not just
  // the workflow DAGs the mediator produces.
  Rng rng(9100 + GetParam());
  QueryGraph g =
      testing::MakeRandomDigraph(rng, /*num_nodes=*/5, /*edge_density=*/0.35,
                                 /*num_answers=*/2);
  std::vector<double> before;
  bool feasible = true;
  for (NodeId t : g.answers) {
    Result<double> r = ExactReliabilityBruteForce(g, t, 24);
    if (!r.ok()) {
      feasible = false;  // Too many uncertain elements this seed.
      break;
    }
    before.push_back(r.value());
  }
  if (!feasible) GTEST_SKIP() << "seed produced too many uncertain elements";
  ReduceQueryGraph(g);
  for (size_t i = 0; i < g.answers.size(); ++i) {
    Result<double> r = ExactReliabilityBruteForce(g, g.answers[i], 24);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_NEAR(before[i], r.value(), 1e-10) << "answer " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CyclicGraphProperty, ::testing::Range(0, 8));

class BoundsVsTopKProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoundsVsTopKProperty, BoundsCertifySeparationsWithoutSimulation) {
  // If the lower bound of answer A exceeds the upper bound of answer B,
  // then A's true reliability exceeds B's — the deterministic fast path
  // for ranking decisions. Verify the certificate against exact scores.
  Rng rng(9400 + GetParam());
  testing::RandomDagOptions options;
  options.layers = 2;
  options.nodes_per_layer = 3;
  options.answers = 3;
  QueryGraph g = testing::MakeRandomLayeredDag(rng, options);
  std::vector<ReliabilityBounds> bounds;
  std::vector<double> exact;
  for (NodeId t : g.answers) {
    Result<ReliabilityBounds> b = BoundReliability(g, t);
    ASSERT_TRUE(b.ok()) << b.status();
    bounds.push_back(b.value());
    Result<double> e = ExactReliabilityFactoring(g, t);
    ASSERT_TRUE(e.ok());
    exact.push_back(e.value());
  }
  for (size_t i = 0; i < bounds.size(); ++i) {
    for (size_t j = 0; j < bounds.size(); ++j) {
      if (i == j) continue;
      if (bounds[i].lower > bounds[j].upper) {
        EXPECT_GT(exact[i], exact[j])
            << "bounds certified a false separation";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsVsTopKProperty,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace biorank
