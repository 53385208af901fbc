// The five relevance functions of Section 3 (Rel, Prop, Diff,
// InEdge, PathC) behind a single Ranker facade that scores and sorts
// answer nodes, producing the rankings evaluated in Figure 5.

#ifndef BIORANK_CORE_RANKING_H_
#define BIORANK_CORE_RANKING_H_

#include <string>
#include <vector>

#include "core/diffusion.h"
#include "core/propagation.h"
#include "core/query_graph.h"
#include "core/reliability_mc.h"
#include "util/status.h"

namespace biorank {

/// The five relevance functions of Section 3.
enum class RankingMethod {
  kReliability,  ///< Network reliability (possible-worlds semantics).
  kPropagation,  ///< Local independent-OR propagation.
  kDiffusion,    ///< Additive diffusion with flow thresholds.
  kInEdge,       ///< Number of incoming edges (deterministic).
  kPathCount,    ///< Number of source->target paths (deterministic).
};

/// Short display name matching the paper's figures:
/// "Rel", "Prop", "Diff", "InEdge", "PathC".
const char* RankingMethodName(RankingMethod method);

/// All five methods in the paper's figure order.
std::vector<RankingMethod> AllRankingMethods();

/// One ranked answer. Ties are reported as 1-based inclusive rank
/// intervals exactly like the paper's Tables 2 and 3 (e.g. a function tied
/// across positions 21-22 gets rank_lo = 21, rank_hi = 22).
struct RankedAnswer {
  NodeId node = kInvalidNode;
  double score = 0.0;
  int rank_lo = 0;
  int rank_hi = 0;
};

/// Sorts `answers` by descending score and assigns tie-aware rank
/// intervals. Scores within `tie_epsilon` of each other (chained) share a
/// tie group. Order within a group is by NodeId for determinism; the tied
/// AP evaluation treats group order as uniformly random regardless.
std::vector<RankedAnswer> RankAnswers(const std::vector<NodeId>& answers,
                                      const std::vector<double>& scores,
                                      double tie_epsilon = 1e-9);

/// How the Ranker computes reliability scores.
enum class ReliabilityEngine {
  /// Closed form for every answer when possible, otherwise Monte Carlo
  /// for all of them (the paper's observation: individual target
  /// subgraphs usually reduce completely even when the full graph
  /// doesn't).
  kAuto,
  kMonteCarlo,   ///< Algorithm 3.1 with McOptions.
  kClosedForm,   ///< Reductions only; fails on irreducible targets.
  kExact,        ///< Factoring; fails on overly complex graphs.
};

/// Configuration for the Ranker facade.
struct RankerOptions {
  McOptions mc;
  PropagationOptions propagation;
  DiffusionOptions diffusion;
  ReliabilityEngine reliability_engine = ReliabilityEngine::kAuto;
  /// Apply the Section 3.1 reduction rules before Monte Carlo reliability
  /// (the paper's fastest configuration, "R&M2").
  bool reduce_before_mc = true;
};

/// Facade that evaluates any of the five relevance functions on a query
/// graph and returns scored, tie-aware ranked answers (Definition 2.4).
///
///   Ranker ranker;
///   auto ranked = ranker.Rank(query_graph, RankingMethod::kReliability);
class Ranker {
 public:
  explicit Ranker(RankerOptions options = {});

  /// Scores every node; the answer set is scored like any other node.
  /// The returned vector is indexed by NodeId.
  Result<std::vector<double>> ScoreAllNodes(const QueryGraph& query_graph,
                                            RankingMethod method) const;

  /// Ranks the query graph's answer set under `method`, with
  /// RankAnswers' default tie epsilon.
  Result<std::vector<RankedAnswer>> Rank(const QueryGraph& query_graph,
                                         RankingMethod method) const;

  const RankerOptions& options() const { return options_; }

 private:
  Result<std::vector<double>> ReliabilityScores(
      const QueryGraph& query_graph) const;

  RankerOptions options_;
};

}  // namespace biorank

#endif  // BIORANK_CORE_RANKING_H_
