#include "core/ranking.h"

#include <algorithm>

#include "core/closed_form.h"
#include "core/reduction.h"
#include "core/reliability_exact.h"
#include "core/topological.h"

namespace biorank {

const char* RankingMethodName(RankingMethod method) {
  switch (method) {
    case RankingMethod::kReliability:
      return "Rel";
    case RankingMethod::kPropagation:
      return "Prop";
    case RankingMethod::kDiffusion:
      return "Diff";
    case RankingMethod::kInEdge:
      return "InEdge";
    case RankingMethod::kPathCount:
      return "PathC";
  }
  return "?";
}

std::vector<RankingMethod> AllRankingMethods() {
  return {RankingMethod::kReliability, RankingMethod::kPropagation,
          RankingMethod::kDiffusion, RankingMethod::kInEdge,
          RankingMethod::kPathCount};
}

std::vector<RankedAnswer> RankAnswers(const std::vector<NodeId>& answers,
                                      const std::vector<double>& scores,
                                      double tie_epsilon) {
  std::vector<RankedAnswer> ranked;
  ranked.reserve(answers.size());
  for (NodeId a : answers) {
    double score =
        (a >= 0 && static_cast<size_t>(a) < scores.size()) ? scores[a] : 0.0;
    ranked.push_back(RankedAnswer{a, score, 0, 0});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedAnswer& x, const RankedAnswer& y) {
              if (x.score != y.score) return x.score > y.score;
              return x.node < y.node;
            });
  // Chain-group ties: a new group starts when the gap to the previous
  // score exceeds tie_epsilon.
  size_t group_start = 0;
  for (size_t i = 0; i <= ranked.size(); ++i) {
    bool boundary =
        i == ranked.size() ||
        (i > 0 && ranked[i - 1].score - ranked[i].score > tie_epsilon);
    if (boundary && i > group_start) {
      for (size_t j = group_start; j < i; ++j) {
        ranked[j].rank_lo = static_cast<int>(group_start) + 1;
        ranked[j].rank_hi = static_cast<int>(i);
      }
      group_start = i;
    }
  }
  return ranked;
}

Ranker::Ranker(RankerOptions options) : options_(options) {}

Result<std::vector<double>> Ranker::ReliabilityScores(
    const QueryGraph& query_graph) const {
  switch (options_.reliability_engine) {
    case ReliabilityEngine::kClosedForm: {
      Result<std::vector<double>> per_answer =
          ClosedFormReliabilityAllAnswers(query_graph);
      if (!per_answer.ok()) return per_answer.status();
      // Spread the per-answer values into a NodeId-indexed vector.
      std::vector<double> scores(query_graph.graph.node_capacity(), 0.0);
      for (size_t i = 0; i < query_graph.answers.size(); ++i) {
        scores[query_graph.answers[i]] = per_answer.value()[i];
      }
      return scores;
    }
    case ReliabilityEngine::kExact: {
      Result<std::vector<double>> per_answer =
          ExactReliabilityAllAnswers(query_graph);
      if (!per_answer.ok()) return per_answer.status();
      std::vector<double> scores(query_graph.graph.node_capacity(), 0.0);
      for (size_t i = 0; i < query_graph.answers.size(); ++i) {
        scores[query_graph.answers[i]] = per_answer.value()[i];
      }
      return scores;
    }
    case ReliabilityEngine::kAuto: {
      Result<std::vector<double>> per_answer =
          ClosedFormReliabilityAllAnswers(query_graph);
      if (per_answer.ok()) {
        std::vector<double> scores(query_graph.graph.node_capacity(), 0.0);
        for (size_t i = 0; i < query_graph.answers.size(); ++i) {
          scores[query_graph.answers[i]] = per_answer.value()[i];
        }
        return scores;
      }
      [[fallthrough]];
    }
    case ReliabilityEngine::kMonteCarlo: {
      if (options_.reduce_before_mc) {
        QueryGraph reduced = query_graph;
        ReduceQueryGraph(reduced);
        Result<McEstimate> estimate =
            EstimateReliabilityMc(reduced, options_.mc);
        if (!estimate.ok()) return estimate.status();
        // Reduction preserves NodeIds (tombstones), so the score vector
        // already lines up with the original graph's answer ids.
        return std::move(estimate.value().scores);
      }
      Result<McEstimate> estimate =
          EstimateReliabilityMc(query_graph, options_.mc);
      if (!estimate.ok()) return estimate.status();
      return std::move(estimate.value().scores);
    }
  }
  return Status::Internal("unknown reliability engine");
}

Result<std::vector<double>> Ranker::ScoreAllNodes(
    const QueryGraph& query_graph, RankingMethod method) const {
  switch (method) {
    case RankingMethod::kReliability:
      return ReliabilityScores(query_graph);
    case RankingMethod::kPropagation: {
      Result<IterativeScores> r = Propagate(query_graph, options_.propagation);
      if (!r.ok()) return r.status();
      return std::move(r.value().scores);
    }
    case RankingMethod::kDiffusion: {
      Result<IterativeScores> r = Diffuse(query_graph, options_.diffusion);
      if (!r.ok()) return r.status();
      return std::move(r.value().scores);
    }
    case RankingMethod::kInEdge:
      return InEdgeScores(query_graph);
    case RankingMethod::kPathCount:
      return PathCountScores(query_graph);
  }
  return Status::Internal("unknown ranking method");
}

Result<std::vector<RankedAnswer>> Ranker::Rank(const QueryGraph& query_graph,
                                               RankingMethod method) const {
  Result<std::vector<double>> scores = ScoreAllNodes(query_graph, method);
  if (!scores.ok()) return scores.status();
  return RankAnswers(query_graph.answers, scores.value());
}

}  // namespace biorank
