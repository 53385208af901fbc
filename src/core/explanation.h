// Evidence-path explanations: the highest-probability source-to-
// answer paths, formatted so a scientist can see why an answer ranked
// where it did.

#ifndef BIORANK_CORE_EXPLANATION_H_
#define BIORANK_CORE_EXPLANATION_H_

#include <string>
#include <vector>

#include "core/query_graph.h"
#include "util/status.h"

namespace biorank {

/// One loopless evidence path from the query node to an answer, with its
/// existence probability (the product of every node and edge probability
/// along it, the source included).
struct EvidencePath {
  std::vector<NodeId> nodes;  ///< source ... target, in order.
  std::vector<EdgeId> edges;  ///< Parallel to consecutive node pairs.
  double probability = 0.0;

  /// Number of edges.
  int length() const { return static_cast<int>(edges.size()); }
};

/// Options for evidence-path extraction.
struct ExplanationOptions {
  int max_paths = 5;  ///< How many paths to return (k of k-best).
};

/// Returns the k most probable loopless paths from the query node to
/// `target`, strongest first — the provenance a biologist asks for when
/// a function ranks high ("which records support this?"). Implemented as
/// Yen's k-shortest-paths over -log(p*q) edge weights with a Dijkstra
/// core, so it handles cycles in the entity graph.
///
/// Returns an empty vector when the target is unreachable. Fails on
/// invalid targets or non-positive max_paths.
Result<std::vector<EvidencePath>> ExplainAnswer(
    const QueryGraph& query_graph, NodeId target,
    const ExplanationOptions& options = {});

/// Renders one path like
///   "query -> ABCC8 [q=1] -> EG:GO:0008281:Reviewed [q=0.95] -> GO:0008281"
/// using node labels (ids when unlabeled).
std::string FormatEvidencePath(const QueryGraph& query_graph,
                               const EvidencePath& path);

}  // namespace biorank

#endif  // BIORANK_CORE_EXPLANATION_H_
