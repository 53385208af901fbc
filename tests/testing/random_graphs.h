#ifndef BIORANK_TESTS_TESTING_RANDOM_GRAPHS_H_
#define BIORANK_TESTS_TESTING_RANDOM_GRAPHS_H_

#include <string>
#include <vector>

#include "core/query_graph.h"
#include "util/rng.h"

namespace biorank::testing {

/// Parameters for random layered DAGs. The shape mimics the paper's
/// scientific-workflow query graphs: a source, several layers of records,
/// and a final layer of answers, with forward edges between consecutive
/// (and occasionally skipping) layers.
struct RandomDagOptions {
  int layers = 3;               ///< Interior layers between source and answers.
  int nodes_per_layer = 4;
  int answers = 3;
  double edge_density = 0.5;    ///< Probability of each candidate edge.
  double skip_density = 0.1;    ///< Probability of layer-skipping edges.
  double min_node_p = 0.3;      ///< Node probabilities drawn from [min, 1].
  double min_edge_q = 0.2;      ///< Edge probabilities drawn from [min, 1].
  bool certain_nodes = false;   ///< Force all node probabilities to 1.
};

/// Builds a random layered DAG query graph. Every answer is guaranteed at
/// least one incoming edge, and the source at least one outgoing edge, so
/// query graphs are never trivially disconnected.
QueryGraph MakeRandomLayeredDag(Rng& rng, const RandomDagOptions& options);

/// Builds a random out-tree rooted at the source with `depth` levels and
/// `branching` children per node; answers are the leaves. Used to test
/// Proposition 3.1 (reliability == propagation on trees).
QueryGraph MakeRandomTree(Rng& rng, int depth, int branching,
                          bool certain_nodes);

/// Builds a small random digraph (possibly cyclic) over `num_nodes` nodes
/// with uniform edge probability `edge_density`; answers are `num_answers`
/// distinct non-source nodes. Used for cycle handling tests.
QueryGraph MakeRandomDigraph(Rng& rng, int num_nodes, double edge_density,
                             int num_answers);

/// One graph per round, cycling through the three generators so a sweep
/// covers DAGs, trees, and cyclic digraphs of varying size and density.
QueryGraph MakeRoundRobinGraph(Rng& rng, int round);

/// Reshapes `query_graph` the way evidence deltas do: tombstones some
/// edges, adds a parallel copy (fresh probability) beside others, and
/// appends a new node wired from an existing node into an answer. The
/// source and answers stay valid.
void ApplyDeltaShapes(Rng& rng, QueryGraph& query_graph);

/// The seeded restriction/canonicalization corpus: 40 round-robin graphs,
/// each followed by a delta-shaped copy. The canonical-key and iterative
/// golden fixtures sweep it, and so does the 64-lane MC kernel's check
/// against exact reliability.
std::vector<QueryGraph> MakeRestrictionCorpus();

/// 64 random layered DAGs in the serving ledger's fresh-DAG shape (3
/// layers of 6 nodes, 12 answers; stream i of seed 20260808). The
/// factoring golden sweeps them as "dag-<i>".
std::vector<QueryGraph> MakeLedgerDagCorpus();

/// Whether the alive part of `query_graph` has no directed cycle (a
/// self-loop counts as one), by a depth-first search over the pointer
/// graph.
bool IsAcyclic(const QueryGraph& query_graph);

/// The first difference between two query graphs, or "" if they are the
/// same: source and answers, then node by node (alive flag, probability
/// bits, alive out- and in-edge ids in adjacency order), then edge by
/// edge (alive flag, endpoints, probability bits), over the full id
/// ranges, tombstones included.
std::string GraphDifference(const QueryGraph& a, const QueryGraph& b);

/// `graph` with its alive nodes renumbered by a random permutation and
/// its alive edges inserted in a random order; `relabel` maps each
/// original node id to its new id.
QueryGraph RelabeledCopy(const QueryGraph& graph, Rng& rng,
                         std::vector<NodeId>& relabel);

}  // namespace biorank::testing

#endif  // BIORANK_TESTS_TESTING_RANDOM_GRAPHS_H_
