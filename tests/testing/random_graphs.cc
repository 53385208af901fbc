#include "testing/random_graphs.h"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace biorank::testing {

QueryGraph MakeRandomLayeredDag(Rng& rng, const RandomDagOptions& options) {
  QueryGraphBuilder builder;
  std::vector<std::vector<NodeId>> layers;
  layers.push_back({builder.Source()});

  auto node_p = [&]() {
    return options.certain_nodes ? 1.0
                                 : rng.NextUniform(options.min_node_p, 1.0);
  };
  auto edge_q = [&]() { return rng.NextUniform(options.min_edge_q, 1.0); };

  for (int layer = 0; layer < options.layers; ++layer) {
    std::vector<NodeId> current;
    for (int i = 0; i < options.nodes_per_layer; ++i) {
      current.push_back(builder.Node(
          node_p(), "L" + std::to_string(layer) + "N" + std::to_string(i)));
    }
    layers.push_back(current);
  }
  std::vector<NodeId> answers;
  for (int i = 0; i < options.answers; ++i) {
    answers.push_back(builder.Node(node_p(), "ans" + std::to_string(i)));
  }
  layers.push_back(answers);

  for (size_t layer = 0; layer + 1 < layers.size(); ++layer) {
    for (NodeId from : layers[layer]) {
      for (NodeId to : layers[layer + 1]) {
        if (rng.NextBernoulli(options.edge_density)) {
          builder.Edge(from, to, edge_q());
        }
      }
      // Occasional layer-skipping edges.
      for (size_t skip = layer + 2; skip < layers.size(); ++skip) {
        for (NodeId to : layers[skip]) {
          if (rng.NextBernoulli(options.skip_density)) {
            builder.Edge(from, to, edge_q());
          }
        }
      }
    }
  }
  // Guarantee connectivity hooks: each non-source layer node gets at least
  // one in-edge from the previous layer, picked uniformly.
  for (size_t layer = 1; layer < layers.size(); ++layer) {
    for (NodeId to : layers[layer]) {
      const std::vector<NodeId>& prev = layers[layer - 1];
      NodeId from =
          prev[static_cast<size_t>(rng.NextBounded(prev.size()))];
      builder.Edge(from, to, edge_q());
    }
  }
  return std::move(builder).Build(answers);
}

QueryGraph MakeRandomTree(Rng& rng, int depth, int branching,
                          bool certain_nodes) {
  QueryGraphBuilder builder;
  std::vector<NodeId> frontier = {builder.Source()};
  std::vector<NodeId> leaves;
  for (int level = 0; level < depth; ++level) {
    std::vector<NodeId> next;
    for (NodeId parent : frontier) {
      for (int child = 0; child < branching; ++child) {
        double p = certain_nodes ? 1.0 : rng.NextUniform(0.3, 1.0);
        NodeId id = builder.Node(p);
        builder.Edge(parent, id, rng.NextUniform(0.2, 1.0));
        next.push_back(id);
      }
    }
    frontier = std::move(next);
  }
  leaves = frontier;
  return std::move(builder).Build(leaves);
}

QueryGraph MakeRandomDigraph(Rng& rng, int num_nodes, double edge_density,
                             int num_answers) {
  QueryGraphBuilder builder;
  std::vector<NodeId> nodes = {builder.Source()};
  for (int i = 1; i < num_nodes; ++i) {
    nodes.push_back(builder.Node(rng.NextUniform(0.3, 1.0)));
  }
  for (int i = 0; i < num_nodes; ++i) {
    for (int j = 0; j < num_nodes; ++j) {
      if (i == j) continue;
      if (rng.NextBernoulli(edge_density)) {
        builder.Edge(nodes[i], nodes[j], rng.NextUniform(0.2, 1.0));
      }
    }
  }
  std::vector<NodeId> answers;
  for (int i = 0; i < num_answers && i + 1 < num_nodes; ++i) {
    answers.push_back(nodes[num_nodes - 1 - i]);
  }
  return std::move(builder).Build(answers);
}

QueryGraph MakeRoundRobinGraph(Rng& rng, int round) {
  switch (round % 3) {
    case 0: {
      RandomDagOptions options;
      options.layers = 2 + round % 4;
      options.nodes_per_layer = 3 + round % 5;
      options.answers = 2 + round % 4;
      options.edge_density = 0.3 + 0.02 * (round % 15);
      options.skip_density = 0.1;
      options.certain_nodes = (round % 6) == 0;
      return MakeRandomLayeredDag(rng, options);
    }
    case 1:
      return MakeRandomTree(rng, 2 + round % 3, 2 + round % 2,
                            (round % 4) == 1);
    default:
      return MakeRandomDigraph(rng, 8 + round % 10,
                               0.2 + 0.01 * (round % 10), 2 + round % 3);
  }
}

void ApplyDeltaShapes(Rng& rng, QueryGraph& query_graph) {
  ProbabilisticEntityGraph& graph = query_graph.graph;
  const EdgeId original_edges = graph.edge_capacity();
  for (EdgeId e = 0; e < original_edges; ++e) {
    if (!graph.IsValidEdge(e)) continue;
    if (rng.NextBernoulli(0.15)) {
      graph.RemoveEdge(e);
    } else if (rng.NextBernoulli(0.2)) {
      const GraphEdge edge = graph.edge(e);  // AddEdge may reallocate.
      graph.AddEdge(edge.from, edge.to, rng.NextUniform(0.2, 1.0)).value();
    }
  }
  const std::vector<NodeId> alive = graph.AliveNodes();
  const NodeId from = alive[static_cast<size_t>(rng.NextBounded(alive.size()))];
  const NodeId added = graph.AddNode(rng.NextUniform(0.3, 1.0));
  graph.AddEdge(from, added, rng.NextUniform(0.2, 1.0)).value();
  if (!query_graph.answers.empty()) {
    const NodeId answer = query_graph.answers[static_cast<size_t>(
        rng.NextBounded(query_graph.answers.size()))];
    graph.AddEdge(added, answer, rng.NextUniform(0.2, 1.0)).value();
  }
}

std::vector<QueryGraph> MakeRestrictionCorpus() {
  std::vector<QueryGraph> corpus;
  Rng rng(5150);
  Rng shapes(5151);
  for (int round = 0; round < 40; ++round) {
    QueryGraph query = MakeRoundRobinGraph(rng, round);
    QueryGraph shaped = query;
    ApplyDeltaShapes(shapes, shaped);
    corpus.push_back(std::move(query));
    corpus.push_back(std::move(shaped));
  }
  return corpus;
}

std::vector<QueryGraph> MakeLedgerDagCorpus() {
  RandomDagOptions dag;
  dag.layers = 3;
  dag.nodes_per_layer = 6;
  dag.answers = 12;
  dag.edge_density = 0.45;
  dag.skip_density = 0.15;
  std::vector<QueryGraph> corpus;
  for (uint64_t i = 0; i < 64; ++i) {
    Rng rng = Rng::ForStream(20260808, i);
    corpus.push_back(MakeRandomLayeredDag(rng, dag));
  }
  return corpus;
}

bool IsAcyclic(const QueryGraph& query_graph) {
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  // 0 unvisited, 1 on the DFS path, 2 finished.
  std::vector<int> color(static_cast<size_t>(graph.node_capacity()), 0);
  std::vector<std::pair<NodeId, std::vector<EdgeId>>> stack;
  for (NodeId root : graph.AliveNodes()) {
    if (color[static_cast<size_t>(root)] != 0) continue;
    color[static_cast<size_t>(root)] = 1;
    stack.emplace_back(root, graph.OutEdges(root));
    while (!stack.empty()) {
      auto& [node, pending] = stack.back();
      if (pending.empty()) {
        color[static_cast<size_t>(node)] = 2;
        stack.pop_back();
        continue;
      }
      const EdgeId e = pending.back();
      pending.pop_back();
      const NodeId next = graph.edge(e).to;
      if (color[static_cast<size_t>(next)] == 1) return false;
      if (color[static_cast<size_t>(next)] == 0) {
        color[static_cast<size_t>(next)] = 1;
        stack.emplace_back(next, graph.OutEdges(next));
      }
    }
  }
  return true;
}

std::string GraphDifference(const QueryGraph& a, const QueryGraph& b) {
  auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  };
  if (a.source != b.source) return "source";
  if (a.answers != b.answers) return "answers";
  const ProbabilisticEntityGraph& ga = a.graph;
  const ProbabilisticEntityGraph& gb = b.graph;
  if (ga.node_capacity() != gb.node_capacity()) return "node capacity";
  if (ga.edge_capacity() != gb.edge_capacity()) return "edge capacity";
  for (NodeId x = 0; x < ga.node_capacity(); ++x) {
    if (ga.node(x).alive != gb.node(x).alive ||
        !same_bits(ga.node(x).p, gb.node(x).p) ||
        ga.OutEdges(x) != gb.OutEdges(x) || ga.InEdges(x) != gb.InEdges(x)) {
      return "node " + std::to_string(x);
    }
  }
  for (EdgeId e = 0; e < ga.edge_capacity(); ++e) {
    const GraphEdge& ea = ga.edge(e);
    const GraphEdge& eb = gb.edge(e);
    if (ea.alive != eb.alive || ea.from != eb.from || ea.to != eb.to ||
        !same_bits(ea.q, eb.q)) {
      return "edge " + std::to_string(e);
    }
  }
  return "";
}

QueryGraph RelabeledCopy(const QueryGraph& graph, Rng& rng,
                         std::vector<NodeId>& relabel) {
  std::vector<NodeId> nodes = graph.graph.AliveNodes();
  std::vector<EdgeId> edges = graph.graph.AliveEdges();
  rng.Shuffle(nodes);
  rng.Shuffle(edges);
  QueryGraph copy;
  relabel.assign(static_cast<size_t>(graph.graph.node_capacity()),
                 kInvalidNode);
  for (NodeId id : nodes) {
    relabel[static_cast<size_t>(id)] =
        copy.graph.AddNode(graph.graph.node(id).p);
  }
  for (EdgeId e : edges) {
    const GraphEdge& edge = graph.graph.edge(e);
    copy.graph
        .AddEdge(relabel[static_cast<size_t>(edge.from)],
                 relabel[static_cast<size_t>(edge.to)], edge.q)
        .value();
  }
  copy.source = relabel[static_cast<size_t>(graph.source)];
  for (NodeId a : graph.answers) {
    copy.answers.push_back(relabel[static_cast<size_t>(a)]);
  }
  return copy;
}

}  // namespace biorank::testing
