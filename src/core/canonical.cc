#include "core/canonical.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/graph_algo.h"
#include "util/rng.h"

namespace biorank {

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 14695981039346656037ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Order-sensitive 64-bit combine built on SplitMix64. Colors are only an
/// ordering device — the canonical repr is a full serialization — so a
/// hash collision can cost a cache miss but never a wrong key.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  return SplitMix64Next(state);
}

constexpr uint8_t kRoleSource = 1;
constexpr uint8_t kRoleTarget = 2;

/// Dense, label-free view of the alive part of a query graph.
struct LabelView {
  int n = 0;
  std::vector<double> p;
  std::vector<uint64_t> p_bits;
  std::vector<uint8_t> role;
  struct Edge {
    int from = 0;
    int to = 0;
    double q = 0.0;
    uint64_t q_bits = 0;
  };
  std::vector<Edge> edges;
  std::vector<std::vector<int>> out;
  std::vector<std::vector<int>> in;
};

LabelView BuildView(const QueryGraph& query_graph) {
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  LabelView view;
  std::vector<int> dense(graph.node_capacity(), -1);
  for (NodeId id : graph.AliveNodes()) {
    dense[id] = view.n++;
    const GraphNode& node = graph.node(id);
    view.p.push_back(node.p);
    view.p_bits.push_back(DoubleBits(node.p));
    view.role.push_back(0);
  }
  view.role[dense[query_graph.source]] |= kRoleSource;
  for (NodeId t : query_graph.answers) view.role[dense[t]] |= kRoleTarget;
  view.out.resize(view.n);
  view.in.resize(view.n);
  for (EdgeId e : graph.AliveEdges()) {
    const GraphEdge& edge = graph.edge(e);
    LabelView::Edge dense_edge;
    dense_edge.from = dense[edge.from];
    dense_edge.to = dense[edge.to];
    dense_edge.q = edge.q;
    dense_edge.q_bits = DoubleBits(edge.q);
    int index = static_cast<int>(view.edges.size());
    view.edges.push_back(dense_edge);
    view.out[dense_edge.from].push_back(index);
    view.in[dense_edge.to].push_back(index);
  }
  return view;
}

int CountClasses(const std::vector<uint64_t>& colors) {
  std::vector<uint64_t> sorted = colors;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return static_cast<int>(sorted.size());
}

/// Weisfeiler-Lehman color refinement: each round folds the sorted
/// multisets of (edge q, neighbor color) signatures — out- and in-edges
/// separately — into every node's color, until the partition stops
/// splitting.
void Refine(const LabelView& view, std::vector<uint64_t>& colors) {
  int classes = CountClasses(colors);
  std::vector<uint64_t> next(colors.size());
  std::vector<uint64_t> signature;
  for (int round = 0; round < view.n; ++round) {
    for (int i = 0; i < view.n; ++i) {
      uint64_t h = Mix(colors[static_cast<size_t>(i)], 0xA1);
      signature.clear();
      for (int e : view.out[i]) {
        signature.push_back(
            Mix(view.edges[e].q_bits, colors[view.edges[e].to]));
      }
      std::sort(signature.begin(), signature.end());
      for (uint64_t s : signature) h = Mix(h, s);
      h = Mix(h, 0xB2);
      signature.clear();
      for (int e : view.in[i]) {
        signature.push_back(
            Mix(view.edges[e].q_bits, colors[view.edges[e].from]));
      }
      std::sort(signature.begin(), signature.end());
      for (uint64_t s : signature) h = Mix(h, s);
      next[static_cast<size_t>(i)] = h;
    }
    colors.swap(next);
    int next_classes = CountClasses(colors);
    if (next_classes == classes) break;  // Partition stable: fixpoint.
    classes = next_classes;
  }
}

void AppendHex(std::string& out, uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  out += buffer;
}

/// Serializes the graph under the total node order induced by discrete
/// colors. Equal strings imply identical labeled probabilistic graphs.
std::string SerializeOrdered(const LabelView& view,
                             const std::vector<uint64_t>& colors,
                             std::vector<int>* position_out) {
  std::vector<int> order(static_cast<size_t>(view.n));
  for (int i = 0; i < view.n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return colors[static_cast<size_t>(a)] < colors[static_cast<size_t>(b)];
  });
  std::vector<int> position(static_cast<size_t>(view.n));
  for (int pos = 0; pos < view.n; ++pos) {
    position[static_cast<size_t>(order[static_cast<size_t>(pos)])] = pos;
  }
  if (position_out != nullptr) *position_out = position;

  std::string out;
  out.reserve(32 + 32 * static_cast<size_t>(view.n) +
              40 * view.edges.size());
  out += "g " + std::to_string(view.n) + " " +
         std::to_string(view.edges.size()) + "\n";
  for (int pos = 0; pos < view.n; ++pos) {
    int node = order[static_cast<size_t>(pos)];
    out += "v " + std::to_string(pos) + " ";
    AppendHex(out, view.p_bits[static_cast<size_t>(node)]);
    out += " " + std::to_string(view.role[static_cast<size_t>(node)]) + "\n";
  }
  struct EdgeTuple {
    int from;
    int to;
    uint64_t q_bits;
  };
  std::vector<EdgeTuple> tuples;
  tuples.reserve(view.edges.size());
  for (const LabelView::Edge& edge : view.edges) {
    tuples.push_back({position[static_cast<size_t>(edge.from)],
                      position[static_cast<size_t>(edge.to)], edge.q_bits});
  }
  std::sort(tuples.begin(), tuples.end(),
            [](const EdgeTuple& a, const EdgeTuple& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.q_bits < b.q_bits;
            });
  for (const EdgeTuple& t : tuples) {
    out += "e " + std::to_string(t.from) + " " + std::to_string(t.to) + " ";
    AppendHex(out, t.q_bits);
    out += "\n";
  }
  return out;
}

/// Individualization-refinement search for the lexicographically smallest
/// serialization. Within the leaf budget every member of the first
/// ambiguous color class is tried, which makes the result a true
/// canonical form; past the budget only the first branch is kept (still
/// deterministic, possibly non-canonical — a cache-hit-rate concern, not
/// a correctness one).
struct Canonizer {
  const LabelView& view;
  int leaves_left;
  std::string best;
  std::vector<int> best_position;

  void Run(std::vector<uint64_t> colors) {
    Refine(view, colors);
    // Find the ambiguous class with the smallest color value.
    std::vector<int> order(static_cast<size_t>(view.n));
    for (int i = 0; i < view.n; ++i) order[static_cast<size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return colors[static_cast<size_t>(a)] < colors[static_cast<size_t>(b)];
    });
    std::vector<int> ambiguous;
    for (size_t i = 0; i < order.size();) {
      size_t j = i;
      while (j < order.size() &&
             colors[static_cast<size_t>(order[j])] ==
                 colors[static_cast<size_t>(order[i])]) {
        ++j;
      }
      if (j - i > 1) {
        ambiguous.assign(order.begin() + static_cast<long>(i),
                         order.begin() + static_cast<long>(j));
        break;
      }
      i = j;
    }
    if (ambiguous.empty()) {
      std::vector<int> position;
      std::string repr = SerializeOrdered(view, colors, &position);
      --leaves_left;
      if (best.empty() || repr < best) {
        best = std::move(repr);
        best_position = std::move(position);
      }
      return;
    }
    std::sort(ambiguous.begin(), ambiguous.end());
    bool first = true;
    for (int node : ambiguous) {
      if (!first && leaves_left <= 0) break;
      first = false;
      std::vector<uint64_t> branch = colors;
      branch[static_cast<size_t>(node)] =
          Mix(branch[static_cast<size_t>(node)], 0xC3);
      Run(std::move(branch));
    }
  }
};

/// Canonical labeling of `query_graph`: repr + the original-dense-id ->
/// canonical-position map.
CanonicalKey CanonicalizeView(const LabelView& view,
                              const CanonicalizeOptions& options,
                              std::vector<int>& position_out) {
  std::vector<uint64_t> colors(static_cast<size_t>(view.n));
  for (int i = 0; i < view.n; ++i) {
    colors[static_cast<size_t>(i)] =
        Mix(view.p_bits[static_cast<size_t>(i)],
            view.role[static_cast<size_t>(i)]);
  }
  Canonizer canonizer{view, std::max(1, options.max_label_leaves), {}, {}};
  canonizer.Run(std::move(colors));
  CanonicalKey key;
  key.repr = std::move(canonizer.best);
  key.hash = Fnv1a64(key.repr);
  position_out = std::move(canonizer.best_position);
  return key;
}

/// Fills `provenance` from the restriction's kept nodes (ascending
/// original ids). Only kept nodes' out-edges can land in the subgraph, so
/// the scan is proportional to the candidate's footprint, not the full
/// graph (re-canonicalization runs once per answer per delta).
template <typename IsKept>
void CollectProvenance(const ProbabilisticEntityGraph& graph,
                       std::vector<NodeId> kept_nodes, IsKept is_kept,
                       CandidateProvenance& provenance) {
  for (NodeId id : kept_nodes) {
    graph.ForEachOutEdge(id, [&](EdgeId e) {
      if (is_kept(graph.edge(e).to)) provenance.edges.push_back(e);
    });
  }
  std::sort(provenance.edges.begin(), provenance.edges.end());
  provenance.nodes = std::move(kept_nodes);
}

/// Target-first restriction over the flat snapshot. A backward BFS from
/// `target` marks CoReach(target); a forward BFS from the source then
/// expands only marked nodes. Every node on a source path into
/// CoReach(target) is itself in CoReach(target), so the walk visits
/// exactly Reach(source) ∩ CoReach(target), the pointer restriction's
/// node set, and touches nothing outside the target's ancestors. The
/// subgraph is built straight from the kept nodes' out-segments: nodes in
/// ascending original id, each node's out-edges in segment order (the
/// pointer graph's adjacency order), no labels.
QueryGraph RestrictToTarget(const QueryGraph& query_graph,
                            const CsrSnapshot& csr, NodeId target,
                            CandidateProvenance* provenance) {
  // Per dense node: kUnseen, kCoReach, kKept, or (once the kept set is
  // final) its id in the restricted graph.
  constexpr int32_t kUnseen = -1;
  constexpr int32_t kCoReach = -2;
  constexpr int32_t kKept = -3;
  std::vector<int32_t> slot(csr.num_nodes(), kUnseen);
  std::vector<uint32_t> stack;
  const uint32_t source = csr.dense_id[static_cast<size_t>(query_graph.source)];
  const uint32_t sink = csr.dense_id[static_cast<size_t>(target)];

  slot[sink] = kCoReach;
  stack.push_back(sink);
  while (!stack.empty()) {
    const uint32_t x = stack.back();
    stack.pop_back();
    for (uint32_t i = csr.in_offset[x]; i < csr.in_offset[x + 1]; ++i) {
      const uint32_t y = csr.in_from[i];
      if (slot[y] == kUnseen) {
        slot[y] = kCoReach;
        stack.push_back(y);
      }
    }
  }

  std::vector<uint32_t> kept;
  auto keep = [&](uint32_t d) {
    slot[d] = kKept;
    kept.push_back(d);
  };
  if (slot[source] == kCoReach) {
    keep(source);
    stack.push_back(source);
    while (!stack.empty()) {
      const uint32_t x = stack.back();
      stack.pop_back();
      for (uint32_t i = csr.out_offset[x]; i < csr.out_offset[x + 1]; ++i) {
        const uint32_t y = csr.out_to[i];
        if (slot[y] == kCoReach) {
          keep(y);
          stack.push_back(y);
        }
      }
    }
  } else {
    keep(source);  // Target unreachable: source and target stay isolated.
  }
  if (slot[sink] != kKept) keep(sink);

  // Dense ids ascend with original ids, so sorting them fixes the
  // restricted graph's node order.
  std::sort(kept.begin(), kept.end());
  QueryGraph restricted;
  for (uint32_t d : kept) slot[d] = restricted.graph.AddNode(csr.node_p[d]);
  for (uint32_t d : kept) {
    for (uint32_t i = csr.out_offset[d]; i < csr.out_offset[d + 1]; ++i) {
      const int32_t to = slot[csr.out_to[i]];
      if (to >= 0) restricted.graph.AddEdge(slot[d], to, csr.out_q[i]).value();
    }
  }
  restricted.source = slot[source];
  restricted.answers.push_back(slot[sink]);

  if (provenance != nullptr) {
    std::vector<NodeId> kept_nodes;
    kept_nodes.reserve(kept.size());
    for (uint32_t d : kept) kept_nodes.push_back(csr.orig_id[d]);
    CollectProvenance(
        query_graph.graph, std::move(kept_nodes),
        [&](NodeId id) {
          return slot[csr.dense_id[static_cast<size_t>(id)]] >= 0;
        },
        *provenance);
  }
  return restricted;
}

/// The pointer-graph restriction (RestrictToQueryRelevantSubgraph): the
/// reference the snapshot path is differentially tested against.
QueryGraph RestrictToTargetReference(const QueryGraph& query_graph,
                                     NodeId target,
                                     CandidateProvenance* provenance) {
  std::vector<bool> kept;
  QueryGraph restricted =
      RestrictToQueryRelevantSubgraph(query_graph, {target}, &kept);
  if (provenance != nullptr) {
    std::vector<NodeId> kept_nodes;
    for (NodeId id = 0; id < query_graph.graph.node_capacity(); ++id) {
      if (kept[static_cast<size_t>(id)]) kept_nodes.push_back(id);
    }
    CollectProvenance(
        query_graph.graph, std::move(kept_nodes),
        [&](NodeId id) { return kept[static_cast<size_t>(id)]; },
        *provenance);
  }
  return restricted;
}

}  // namespace

Status ValidateCanonicalizeTargets(const QueryGraph& query_graph,
                                   const std::vector<NodeId>& targets) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  // One mark per node: 1 = an answer, 2 = an answer already targeted.
  const NodeId capacity = query_graph.graph.node_capacity();
  std::vector<uint8_t> mark(static_cast<size_t>(capacity), 0);
  for (NodeId a : query_graph.answers) mark[static_cast<size_t>(a)] = 1;
  for (NodeId target : targets) {
    if (target < 0 || target >= capacity ||
        mark[static_cast<size_t>(target)] == 0) {
      return Status::InvalidArgument(
          "canonical: target is not an answer node of the query graph");
    }
    if (mark[static_cast<size_t>(target)] == 2) {
      return Status::InvalidArgument("canonical: duplicate target " +
                                     std::to_string(target));
    }
    mark[static_cast<size_t>(target)] = 2;
  }
  return Status::OK();
}

Result<CanonicalCandidate> CanonicalizeCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options, const CsrSnapshot* graph_csr) {
  BIORANK_RETURN_IF_ERROR(ValidateCanonicalizeTargets(query_graph, {target}));
  return CanonicalizeValidatedCandidate(query_graph, target, options,
                                        graph_csr);
}

CanonicalCandidate CanonicalizeValidatedCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options, const CsrSnapshot* graph_csr) {
  // Restrict to this answer's evidence subgraph, then reduce with only
  // the source and this target protected — other answers are ordinary
  // interior nodes here, which is what lets distinct tuples share a
  // canonical form.
  CanonicalCandidate out;
  CandidateProvenance* provenance =
      options.collect_provenance ? &out.provenance : nullptr;
  QueryGraph restricted =
      graph_csr != nullptr
          ? RestrictToTarget(query_graph, *graph_csr, target, provenance)
          : RestrictToTargetReference(query_graph, target, provenance);
  out.reduction_stats = ReduceQueryGraph(restricted, options.reduction);

  LabelView view = BuildView(restricted);
  std::vector<int> position;
  out.key = CanonicalizeView(view, options, position);

  // Rebuild the reduced graph in canonical order so every isomorphic
  // input produces this exact graph (same numbering, same probability
  // bits) and downstream computations become pure functions of the key.
  std::vector<int> node_at(position.size());
  for (size_t i = 0; i < position.size(); ++i) {
    node_at[static_cast<size_t>(position[i])] = static_cast<int>(i);
  }
  for (int pos = 0; pos < view.n; ++pos) {
    int node = node_at[static_cast<size_t>(pos)];
    NodeId id =
        out.canonical.graph.AddNode(view.p[static_cast<size_t>(node)]);
    uint8_t role = view.role[static_cast<size_t>(node)];
    if (role & kRoleSource) out.canonical.source = id;
    if (role & kRoleTarget) out.canonical.answers.push_back(id);
  }
  struct EdgeTuple {
    int from;
    int to;
    uint64_t q_bits;
    double q;
  };
  std::vector<EdgeTuple> tuples;
  tuples.reserve(view.edges.size());
  for (const LabelView::Edge& edge : view.edges) {
    tuples.push_back({position[static_cast<size_t>(edge.from)],
                      position[static_cast<size_t>(edge.to)], edge.q_bits,
                      edge.q});
  }
  std::sort(tuples.begin(), tuples.end(),
            [](const EdgeTuple& a, const EdgeTuple& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.q_bits < b.q_bits;
            });
  for (const EdgeTuple& t : tuples) {
    out.canonical.graph.AddEdge(t.from, t.to, t.q).value();
  }
  out.target = out.canonical.answers.empty() ? kInvalidNode
                                             : out.canonical.answers[0];
  return out;
}

}  // namespace biorank
