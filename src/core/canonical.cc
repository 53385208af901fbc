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

/// Canonical labeling individualizes one node of the first ambiguous
/// color class and recurses; this caps the total number of candidate
/// labelings explored (see CanonicalKey).
constexpr int kMaxLabelLeaves = 64;

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
void Refine(const CsrSnapshot& csr, std::vector<uint64_t>& colors) {
  const uint32_t n = csr.num_nodes();
  int classes = CountClasses(colors);
  std::vector<uint64_t> next(colors.size());
  std::vector<uint64_t> signature;
  for (uint32_t round = 0; round < n; ++round) {
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t h = Mix(colors[i], 0xA1);
      signature.clear();
      for (uint32_t k = csr.out_offset[i]; k < csr.out_offset[i + 1]; ++k) {
        signature.push_back(Mix(DoubleBits(csr.out_q[k]),
                                colors[csr.out_to[k]]));
      }
      std::sort(signature.begin(), signature.end());
      for (uint64_t s : signature) h = Mix(h, s);
      h = Mix(h, 0xB2);
      signature.clear();
      for (uint32_t k = csr.in_offset[i]; k < csr.in_offset[i + 1]; ++k) {
        signature.push_back(Mix(DoubleBits(csr.in_q[k]),
                                colors[csr.in_from[k]]));
      }
      std::sort(signature.begin(), signature.end());
      for (uint64_t s : signature) h = Mix(h, s);
      next[i] = h;
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

/// One edge in canonical positions.
struct EdgeTuple {
  int from;
  int to;
  double q;
};

/// A total node order: the dense node at each canonical position, and
/// the edges as position tuples ordered by (from, to, q bits).
struct Labeling {
  std::vector<int> node_at;
  std::vector<EdgeTuple> edges;
};

Labeling MakeLabeling(const CsrSnapshot& csr, std::vector<int> node_at) {
  std::vector<int> position(node_at.size());
  for (size_t pos = 0; pos < node_at.size(); ++pos) {
    position[static_cast<size_t>(node_at[pos])] = static_cast<int>(pos);
  }
  Labeling labeling;
  labeling.edges.reserve(csr.num_edges());
  for (uint32_t d = 0; d < csr.num_nodes(); ++d) {
    for (uint32_t k = csr.out_offset[d]; k < csr.out_offset[d + 1]; ++k) {
      labeling.edges.push_back(
          {position[d], position[csr.out_to[k]], csr.out_q[k]});
    }
  }
  std::sort(labeling.edges.begin(), labeling.edges.end(),
            [](const EdgeTuple& a, const EdgeTuple& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return DoubleBits(a.q) < DoubleBits(b.q);
            });
  labeling.node_at = std::move(node_at);
  return labeling;
}

/// Serializes the graph under `labeling`. Equal strings imply identical
/// labeled probabilistic graphs.
std::string Serialize(const CsrSnapshot& csr, const std::vector<uint8_t>& role,
                      const Labeling& labeling) {
  std::string out;
  out.reserve(32 + 32 * labeling.node_at.size() +
              40 * labeling.edges.size());
  out += "g " + std::to_string(labeling.node_at.size()) + " " +
         std::to_string(labeling.edges.size()) + "\n";
  for (size_t pos = 0; pos < labeling.node_at.size(); ++pos) {
    size_t node = static_cast<size_t>(labeling.node_at[pos]);
    out += "v " + std::to_string(pos) + " ";
    AppendHex(out, DoubleBits(csr.node_p[node]));
    out += " " + std::to_string(role[node]) + "\n";
  }
  for (const EdgeTuple& t : labeling.edges) {
    out += "e " + std::to_string(t.from) + " " + std::to_string(t.to) + " ";
    AppendHex(out, DoubleBits(t.q));
    out += "\n";
  }
  return out;
}

/// Individualization-refinement search for the lexicographically smallest
/// serialization of a residue: its CSR snapshot plus one source/target
/// role byte per dense node. Within the leaf budget every member of the
/// first ambiguous color class is tried, which makes the result a true
/// canonical form; past the budget only the first branch is kept (still
/// deterministic, possibly non-canonical — a cache-hit-rate concern, not
/// a correctness one).
struct Canonizer {
  const CsrSnapshot& csr;
  const std::vector<uint8_t>& role;
  int leaves_left;
  std::string best;
  Labeling best_labeling;

  void Run(std::vector<uint64_t> colors) {
    Refine(csr, colors);
    // Order the nodes by color and find the ambiguous class with the
    // smallest color value.
    std::vector<int> order(csr.num_nodes());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
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
      // Discrete colors: `order` is this leaf's total node order.
      Labeling labeling = MakeLabeling(csr, std::move(order));
      std::string repr = Serialize(csr, role, labeling);
      --leaves_left;
      if (best.empty() || repr < best) {
        best = std::move(repr);
        best_labeling = std::move(labeling);
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

/// Fills `provenance` from the restriction's kept nodes (ascending
/// original ids). Only kept nodes' out-edges can land in the subgraph, so
/// the scan is proportional to the candidate's footprint, plus one bit
/// per graph node (re-canonicalization runs once per answer per delta).
void CollectProvenance(const ProbabilisticEntityGraph& graph,
                       std::vector<NodeId> kept_nodes,
                       CandidateProvenance& provenance) {
  std::vector<bool> kept(static_cast<size_t>(graph.node_capacity()), false);
  for (NodeId id : kept_nodes) kept[static_cast<size_t>(id)] = true;
  for (NodeId id : kept_nodes) {
    graph.ForEachOutEdge(id, [&](EdgeId e) {
      if (kept[static_cast<size_t>(graph.edge(e).to)]) {
        provenance.edges.push_back(e);
      }
    });
  }
  std::sort(provenance.edges.begin(), provenance.edges.end());
  provenance.nodes = std::move(kept_nodes);
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
                                        *graph_csr);
}

CanonicalCandidate CanonicalizeValidatedCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options, const CsrSnapshot& graph_csr) {
  // Restrict to this answer's evidence subgraph, then reduce with only
  // the source and this target protected — other answers are ordinary
  // interior nodes here, which is what lets distinct tuples share a
  // canonical form.
  CanonicalCandidate out;
  std::vector<NodeId> kept_nodes;
  QueryGraph restricted =
      RestrictToTarget(graph_csr, query_graph.source, target,
                       options.collect_provenance ? &kept_nodes : nullptr);
  if (options.collect_provenance) {
    CollectProvenance(query_graph.graph, std::move(kept_nodes),
                      out.provenance);
  }
  out.reduction_stats = ReduceQueryGraph(restricted, options.reduction);

  const CsrSnapshot csr = BuildCsrSnapshot(restricted.graph);
  std::vector<uint8_t> role(csr.num_nodes(), 0);
  role[csr.dense_id[static_cast<size_t>(restricted.source)]] |= kRoleSource;
  for (NodeId t : restricted.answers) {
    role[csr.dense_id[static_cast<size_t>(t)]] |= kRoleTarget;
  }
  std::vector<uint64_t> colors(csr.num_nodes());
  for (uint32_t d = 0; d < csr.num_nodes(); ++d) {
    colors[d] = Mix(DoubleBits(csr.node_p[d]), role[d]);
  }
  Canonizer canonizer{csr, role, kMaxLabelLeaves, {}, {}};
  canonizer.Run(std::move(colors));
  out.key.repr = std::move(canonizer.best);
  out.key.hash = Fnv1a64(out.key.repr);

  // Rebuild the reduced graph in canonical order so every isomorphic
  // input produces this exact graph (same numbering, same probability
  // bits) and downstream computations become pure functions of the key.
  const Labeling& labeling = canonizer.best_labeling;
  for (int node : labeling.node_at) {
    const size_t d = static_cast<size_t>(node);
    NodeId id = out.canonical.graph.AddNode(csr.node_p[d]);
    if (role[d] & kRoleSource) out.canonical.source = id;
    if (role[d] & kRoleTarget) out.canonical.answers.push_back(id);
  }
  for (const EdgeTuple& t : labeling.edges) {
    out.canonical.graph.AddEdge(t.from, t.to, t.q).value();
  }
  out.target = out.canonical.answers.empty() ? kInvalidNode
                                             : out.canonical.answers[0];
  return out;
}

}  // namespace biorank
