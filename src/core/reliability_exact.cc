#include "core/reliability_exact.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "core/graph_algo.h"
#include "core/reduction.h"
#include "core/reify.h"

namespace biorank {

namespace {

bool IsUncertain(double p) { return p > 0.0 && p < 1.0; }

/// Live states past which ExactReliabilityDagSweep declines: about where its
/// cost meets 7,896 64-lane MC trials on the ledger-shape DAG residues.
constexpr size_t kDagSweepMaxStates = 8192;

/// Epoch-stamped visit marks and one DFS stack, reused by every search of
/// a kernel run so that no search allocates.
struct DfsScratch {
  std::vector<uint32_t> stamp;  ///< stamp[x] == epoch: x seen this search.
  std::vector<NodeId> stack;
  uint32_t epoch = 0;
};

/// Reachability from `start` over alive edges that pass `edge_ok` through
/// nodes that pass `node_ok`. `start` itself must pass `node_ok`.
template <typename NodeOk, typename EdgeOk>
bool Reaches(const ProbabilisticEntityGraph& graph, NodeId start,
             NodeId target, NodeOk&& node_ok, EdgeOk&& edge_ok,
             DfsScratch& dfs) {
  if (!graph.IsValidNode(start) || !graph.IsValidNode(target)) return false;
  if (!node_ok(start)) return false;
  if (start == target) return true;
  dfs.stamp.resize(static_cast<size_t>(graph.node_capacity()));
  if (++dfs.epoch == 0) {  // Wrapped: old stamps would alias this search.
    std::fill(dfs.stamp.begin(), dfs.stamp.end(), 0u);
    dfs.epoch = 1;
  }
  const uint32_t epoch = dfs.epoch;
  dfs.stack.assign(1, start);
  dfs.stamp[start] = epoch;
  while (!dfs.stack.empty()) {
    NodeId x = dfs.stack.back();
    dfs.stack.pop_back();
    bool found = false;
    graph.ForEachOutEdge(x, [&](EdgeId e) {
      if (found || !edge_ok(e)) return;
      NodeId y = graph.edge(e).to;
      if (dfs.stamp[y] == epoch || !node_ok(y)) return;
      if (y == target) {
        found = true;
        return;
      }
      dfs.stamp[y] = epoch;
      dfs.stack.push_back(y);
    });
    if (found) return true;
  }
  return false;
}

struct FactoringContext {
  int64_t calls = 0;
  int64_t max_calls = 0;
  bool budget_exceeded = false;
  DfsScratch dfs;
  ReductionScratch reduction;
};

/// How a FactorRec call's graph differs from its caller's, which was at a
/// reduction fixpoint and passed pruning 1.
enum class Branch {
  kRoot,     ///< No caller: reduce everything.
  kPresent,  ///< The caller's pivot became certain.
  kAbsent,   ///< The caller's pivot was removed.
};

/// Recursive edge-conditioning on a reified (edge-failures-only) graph, in
/// place: `scope` reverts every mutation below on return. `conditioned` is
/// the caller's pivot (-1 at the root).
double FactorRec(QueryGraph& query_graph, FactoringContext& ctx,
                 Branch branch, EdgeId conditioned) {
  if (ctx.budget_exceeded) return 0.0;
  if (++ctx.calls > ctx.max_calls) {
    ctx.budget_exceeded = true;
    return 0.0;
  }
  ProbabilisticEntityGraph& graph = query_graph.graph;
  ProbabilisticEntityGraph::UndoScope scope(graph);
  NodeId s = query_graph.source;
  NodeId t = query_graph.answers[0];
  auto all_nodes = [&](NodeId) { return true; };

  // Making the caller's pivot certain leaves its graph at the reduction
  // fixpoint, since no rule reads a probability, and removes no q > 0
  // path, so the present branch skips both the reduction and pruning 1.
  // The absent branch re-reduces only around the removed pivot.
  if (branch != Branch::kPresent) {
    if (branch == Branch::kRoot) {
      ReduceQueryGraph(query_graph, {}, ctx.reduction);
    } else {
      ReduceAfterEdgeRemoval(query_graph, conditioned, ctx.reduction);
    }
    // Pruning 1: unreachable even if every uncertain edge were present.
    auto any_alive = [&](EdgeId e) { return graph.edge(e).q > 0.0; };
    if (!Reaches(graph, s, t, all_nodes, any_alive, ctx.dfs)) return 0.0;
  }

  // Pruning 2: reachable through certain edges alone. The same DFS picks
  // the pivot to condition on: the first uncertain edge it meets, which
  // leaves the region certain edges reach from the source and so keeps
  // branches meaningful. One exists: without one, every q > 0 path from
  // the source is certain, and pruning 1 or 2 would have returned.
  EdgeId pivot = -1;
  auto certain = [&](EdgeId e) {
    const double q = graph.edge(e).q;
    if (pivot < 0 && IsUncertain(q)) pivot = e;
    return q >= 1.0;
  };
  if (Reaches(graph, s, t, all_nodes, certain, ctx.dfs)) return 1.0;

  const double q = graph.edge(pivot).q;
  double r_present = 0.0;
  {
    ProbabilisticEntityGraph::UndoScope present(graph);
    graph.SetEdgeProb(pivot, 1.0);
    r_present = FactorRec(query_graph, ctx, Branch::kPresent, pivot);
  }
  graph.RemoveEdge(pivot);
  const double r_absent = FactorRec(query_graph, ctx, Branch::kAbsent, pivot);
  return q * r_present + (1.0 - q) * r_absent;
}

/// ExactReliabilityFactoring on a validated query graph, given `csr`, its
/// snapshot.
Result<double> FactorOnSnapshot(const QueryGraph& query_graph,
                                const CsrSnapshot& csr, NodeId target,
                                const FactoringOptions& options) {
  if (!query_graph.graph.IsValidNode(target)) {
    return Status::InvalidArgument("factoring: invalid target");
  }

  // Work on the single-target query graph restricted to relevant nodes.
  QueryGraph restricted = RestrictToTarget(csr, query_graph.source, target);

  // Remove node failures so the recursion only conditions edges.
  ReifiedGraph reified = ReifyNodeFailures(restricted);

  FactoringContext ctx;
  ctx.max_calls = options.max_calls;
  double value = FactorRec(reified.query_graph, ctx, Branch::kRoot, -1);
  if (ctx.budget_exceeded) {
    return Status::FailedPrecondition(
        "factoring: exceeded max_calls budget (graph too complex)");
  }
  return value;
}

}  // namespace

Result<double> ExactReliabilityBruteForce(const QueryGraph& query_graph,
                                          NodeId target,
                                          int max_uncertain_elements) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  if (!graph.IsValidNode(target)) {
    return Status::InvalidArgument("brute force: invalid target");
  }

  std::vector<NodeId> uncertain_nodes;
  std::vector<EdgeId> uncertain_edges;
  for (NodeId i : graph.AliveNodes()) {
    if (IsUncertain(graph.node(i).p)) uncertain_nodes.push_back(i);
  }
  for (EdgeId e : graph.AliveEdges()) {
    if (IsUncertain(graph.edge(e).q)) uncertain_edges.push_back(e);
  }
  int total = static_cast<int>(uncertain_nodes.size() + uncertain_edges.size());
  if (total > max_uncertain_elements) {
    return Status::FailedPrecondition(
        "brute force: " + std::to_string(total) +
        " uncertain elements exceed limit " +
        std::to_string(max_uncertain_elements));
  }

  std::vector<bool> node_present(graph.node_capacity(), false);
  std::vector<bool> edge_present(graph.edge_capacity(), false);
  // Deterministic elements keep fixed states.
  for (NodeId i : graph.AliveNodes()) node_present[i] = graph.node(i).p >= 1.0;
  for (EdgeId e : graph.AliveEdges()) edge_present[e] = graph.edge(e).q >= 1.0;

  double reliability = 0.0;
  DfsScratch dfs;
  uint64_t worlds = 1ULL << total;
  for (uint64_t world = 0; world < worlds; ++world) {
    double prob = 1.0;
    for (size_t i = 0; i < uncertain_nodes.size(); ++i) {
      bool present = (world >> i) & 1;
      node_present[uncertain_nodes[i]] = present;
      double p = graph.node(uncertain_nodes[i]).p;
      prob *= present ? p : (1.0 - p);
    }
    for (size_t i = 0; i < uncertain_edges.size(); ++i) {
      bool present = (world >> (uncertain_nodes.size() + i)) & 1;
      edge_present[uncertain_edges[i]] = present;
      double q = graph.edge(uncertain_edges[i]).q;
      prob *= present ? q : (1.0 - q);
    }
    bool connected = Reaches(
        graph, query_graph.source, target,
        [&](NodeId n) { return node_present[n]; },
        [&](EdgeId e) { return edge_present[e]; }, dfs);
    if (connected) reliability += prob;
  }
  return reliability;
}

Result<double> ExactReliabilityFactoring(const QueryGraph& query_graph,
                                         NodeId target,
                                         const FactoringOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  return FactorOnSnapshot(query_graph, BuildCsrSnapshot(query_graph.graph),
                          target, options);
}

Result<std::vector<double>> ExactReliabilityAllAnswers(
    const QueryGraph& query_graph, const FactoringOptions& options) {
  std::vector<double> scores;
  if (query_graph.answers.empty()) return scores;
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  const CsrSnapshot csr = BuildCsrSnapshot(query_graph.graph);
  scores.reserve(query_graph.answers.size());
  for (NodeId t : query_graph.answers) {
    Result<double> r = FactorOnSnapshot(query_graph, csr, t, options);
    if (!r.ok()) return r.status();
    scores.push_back(r.value());
  }
  return scores;
}

Result<double> ExactReliabilityDagSweep(const CsrQuerySnapshot& snapshot,
                                        NodeId target) {
  const CsrSnapshot& csr = snapshot.csr;
  const uint32_t n = csr.num_nodes();
  if (target < 0 || target >= csr.orig_capacity() ||
      csr.dense_id[static_cast<size_t>(target)] == kCsrInvalid) {
    return Status::InvalidArgument("dag sweep: invalid target");
  }
  const uint32_t s = snapshot.source;
  const uint32_t t = csr.dense_id[static_cast<size_t>(target)];

  // Kahn order, smallest ready dense id first. A node takes part when the
  // source reaches it (bit 1, set here) and it reaches the target (bit 2,
  // set below); then the source comes first and the target last.
  std::vector<uint32_t> indegree(n, 0), order;
  for (uint32_t to : csr.out_to) ++indegree[to];
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>> ready;
  for (uint32_t d = 0; d < n; ++d) {
    if (indegree[d] == 0) ready.push(d);
  }
  std::vector<uint8_t> part(n, 0);
  part[s] = 1;
  while (!ready.empty()) {
    const uint32_t d = ready.top();
    ready.pop();
    order.push_back(d);
    for (uint32_t j = csr.out_offset[d]; j < csr.out_offset[d + 1]; ++j) {
      part[csr.out_to[j]] |= part[d] & 1;
      if (--indegree[csr.out_to[j]] == 0) ready.push(csr.out_to[j]);
    }
  }
  if (order.size() != n) return Status::FailedPrecondition("dag sweep: cycle");
  if (s == t) return csr.node_p[s];
  if (part[t] == 0) return 0.0;
  part[t] = 3;
  std::vector<uint32_t> pending(n, 0);  // Taking-part successors to come.
  for (size_t i = n; i-- > 0;) {
    const uint32_t v = order[i];
    for (uint32_t j = csr.out_offset[v]; j < csr.out_offset[v + 1]; ++j) {
      if (part[csr.out_to[j]] == 3 && part[v] != 0) {
        part[v] = 3;
        ++pending[v];
      }
    }
  }

  std::vector<int> slot(n, -1);
  slot[s] = 0;
  uint64_t used = 1;
  std::vector<uint64_t> masks{1}, next_masks;
  std::vector<double> mass{csr.node_p[s]}, next_mass;
  std::vector<std::pair<int, double>> fold;  // (slot, 1 - q) per in-edge.
  std::vector<uint32_t> table;
  for (uint32_t v : order) {
    if (part[v] != 3 || v == s) continue;
    fold.clear();
    uint64_t freed = 0;
    for (uint32_t j = csr.in_offset[v]; j < csr.in_offset[v + 1]; ++j) {
      const uint32_t u = csr.in_from[j];
      if (part[u] != 3) continue;
      fold.emplace_back(slot[u], 1.0 - csr.in_q[j]);
      if (--pending[u] == 0) freed |= uint64_t{1} << slot[u];
    }
    auto reached = [&](uint64_t mask) {
      double fail = 1.0;
      for (const auto& [b, f] : fold) {
        if ((mask >> b) & 1) fail *= f;
      }
      return csr.node_p[v] * (1.0 - fail);
    };
    if (v == t) {
      double value = 0.0;
      for (size_t k = 0; k < masks.size(); ++k) {
        value += mass[k] * reached(masks[k]);
      }
      return value;
    }
    used &= ~freed;
    if (~used == 0) return Status::FailedPrecondition("dag sweep: too wide");
    const int b = __builtin_ctzll(~used);
    used |= uint64_t{1} << b;
    slot[v] = b;
    next_masks.clear();
    next_mass.clear();
    // Children merge only when a slot freed (else distinct masks stay
    // distinct), through an open-addressing table of 1 + index.
    const int shift = __builtin_clzll(2 * masks.size() + 1);
    if (freed != 0) table.assign(size_t{1} << (64 - shift), 0);
    auto emit = [&](uint64_t mask, double m) {
      if (mask == 0) return;  // No reached open node: the target is lost.
      if (freed != 0) {
        size_t h = (mask * UINT64_C(0x9E3779B97F4A7C15)) >> shift;
        for (; table[h] != 0; h = (h + 1) & (table.size() - 1)) {
          if (next_masks[table[h] - 1] == mask) {
            next_mass[table[h] - 1] += m;
            return;
          }
        }
        table[h] = static_cast<uint32_t>(next_masks.size() + 1);
      }
      next_masks.push_back(mask);
      next_mass.push_back(m);
    };
    for (size_t k = 0; k < masks.size(); ++k) {
      const double r = reached(masks[k]);
      const uint64_t base = masks[k] & ~freed;
      if (r < 1.0) emit(base, mass[k] * (1.0 - r));
      if (r > 0.0) emit(base | uint64_t{1} << b, mass[k] * r);
    }
    if (next_masks.size() > kDagSweepMaxStates) {
      return Status::FailedPrecondition("dag sweep: state cap exceeded");
    }
    masks.swap(next_masks);
    mass.swap(next_mass);
  }
  return 0.0;  // Unreachable: the target is the last taking-part node.
}

}  // namespace biorank
