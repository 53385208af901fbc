#include "core/graph_algo.h"

#include <algorithm>
#include <cstdint>

namespace biorank {

std::vector<bool> ReachableFrom(const ProbabilisticEntityGraph& graph,
                                NodeId start) {
  std::vector<bool> visited(graph.node_capacity(), false);
  if (!graph.IsValidNode(start)) return visited;
  std::vector<NodeId> stack = {start};
  visited[start] = true;
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    graph.ForEachOutEdge(x, [&](EdgeId e) {
      NodeId y = graph.edge(e).to;
      if (!visited[y]) {
        visited[y] = true;
        stack.push_back(y);
      }
    });
  }
  return visited;
}

bool HasCycleReachableFrom(const ProbabilisticEntityGraph& graph,
                           NodeId start) {
  if (!graph.IsValidNode(start)) return false;
  // Iterative three-color DFS restricted to nodes reachable from start.
  enum Color : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(graph.node_capacity(), kWhite);
  // Stack frames: (node, next-edge-cursor over OutEdges snapshot).
  struct Frame {
    NodeId node;
    std::vector<EdgeId> edges;
    size_t cursor = 0;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{start, graph.OutEdges(start)});
  color[start] = kGray;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.cursor >= frame.edges.size()) {
      color[frame.node] = kBlack;
      stack.pop_back();
      continue;
    }
    NodeId y = graph.edge(frame.edges[frame.cursor++]).to;
    if (color[y] == kGray) return true;
    if (color[y] == kWhite) {
      color[y] = kGray;
      stack.push_back(Frame{y, graph.OutEdges(y)});
    }
  }
  return false;
}

QueryGraph RestrictToTarget(const CsrSnapshot& csr, NodeId source,
                            NodeId target, std::vector<NodeId>* kept_nodes) {
  // Per dense node: kUnseen, kCoReach, kKept, or (once the kept set is
  // final) its id in the restricted graph.
  constexpr int32_t kUnseen = -1;
  constexpr int32_t kCoReach = -2;
  constexpr int32_t kKept = -3;
  // Each node enters `stack` at most once per walk and `kept` at most
  // once, so one reservation each covers every push.
  std::vector<int32_t> slot(csr.num_nodes(), kUnseen);
  std::vector<uint32_t> stack;
  stack.reserve(csr.num_nodes());
  const uint32_t from = csr.dense_id[static_cast<size_t>(source)];
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

  // Every node on a source path into CoReach(target) is itself in
  // CoReach(target), so this walk visits exactly the kept set.
  std::vector<uint32_t> kept;
  kept.reserve(csr.num_nodes());
  auto keep = [&](uint32_t d) {
    slot[d] = kKept;
    kept.push_back(d);
  };
  if (slot[from] == kCoReach) {
    keep(from);
    stack.push_back(from);
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
    keep(from);  // Target unreachable: source and target stay isolated.
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
  restricted.source = slot[from];
  restricted.answers.push_back(slot[sink]);
  if (kept_nodes != nullptr) {
    kept_nodes->clear();
    kept_nodes->reserve(kept.size());
    for (uint32_t d : kept) kept_nodes->push_back(csr.orig_id[d]);
  }
  return restricted;
}

}  // namespace biorank
