#include "testing/differential.h"

#include <cstring>
#include <sstream>

#include "core/canonical.h"
#include "core/csr_snapshot.h"

namespace biorank::testing {

namespace {

DiffResult Fail(const std::string& message) { return {false, message}; }

/// Index and bit patterns of the first bitwise difference, for messages.
std::string DescribeFirstDivergence(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  std::ostringstream os;
  if (a.size() != b.size()) {
    os << "size " << a.size() << " vs " << b.size();
    return os.str();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    if (bits_a != bits_b) {
      os << "index " << i << ": " << a[i] << " vs " << b[i] << " (bits 0x"
         << std::hex << bits_a << " vs 0x" << bits_b << ")";
      return os.str();
    }
  }
  return "no divergence";
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameReductionStats(const ReductionStats& a, const ReductionStats& b) {
  return a.nodes_before == b.nodes_before &&
         a.edges_before == b.edges_before && a.nodes_after == b.nodes_after &&
         a.edges_after == b.edges_after &&
         a.sink_deletions == b.sink_deletions &&
         a.orphan_deletions == b.orphan_deletions &&
         a.serial_collapses == b.serial_collapses &&
         a.parallel_merges == b.parallel_merges &&
         a.self_loop_deletions == b.self_loop_deletions &&
         a.passes == b.passes;
}

/// The first difference between two query graphs, id for id: roles,
/// liveness, endpoints and probability bits. Empty when identical.
std::string DescribeGraphDivergence(const QueryGraph& a, const QueryGraph& b) {
  if (a.source != b.source || a.answers != b.answers) return "roles";
  const ProbabilisticEntityGraph& ga = a.graph;
  const ProbabilisticEntityGraph& gb = b.graph;
  if (ga.node_capacity() != gb.node_capacity() ||
      ga.edge_capacity() != gb.edge_capacity()) {
    return "node or edge count";
  }
  for (NodeId i = 0; i < ga.node_capacity(); ++i) {
    if (ga.IsValidNode(i) != gb.IsValidNode(i) ||
        !SameBits(ga.node(i).p, gb.node(i).p)) {
      return "node " + std::to_string(i);
    }
  }
  for (EdgeId e = 0; e < ga.edge_capacity(); ++e) {
    const GraphEdge& x = ga.edge(e);
    const GraphEdge& y = gb.edge(e);
    if (x.alive != y.alive || x.from != y.from || x.to != y.to ||
        !SameBits(x.q, y.q)) {
      return "edge " + std::to_string(e);
    }
  }
  return "";
}

}  // namespace

bool ScoresBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

DiffResult CompareMcBackends(const QueryGraph& query_graph, int64_t trials,
                             uint64_t seed, int num_threads,
                             McOptions::Mode mode) {
  McOptions mc;
  mc.trials = trials;
  mc.seed = seed;
  mc.num_threads = num_threads;
  mc.mode = mode;

  mc.backend = McOptions::Backend::kCsrSnapshot;
  Result<McEstimate> csr = EstimateReliabilityMc(query_graph, mc);
  mc.backend = McOptions::Backend::kPointerView;
  Result<McEstimate> ptr = EstimateReliabilityMc(query_graph, mc);

  if (csr.ok() != ptr.ok()) {
    return Fail("MC backends disagree on status: csr=" +
                (csr.ok() ? std::string("OK") : csr.status().message()) +
                " pointer=" +
                (ptr.ok() ? std::string("OK") : ptr.status().message()));
  }
  if (!csr.ok()) return {};  // Both failed identically: agreement.
  if (!ScoresBitIdentical(csr.value().scores, ptr.value().scores)) {
    return Fail("MC scores diverge at " +
                DescribeFirstDivergence(csr.value().scores,
                                        ptr.value().scores));
  }
  return {};
}

DiffResult CompareRestrictionBackends(const QueryGraph& query_graph) {
  const CsrSnapshot csr = BuildCsrSnapshot(query_graph.graph);
  CanonicalizeOptions options;
  options.collect_provenance = true;
  for (NodeId target : query_graph.answers) {
    const std::string where = " for target " + std::to_string(target);
    Result<CanonicalCandidate> ptr_cand =
        CanonicalizeCandidate(query_graph, target, options);
    Result<CanonicalCandidate> csr_cand =
        CanonicalizeCandidate(query_graph, target, options, &csr);
    if (ptr_cand.ok() != csr_cand.ok()) {
      return Fail("canonicalization status diverges" + where);
    }
    if (!ptr_cand.ok()) continue;
    const CanonicalCandidate& a = ptr_cand.value();
    const CanonicalCandidate& b = csr_cand.value();
    if (a.key.repr != b.key.repr || a.key.hash != b.key.hash) {
      return Fail("canonical keys diverge" + where);
    }
    if (a.target != b.target) return Fail("canonical targets diverge" + where);
    if (!SameReductionStats(a.reduction_stats, b.reduction_stats)) {
      return Fail("reduction stats diverge" + where);
    }
    const std::string graphs = DescribeGraphDivergence(a.canonical, b.canonical);
    if (!graphs.empty()) {
      return Fail("canonical graphs diverge at " + graphs + where);
    }
    if (a.provenance.nodes != b.provenance.nodes ||
        a.provenance.edges != b.provenance.edges) {
      return Fail("provenance footprints diverge" + where);
    }
  }
  return {};
}

}  // namespace biorank::testing
