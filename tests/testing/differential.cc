#include "testing/differential.h"

#include <cstring>
#include <sstream>


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

}  // namespace biorank::testing
