// The mediator of Section 2 / Figure 1: fans an exploratory query
// out across registered sources and stitches the results into one
// probabilistic query graph. Integration only: ranking consumes that
// graph (serve/), and api::Server owns live sessions built from it.

#ifndef BIORANK_INTEGRATE_MEDIATOR_H_
#define BIORANK_INTEGRATE_MEDIATOR_H_

#include <unordered_map>

#include "core/query_graph.h"
#include "integrate/exploratory_query.h"
#include "schema/metrics.h"
#include "sources/source_registry.h"
#include "util/status.h"

namespace biorank {

/// The default BioRank parameters: set-level confidences ps/qs for every
/// entity set and relationship the mediator materializes. These are the
/// "determined after extensive discussions with our collaborators"
/// numbers of Section 2 — user-tunable via MediatorOptions::metrics.
ProbabilisticMetrics MakeDefaultBioRankMetrics();

/// Mediator configuration.
struct MediatorOptions {
  ProbabilisticMetrics metrics = MakeDefaultBioRankMetrics();
  /// Also crawl PIRSF, SuperFamily, CDD, UniProt, and PDB. The paper's
  /// quality study restricts itself to the Figure 1 sources; enabling
  /// this enriches graphs (PDB adds sink nodes).
  bool include_minor_sources = false;
};

/// The materialized result of an exploratory query: the probabilistic
/// query graph plus bookkeeping that maps records back to graph nodes.
struct ExploratoryQueryResult {
  QueryGraph query_graph;
  /// GO-term ontology index -> answer node id (for gold-standard lookup).
  std::unordered_map<int, NodeId> go_node;
  int matched_proteins = 0;
};

/// The BioRank mediator: executes exploratory queries against the source
/// registry by crawling the Figure 1 integration plan and labeling every
/// record node with p = ps * pr and every link edge with q = qs * qr
/// (Section 2's graph construction).
///
/// Node identity is by record key, so evidence converges: all paths that
/// support the same GO term meet at one answer node, all BLAST hits on
/// the same protein meet at one EntrezProtein node.
class Mediator {
 public:
  explicit Mediator(const SourceRegistry& sources,
                    MediatorOptions options = {});

  /// Runs an exploratory query. Currently the one query family of the
  /// paper is supported: input EntrezProtein matched on name/accession,
  /// output AmiGO (GO terms). Anything else is Unimplemented.
  Result<ExploratoryQueryResult> Run(const ExploratoryQuery& query) const;

  const MediatorOptions& options() const { return options_; }

 private:
  const SourceRegistry& sources_;
  MediatorOptions options_;
};

}  // namespace biorank

#endif  // BIORANK_INTEGRATE_MEDIATOR_H_
