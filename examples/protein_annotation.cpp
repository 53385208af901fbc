// Full-pipeline example: the paper's motivating workflow through the
// api::Server front door. Generate the synthetic biological world, ask
// the server for a well-studied protein's functions (the exploratory
// query (EntrezProtein.name = <symbol>, AmiGO) served through the
// canonical reliability cache), mark the gold standard, and compare all
// five relevance functions offline via the evaluation harness.
//
// Run:  ./build/protein_annotation

#include <iostream>

#include "api/server.h"
#include "core/ranking.h"
#include "integrate/scenario_harness.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

int main() {
  std::cout << "== BioRank protein function annotation ==\n\n";

  api::Server server;
  const ScenarioHarness& harness = server.harness();
  Result<std::vector<ScenarioQuery>> queries =
      harness.BuildQueries(ScenarioId::kScenario1WellKnown);
  if (!queries.ok()) {
    std::cerr << "failed to build queries: " << queries.status() << "\n";
    return 1;
  }
  const ScenarioQuery& query = queries.value().front();

  // The Section 2 result listing, served: top functions by reliability
  // through the shared ranking service.
  api::Result<api::QueryResponse> served = server.Query(
      api::MakeProteinFunctionRequest(query.spec.gene_symbol, 10));
  if (!served.ok()) {
    std::cerr << "serving failed: " << served.status() << "\n";
    return 1;
  }
  const api::QueryResponse& response = served.value();
  std::cout << "Query: (EntrezProtein.name = \"" << query.spec.gene_symbol
            << "\", AmiGO)\n"
            << "Integrated query graph: "
            << response.result.query_graph.graph.num_nodes() << " nodes, "
            << response.result.query_graph.graph.num_edges() << " edges, "
            << query.answer_count << " candidate functions\n"
            << "Curated (gold) functions retrieved: " << query.gold_retrieved
            << " of " << query.gold_total << "\n\n";

  std::cout << "Top 10 candidate functions by served reliability:\n";
  TextTable top({"#", "GO term", "r score", "via", "gold?"});
  for (size_t i = 0; i < response.top.size(); ++i) {
    const api::RankedAnswer& answer = response.top[i];
    top.AddRow({std::to_string(i + 1), answer.label,
                FormatDouble(answer.reliability, 4),
                answer.exact ? "exact" : "MC",
                query.relevant.count(answer.node) > 0 ? "yes" : ""});
  }
  top.Print(std::cout);
  std::cout << "Serving: "
            << FormatCompact(
                   (response.timing.rank_s + response.timing.refine_s) * 1e3, 3)
            << " ms rank phase, " << response.stats.cache_hits
            << " cache hits / " << response.stats.cache_misses
            << " misses, " << response.stats.pruned
            << " candidates pruned by bounds.\n";

  std::cout << "\nRanking quality (tied average precision at 100% recall) "
               "of all five methods on this protein:\n";
  TextTable quality({"Method", "AP"});
  for (RankingMethod method : AllRankingMethods()) {
    Result<double> ap = harness.ApForQuery(query, method);
    quality.AddRow({RankingMethodName(method),
                    ap.ok() ? FormatDouble(ap.value(), 3)
                            : ap.status().ToString()});
  }
  Result<double> random = harness.RandomBaselineAp(query);
  if (random.ok()) {
    quality.AddRow({"Random", FormatDouble(random.value(), 3)});
  }
  quality.Print(std::cout);
  return 0;
}
