#include "integrate/mediator.h"

#include <gtest/gtest.h>

#include "core/graph_algo.h"
#include "integrate/exploratory_query.h"

namespace biorank {
namespace {

class MediatorTest : public ::testing::Test {
 protected:
  MediatorTest()
      : universe_(ProteinUniverse::Generate()),
        registry_(universe_),
        mediator_(registry_) {}

  ExploratoryQueryResult RunFor(int protein_index) {
    const Protein& protein = universe_.protein(protein_index);
    Result<ExploratoryQueryResult> run =
        mediator_.Run(MakeProteinFunctionQuery(protein.gene_symbol));
    EXPECT_TRUE(run.ok()) << run.status();
    return std::move(run.value());
  }

  ProteinUniverse universe_;
  SourceRegistry registry_;
  Mediator mediator_;
};

TEST_F(MediatorTest, UnknownProteinIsNotFound) {
  Result<ExploratoryQueryResult> run =
      mediator_.Run(MakeProteinFunctionQuery("NO_SUCH_GENE"));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

TEST_F(MediatorTest, UnsupportedQueryShapesAreRejected) {
  ExploratoryQuery query;
  query.entity_set = "Pfam";
  query.value = "x";
  EXPECT_EQ(mediator_.Run(query).status().code(),
            StatusCode::kUnimplemented);
  ExploratoryQuery bad_output = MakeProteinFunctionQuery("x");
  bad_output.output_sets = {"PDB"};
  EXPECT_EQ(mediator_.Run(bad_output).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(MediatorTest, RunErrorPathsAreTyped) {
  const std::string known =
      universe_.protein(universe_.well_studied()[0]).gene_symbol;

  // Unknown input entity set: rejected before any source is queried,
  // even when the value would match a real protein.
  ExploratoryQuery wrong_set = MakeProteinFunctionQuery(known);
  wrong_set.entity_set = "NoSuchEntitySet";
  EXPECT_EQ(mediator_.Run(wrong_set).status().code(),
            StatusCode::kUnimplemented);

  // Unsupported match attribute on the supported entity set.
  ExploratoryQuery wrong_attribute = MakeProteinFunctionQuery(known);
  wrong_attribute.attribute = "sequence";
  EXPECT_EQ(mediator_.Run(wrong_attribute).status().code(),
            StatusCode::kUnimplemented);

  // Unsupported output sets: a foreign set, several sets, and none.
  ExploratoryQuery extra_outputs = MakeProteinFunctionQuery(known);
  extra_outputs.output_sets = {"AmiGO", "PDB"};
  EXPECT_EQ(mediator_.Run(extra_outputs).status().code(),
            StatusCode::kUnimplemented);
  ExploratoryQuery no_outputs = MakeProteinFunctionQuery(known);
  no_outputs.output_sets.clear();
  EXPECT_EQ(mediator_.Run(no_outputs).status().code(),
            StatusCode::kUnimplemented);

  // Empty match: a well-formed query whose value matches no record.
  ExploratoryQuery no_match = MakeProteinFunctionQuery("");
  Result<ExploratoryQueryResult> empty = mediator_.Run(no_match);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
}

TEST_F(MediatorTest, GraphValidatesAndHasAnswers) {
  ExploratoryQueryResult result = RunFor(universe_.well_studied()[0]);
  EXPECT_TRUE(result.query_graph.Validate().ok());
  EXPECT_EQ(result.matched_proteins, 1);
  EXPECT_FALSE(result.query_graph.answers.empty());
  EXPECT_EQ(result.query_graph.answers.size(), result.go_node.size());
}

TEST_F(MediatorTest, GraphScaleMatchesPaper) {
  // The paper's 20 graphs average 520 nodes / 695 edges with answer sets
  // of 15-130 functions; ours must land in the same regime.
  ExploratoryQueryResult result = RunFor(universe_.well_studied()[0]);
  EXPECT_GT(result.query_graph.graph.num_nodes(), 100);
  EXPECT_LT(result.query_graph.graph.num_nodes(), 1500);
  EXPECT_GT(result.query_graph.graph.num_edges(), 150);
  EXPECT_LT(result.query_graph.graph.num_edges(), 2500);
  EXPECT_GE(static_cast<int>(result.query_graph.answers.size()), 15);
  EXPECT_LE(static_cast<int>(result.query_graph.answers.size()), 130);
}

TEST_F(MediatorTest, AllAnswersAreGoTermNodes) {
  ExploratoryQueryResult result = RunFor(universe_.well_studied()[1]);
  for (NodeId answer : result.query_graph.answers) {
    EXPECT_EQ(result.query_graph.graph.node(answer).entity_set, "GO");
    // The GO vocabulary is certain; uncertainty lives on annotations.
    EXPECT_DOUBLE_EQ(result.query_graph.graph.node(answer).p, 1.0);
  }
}

TEST_F(MediatorTest, AnswersAreReachableFromQueryNode) {
  ExploratoryQueryResult result = RunFor(universe_.well_studied()[2]);
  std::vector<bool> reachable =
      ReachableFrom(result.query_graph.graph, result.query_graph.source);
  for (NodeId answer : result.query_graph.answers) {
    EXPECT_TRUE(reachable[answer]);
  }
}

TEST_F(MediatorTest, QueryGraphIsAcyclic) {
  // Figure 1 crawls are workflow-shaped: PathCount must be well-defined.
  ExploratoryQueryResult result = RunFor(universe_.well_studied()[3]);
  EXPECT_FALSE(HasCycleReachableFrom(result.query_graph.graph,
                                     result.query_graph.source));
}

TEST_F(MediatorTest, ProbabilitiesComposePsTimesPr) {
  // EntrezGene annotation nodes must carry ps(EntrezGene) * status pr;
  // spot-check that every node probability is within (0, 1].
  ExploratoryQueryResult result = RunFor(universe_.well_studied()[4]);
  const ProbabilisticEntityGraph& graph = result.query_graph.graph;
  int eg_nodes = 0;
  for (NodeId id : graph.AliveNodes()) {
    const GraphNode& node = graph.node(id);
    EXPECT_GT(node.p, 0.0) << node.label;
    EXPECT_LE(node.p, 1.0) << node.label;
    if (node.entity_set == "EntrezGene" && node.label.rfind("EG:", 0) == 0) {
      ++eg_nodes;
      // ps = 0.9 and pr in {1.0, .8, .7, .4, .3, .2}.
      const double valid[] = {0.9, 0.72, 0.63, 0.36, 0.27, 0.18};
      bool matches = false;
      for (double v : valid) {
        if (std::abs(node.p - v) < 1e-9) matches = true;
      }
      EXPECT_TRUE(matches) << node.label << " p=" << node.p;
    }
  }
  EXPECT_GT(eg_nodes, 0);
}

TEST_F(MediatorTest, GoldFunctionsAreRetrieved) {
  int index = universe_.well_studied()[0];
  ExploratoryQueryResult result = RunFor(index);
  const Protein& protein = universe_.protein(index);
  int retrieved = 0;
  for (int go : protein.curated_functions) {
    if (result.go_node.count(go) > 0) ++retrieved;
  }
  // Curation coverage is incomplete but transfers recover most of it.
  EXPECT_GT(retrieved,
            static_cast<int>(protein.curated_functions.size()) * 7 / 10);
}

TEST_F(MediatorTest, RecentFunctionsAreRetrieved) {
  for (int index : universe_.well_studied()) {
    const Protein& protein = universe_.protein(index);
    if (protein.recent_functions.empty()) continue;
    ExploratoryQueryResult result = RunFor(index);
    for (int go : protein.recent_functions) {
      EXPECT_EQ(result.go_node.count(go), 1u) << protein.gene_symbol;
    }
  }
}

TEST_F(MediatorTest, DeterministicAcrossRuns) {
  int index = universe_.well_studied()[5];
  ExploratoryQueryResult a = RunFor(index);
  ExploratoryQueryResult b = RunFor(index);
  EXPECT_EQ(a.query_graph.graph.num_nodes(), b.query_graph.graph.num_nodes());
  EXPECT_EQ(a.query_graph.graph.num_edges(), b.query_graph.graph.num_edges());
  EXPECT_EQ(a.query_graph.answers, b.query_graph.answers);
}

TEST_F(MediatorTest, MinorSourcesEnlargeTheGraph) {
  int index = universe_.well_studied()[0];
  ExploratoryQueryResult base = RunFor(index);

  MediatorOptions options;
  options.include_minor_sources = true;
  Mediator extended(registry_, options);
  Result<ExploratoryQueryResult> run = extended.Run(
      MakeProteinFunctionQuery(universe_.protein(index).gene_symbol));
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run.value().query_graph.graph.num_nodes(),
            base.query_graph.graph.num_nodes());
  EXPECT_TRUE(run.value().query_graph.Validate().ok());
}

TEST_F(MediatorTest, PdbContributesSinkNodes) {
  MediatorOptions options;
  options.include_minor_sources = true;
  Mediator extended(registry_, options);
  // Find a well-studied protein with deposited structures.
  for (int index : universe_.well_studied()) {
    if (registry_.pdb().StructuresFor(index).empty()) continue;
    Result<ExploratoryQueryResult> run = extended.Run(
        MakeProteinFunctionQuery(universe_.protein(index).gene_symbol));
    ASSERT_TRUE(run.ok());
    const ProbabilisticEntityGraph& graph = run.value().query_graph.graph;
    int pdb_sinks = 0;
    for (NodeId id : graph.AliveNodes()) {
      if (graph.node(id).entity_set == "PDB") {
        EXPECT_EQ(graph.OutDegree(id), 0);
        ++pdb_sinks;
      }
    }
    EXPECT_GT(pdb_sinks, 0);
    return;
  }
  GTEST_SKIP() << "no protein with PDB structures in this universe";
}

TEST_F(MediatorTest, RunThenRankServesTopKThroughTheRankingService) {
  // Mediator::Run + RankingService::RankTopK is the crawl-and-rank
  // composition api::Server::Query serves.
  ExploratoryQueryResult run = RunFor(universe_.well_studied()[0]);
  ASSERT_FALSE(run.query_graph.answers.empty());
  serve::RankingService service;
  Result<serve::TopKResult> ranked = service.RankTopK(run.query_graph, 5);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_EQ(ranked.value().top.size(), 5u);
  for (size_t i = 1; i < ranked.value().top.size(); ++i) {
    EXPECT_GE(ranked.value().top[i - 1].reliability,
              ranked.value().top[i].reliability);
  }
  // A repeated query is answered from the service's canonical cache.
  ExploratoryQueryResult rerun = RunFor(universe_.well_studied()[0]);
  Result<serve::TopKResult> again = service.RankTopK(rerun.query_graph, 5);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().stats.cache_misses, 0);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(again.value().top[i].node, ranked.value().top[i].node);
    EXPECT_EQ(again.value().top[i].reliability,
              ranked.value().top[i].reliability);
  }
}

TEST_F(MediatorTest, RunThenRankKEdgeCases) {
  ExploratoryQueryResult run = RunFor(universe_.well_studied()[1]);
  const QueryGraph& graph = run.query_graph;
  const int answers = static_cast<int>(graph.answers.size());
  ASSERT_GT(answers, 5);
  serve::RankingService service;

  // k equal to the answer count ranks the full answer set.
  Result<serve::TopKResult> full = service.RankTopK(graph, answers);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full.value().top.size(), static_cast<size_t>(answers));

  // k far beyond the answer count clamps to the answer count and yields
  // the same ranking.
  Result<serve::TopKResult> huge = service.RankTopK(graph, answers + 1000);
  ASSERT_TRUE(huge.ok()) << huge.status();
  ASSERT_EQ(huge.value().top.size(), static_cast<size_t>(answers));
  for (size_t i = 0; i < huge.value().top.size(); ++i) {
    EXPECT_EQ(huge.value().top[i].node, full.value().top[i].node);
    EXPECT_EQ(huge.value().top[i].reliability,
              full.value().top[i].reliability);
  }

  // A k below the answer count clamps the ranking to its k best.
  Result<serve::TopKResult> top3 = service.RankTopK(graph, 3);
  ASSERT_TRUE(top3.ok()) << top3.status();
  ASSERT_EQ(top3.value().top.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top3.value().top[i].node, full.value().top[i].node);
  }

  // k <= 0 is the caller's error at the service: "rank all" is spelled
  // at the front door (QueryOptions::top_k <= 0), not here.
  EXPECT_EQ(service.RankTopK(graph, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RankTopK(graph, -3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MediatorTest, RankingKeepsAnswersWithEmptyQueryRelevantSubgraphs) {
  // Answers whose evidence subgraph is empty (reliability exactly 0)
  // must survive a full ranking: the mediator's graphs always support
  // every answer, so serve the request through the service on a
  // mediator graph with one answer's evidence severed.
  const Protein& protein = universe_.protein(universe_.well_studied()[2]);
  Result<ExploratoryQueryResult> run =
      mediator_.Run(MakeProteinFunctionQuery(protein.gene_symbol));
  ASSERT_TRUE(run.ok()) << run.status();
  QueryGraph graph = std::move(run.value().query_graph);
  ASSERT_GT(graph.answers.size(), 1u);
  // Sever every in-edge of the first answer: its query-relevant
  // subgraph becomes empty.
  NodeId severed = graph.answers[0];
  for (EdgeId e : graph.graph.InEdges(severed)) {
    graph.graph.RemoveEdge(e);
  }
  serve::RankingService service;
  Result<serve::TopKResult> ranked =
      service.RankTopK(graph, static_cast<int>(graph.answers.size()));
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_EQ(ranked.value().top.size(), graph.answers.size());
  const serve::RankedCandidate& last = ranked.value().top.back();
  EXPECT_EQ(last.node, severed);
  EXPECT_DOUBLE_EQ(last.reliability, 0.0);
}

TEST_F(MediatorTest, ServeLiveAppliesDeltasIncrementally) {
  const Protein& protein = universe_.protein(universe_.well_studied()[0]);
  serve::RankingService service;
  Result<Mediator::LiveExploratoryQuery> live = mediator_.ServeLive(
      MakeProteinFunctionQuery(protein.gene_symbol), service);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_NE(live.value().applier, nullptr);
  EXPECT_FALSE(live.value().go_node.empty());

  Result<serve::TopKResult> before = live.value().applier->RankTopK(5);
  ASSERT_TRUE(before.ok()) << before.status();

  // A schema-validated delta: AmiGO's prior is revised downward.
  ingest::EvidenceDelta delta;
  delta.revise_source_priors.push_back({"AmiGO", 0.9});
  Result<ingest::ApplyReport> report =
      mediator_.ApplyDelta(live.value(), delta);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report.value().dirty_answers, 0);

  // An unknown source is rejected by the mediator's schema metrics.
  ingest::EvidenceDelta unknown;
  unknown.revise_source_priors.push_back({"NoSuchSource", 0.9});
  EXPECT_EQ(mediator_.ApplyDelta(live.value(), unknown).status().code(),
            StatusCode::kNotFound);

  // The live ranking after the delta matches a from-scratch service on
  // the updated graph.
  Result<serve::TopKResult> after = live.value().applier->RankTopK(5);
  ASSERT_TRUE(after.ok()) << after.status();
  serve::RankingServiceOptions reference_options;
  reference_options.enable_cache = false;
  reference_options.num_threads = 1;
  serve::RankingService reference(reference_options);
  Result<serve::TopKResult> rebuilt =
      reference.RankTopK(live.value().applier->GraphSnapshot(), 5);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ASSERT_EQ(after.value().top.size(), rebuilt.value().top.size());
  for (size_t i = 0; i < after.value().top.size(); ++i) {
    EXPECT_EQ(after.value().top[i].node, rebuilt.value().top[i].node);
    EXPECT_EQ(after.value().top[i].reliability,
              rebuilt.value().top[i].reliability);
  }
}

TEST_F(MediatorTest, DefaultMetricsMatchSection2Narrative) {
  ProbabilisticMetrics metrics = MakeDefaultBioRankMetrics();
  // PIRSF is trusted more than Pfam; profile HMMs more than raw BLAST.
  EXPECT_GT(metrics.SourceConfidence("PIRSF"),
            metrics.SourceConfidence("PfamDomain"));
  EXPECT_GT(metrics.RelationshipConfidence("Pfam1"),
            metrics.RelationshipConfidence("NCBIBlast1"));
  // Foreign keys are certain.
  EXPECT_DOUBLE_EQ(metrics.RelationshipConfidence("NCBIBlast2"), 1.0);
}

}  // namespace
}  // namespace biorank
