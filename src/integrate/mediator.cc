#include "integrate/mediator.h"

#include <algorithm>

#include "schema/transforms.h"

namespace biorank {

ProbabilisticMetrics MakeDefaultBioRankMetrics() {
  ProbabilisticMetrics metrics;
  // Entity-set confidences ps.
  metrics.SetSourceConfidence("Query", 1.0);
  metrics.SetSourceConfidence("EntrezProtein", 0.95);
  metrics.SetSourceConfidence("EntrezGene", 0.90);
  metrics.SetSourceConfidence("AmiGO", 0.90);
  metrics.SetSourceConfidence("GO", 1.0);
  metrics.SetSourceConfidence("PfamDomain", 0.75);
  metrics.SetSourceConfidence("TigrFamModel", 0.85);
  metrics.SetSourceConfidence("PIRSF", 0.85);  // "more accurate than Pfam".
  metrics.SetSourceConfidence("SuperFamily", 0.70);
  metrics.SetSourceConfidence("CDD", 0.65);
  metrics.SetSourceConfidence("UniProt", 0.90);
  metrics.SetSourceConfidence("PDB", 1.0);

  // Relationship confidences qs. BLAST ignores amino-acid adjacency, so
  // NCBIBlast1 sits below the profile-HMM relationships (Section 2).
  metrics.SetRelationshipConfidence("Match", 1.0);
  metrics.SetRelationshipConfidence("NCBIBlast1", 0.65);
  metrics.SetRelationshipConfidence("NCBIBlast2", 1.0);  // Foreign key.
  metrics.SetRelationshipConfidence("EntrezGene1", 0.95);
  metrics.SetRelationshipConfidence("EGann", 1.0);       // Row containment.
  metrics.SetRelationshipConfidence("EGann2GO", 1.0);    // Foreign key.
  metrics.SetRelationshipConfidence("AmiGO1", 0.95);
  metrics.SetRelationshipConfidence("AGann2GO", 1.0);    // Foreign key.
  metrics.SetRelationshipConfidence("Pfam1", 0.80);
  metrics.SetRelationshipConfidence("Pfam2GO", 0.75);
  metrics.SetRelationshipConfidence("TigrFam1", 0.90);
  metrics.SetRelationshipConfidence("TigrFam2GO", 0.85);
  metrics.SetRelationshipConfidence("PIRSF1", 0.80);
  metrics.SetRelationshipConfidence("PIRSF2GO", 0.85);
  metrics.SetRelationshipConfidence("SuperFamily1", 0.70);
  metrics.SetRelationshipConfidence("SuperFamily2GO", 0.70);
  metrics.SetRelationshipConfidence("CDD1", 0.70);
  metrics.SetRelationshipConfidence("CDD2GO", 0.65);
  metrics.SetRelationshipConfidence("UniProt1", 0.95);
  metrics.SetRelationshipConfidence("UPann2GO", 1.0);    // Foreign key.
  metrics.SetRelationshipConfidence("PDB1", 0.90);
  return metrics;
}

namespace {

/// Builds one query graph; wraps the mutable crawl state.
class CrawlContext {
 public:
  CrawlContext(const SourceRegistry& sources,
               const ProbabilisticMetrics& metrics)
      : sources_(sources), metrics_(metrics) {
    result_.query_graph.source =
        result_.query_graph.graph.AddNode(1.0, "query", "Query");
  }

  /// Node for a record key, created on first sight. `pr` only applies at
  /// creation; later arrivals of the same record reuse the node.
  NodeId GetOrCreateNode(const std::string& key,
                         const std::string& entity_set, double pr,
                         const std::string& label) {
    auto it = key_to_node_.find(key);
    if (it != key_to_node_.end()) return it->second;
    double p = metrics_.NodeProbability(entity_set, pr);
    NodeId id = result_.query_graph.graph.AddNode(p, label, entity_set);
    key_to_node_.emplace(key, id);
    return id;
  }

  void AddEdge(NodeId from, NodeId to, const std::string& relationship,
               double qr) {
    double q = metrics_.EdgeProbability(relationship, qr);
    result_.query_graph.graph.AddEdge(from, to, q).value();
  }

  /// GO-term answer node (entity set "GO", pr = 1: vocabulary entries are
  /// certain; annotation confidence lives on the annotation records).
  NodeId GoNode(int go_index) {
    const GoTerm& term = sources_.universe().ontology().term(go_index);
    NodeId id = GetOrCreateNode("GO:" + std::to_string(go_index), "GO", 1.0,
                                term.id);
    result_.go_node.emplace(go_index, id);
    return id;
  }

  bool HasNode(const std::string& key) const {
    return key_to_node_.count(key) > 0;
  }

  NodeId source() const { return result_.query_graph.source; }

  ExploratoryQueryResult Finish() {
    // Deterministic answer order: ascending GO ontology index.
    std::vector<std::pair<int, NodeId>> answers(result_.go_node.begin(),
                                                result_.go_node.end());
    std::sort(answers.begin(), answers.end());
    for (const auto& [go, node] : answers) {
      result_.query_graph.answers.push_back(node);
    }
    return std::move(result_);
  }

  const SourceRegistry& sources() const { return sources_; }

 private:
  const SourceRegistry& sources_;
  const ProbabilisticMetrics& metrics_;
  ExploratoryQueryResult result_;
  std::unordered_map<std::string, NodeId> key_to_node_;
};

/// EntrezProtein record node.
NodeId ProteinNode(CrawlContext& ctx, const ProteinRecord& record) {
  return ctx.GetOrCreateNode("EP:" + std::to_string(record.protein_index),
                             "EntrezProtein", 1.0, record.name);
}

/// Expands one protein node into its gene record and that gene's curated
/// annotations (the EntrezGene and AmiGO routes of Figure 1). Applied to
/// matched proteins and to BLAST neighbours alike; the caller supplies
/// the protein -> gene relationship (EntrezGene1 for the matched protein,
/// NCBIBlast2 — a certain foreign key — for BLAST hits). Curated routes
/// therefore run query -> protein -> gene -> annotation -> GO: one hop
/// longer than the profile-database routes, which is what makes diffusion
/// favour fresh profile evidence (the paper's ABCC8 observation).
void ExpandAnnotations(CrawlContext& ctx, int protein_index,
                       NodeId protein_node,
                       const std::string& gene_relationship) {
  const GoOntology& ontology = ctx.sources().universe().ontology();
  NodeId gene_node = ctx.GetOrCreateNode(
      "Gene:" + std::to_string(protein_index), "EntrezGene", 1.0,
      "gene:" + std::to_string(protein_index));
  ctx.AddEdge(protein_node, gene_node, gene_relationship, 1.0);

  // EntrezGene annotation rows: pr from the StatusCode table.
  for (const GeneAnnotation& ann :
       ctx.sources().entrez_gene().AnnotationsFor(protein_index)) {
    std::string key = "EGann:" + std::to_string(ann.gene_id) + ":" +
                      std::to_string(ann.go_index);
    NodeId ann_node = ctx.GetOrCreateNode(
        key, "EntrezGene", GeneStatusToPr(ann.status),
        "EG:" + ontology.term(ann.go_index).id + ":" +
            GeneStatusToString(ann.status));
    ctx.AddEdge(gene_node, ann_node, "EGann", 1.0);
    ctx.AddEdge(ann_node, ctx.GoNode(ann.go_index), "EGann2GO", 1.0);
  }
  // AmiGO annotation rows: pr from the EvidenceCode table.
  for (const GoAnnotation& ann :
       ctx.sources().amigo().AnnotationsFor(protein_index)) {
    std::string key = "AGann:" + std::to_string(ann.gene_id) + ":" +
                      std::to_string(ann.go_index);
    NodeId ann_node = ctx.GetOrCreateNode(
        key, "AmiGO", EvidenceCodeToPr(ann.evidence),
        "AG:" + ontology.term(ann.go_index).id + ":" +
            EvidenceCodeToString(ann.evidence));
    ctx.AddEdge(gene_node, ann_node, "AmiGO1", 1.0);
    ctx.AddEdge(ann_node, ctx.GoNode(ann.go_index), "AGann2GO", 1.0);
  }
}

/// Expands a matched protein through a profile database (Pfam, TIGRFAM,
/// or one of the minor profile sources).
void ExpandProfiles(CrawlContext& ctx, int protein_index, NodeId protein_node,
                    const ProfileDatabase& db, const std::string& entity_set,
                    const std::string& hit_relationship,
                    const std::string& go_relationship,
                    const std::string& key_prefix) {
  for (const ProfileHit& hit : db.HitsFor(protein_index)) {
    NodeId profile_node = ctx.GetOrCreateNode(
        key_prefix + std::to_string(hit.profile_id), entity_set, 1.0,
        db.ProfileName(hit.profile_id));
    ctx.AddEdge(protein_node, profile_node, hit_relationship,
                EValueToQr(hit.e_value));
    double mapping_qr = db.MappingQr(hit.profile_id);
    for (int go : db.GoTermsFor(hit.profile_id)) {
      ctx.AddEdge(profile_node, ctx.GoNode(go), go_relationship, mapping_qr);
    }
  }
}

}  // namespace

Mediator::Mediator(const SourceRegistry& sources, MediatorOptions options)
    : sources_(sources), options_(std::move(options)) {}

Result<ExploratoryQueryResult> Mediator::Run(
    const ExploratoryQuery& query) const {
  if (query.entity_set != "EntrezProtein" || query.attribute != "name") {
    return Status::Unimplemented(
        "mediator: only (EntrezProtein.name = value) queries are wired up");
  }
  if (query.output_sets != std::vector<std::string>{"AmiGO"}) {
    return Status::Unimplemented(
        "mediator: only the AmiGO output set is wired up");
  }

  CrawlContext ctx(sources_, options_.metrics);

  // 1. Match the input entity set.
  std::vector<ProteinRecord> matches =
      sources_.entrez_protein().Lookup(query.value);
  if (matches.empty()) {
    return Status::NotFound("no EntrezProtein record matches '" +
                            query.value + "'");
  }

  for (const ProteinRecord& match : matches) {
    NodeId matched_node = ProteinNode(ctx, match);
    ctx.AddEdge(ctx.source(), matched_node, "Match", 1.0);

    // 2. BLAST neighbourhood: similar sequences are EntrezProtein records
    // again (NCBIBlast1 carries the e-value, NCBIBlast2 the certain FK).
    for (const BlastHit& hit :
         sources_.ncbi_blast().Similar(match.seq_id)) {
      const ProteinRecord* neighbour =
          sources_.entrez_protein().BySeqId(hit.seq2);
      if (neighbour == nullptr) continue;
      NodeId neighbour_node = ProteinNode(ctx, *neighbour);
      ctx.AddEdge(matched_node, neighbour_node, "NCBIBlast1",
                  EValueToQr(hit.e_value));
      ExpandAnnotations(ctx, neighbour->protein_index, neighbour_node,
                        "NCBIBlast2");
    }

    // 3. The matched protein's own gene record and curated annotations.
    ExpandAnnotations(ctx, match.protein_index, matched_node,
                      "EntrezGene1");

    // 4. Profile databases take the query sequence directly.
    ExpandProfiles(ctx, match.protein_index, matched_node,
                   sources_.pfam().db(), "PfamDomain", "Pfam1", "Pfam2GO",
                   "Pfam:");
    ExpandProfiles(ctx, match.protein_index, matched_node,
                   sources_.tigrfam().db(), "TigrFamModel", "TigrFam1",
                   "TigrFam2GO", "Tigr:");

    if (options_.include_minor_sources) {
      ExpandProfiles(ctx, match.protein_index, matched_node,
                     sources_.pirsf().db(), "PIRSF", "PIRSF1", "PIRSF2GO",
                     "PIRSF:");
      ExpandProfiles(ctx, match.protein_index, matched_node,
                     sources_.superfamily().db(), "SuperFamily",
                     "SuperFamily1", "SuperFamily2GO", "SSF:");
      ExpandProfiles(ctx, match.protein_index, matched_node,
                     sources_.cdd().db(), "CDD", "CDD1", "CDD2GO", "CDD:");
      // UniProt: per-protein annotation rows like EntrezGene's.
      for (const UniProtAnnotation& ann :
           sources_.uniprot().AnnotationsFor(match.protein_index)) {
        std::string key = "UPann:" + std::to_string(match.protein_index) +
                          ":" + std::to_string(ann.go_index);
        NodeId ann_node = ctx.GetOrCreateNode(
            key, "UniProt", ann.reviewed ? 0.95 : 0.5,
            "UP:" + std::to_string(ann.go_index));
        ctx.AddEdge(matched_node, ann_node, "UniProt1", 1.0);
        ctx.AddEdge(ann_node, ctx.GoNode(ann.go_index), "UPann2GO", 1.0);
      }
      // PDB structures: terminal records (no outgoing relationships).
      for (const std::string& pdb_id :
           sources_.pdb().StructuresFor(match.protein_index)) {
        NodeId structure = ctx.GetOrCreateNode("PDB:" + pdb_id, "PDB", 1.0,
                                               pdb_id);
        ctx.AddEdge(matched_node, structure, "PDB1", 1.0);
      }
    }
  }

  ExploratoryQueryResult result = ctx.Finish();
  result.matched_proteins = static_cast<int>(matches.size());
  BIORANK_RETURN_IF_ERROR(result.query_graph.Validate());
  return result;
}

Result<Mediator::LiveExploratoryQuery> Mediator::ServeLive(
    const ExploratoryQuery& query, serve::RankingService& service) const {
  Result<ExploratoryQueryResult> run = Run(query);
  if (!run.ok()) return run.status();
  LiveExploratoryQuery live;
  live.go_node = std::move(run.value().go_node);
  live.matched_proteins = run.value().matched_proteins;
  const QueryGraph& graph = run.value().query_graph;
  live.answer_labels.reserve(graph.answers.size());
  for (NodeId answer : graph.answers) {
    live.answer_labels.emplace(answer, graph.graph.node(answer).label);
  }
  live.applier = std::make_unique<ingest::UpdateApplier>(
      std::move(run.value().query_graph), &service);
  return live;
}

Result<ingest::ApplyReport> Mediator::ApplyDelta(
    LiveExploratoryQuery& live, const ingest::EvidenceDelta& delta) const {
  if (live.applier == nullptr) {
    return Status::InvalidArgument("mediator: live query has no applier");
  }
  return live.applier->ApplyDelta(delta, &options_.metrics);
}

}  // namespace biorank
