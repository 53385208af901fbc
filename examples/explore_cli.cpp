// Interactive-style CLI over the BioRank front door: run an exploratory
// query for a protein through api::Server, rank its candidate functions,
// and print the top answers with their strongest evidence paths
// (provenance). Reliability ranking rides the serving layer (canonical
// cache + bounds-driven pruning); the other relevance functions are
// scored offline via the server's evaluation harness.
//
// Usage:
//   ./build/examples/explore_cli [gene_symbol] [method] [top_n]
//   ./build/examples/explore_cli --metrics [gene_symbol]
//   ./build/examples/explore_cli --storage-dir DIR [--checkpoint] [args...]
// With no arguments it picks the first well-studied protein and
// reliability ranking. --metrics serves one query and dumps the
// server's Prometheus metrics instead of the ranking.
//
// --storage-dir makes the server durable over DIR: the boot warm-loads
// the newest snapshot plus the WAL tail (the recovery line says what it
// found), reliability queries run through a live *session* (logged to
// the WAL, so a later boot rebuilds it), and --checkpoint writes a
// versioned snapshot before exit. Kill the process between runs and the
// next run picks up where this one left off — see docs/quickstart
// section 7 for the round trip.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "api/server.h"
#include "core/explanation.h"
#include "core/ranking.h"
#include "integrate/scenario_harness.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

namespace {

Result<RankingMethod> ParseMethod(const std::string& name) {
  for (RankingMethod method : AllRankingMethods()) {
    if (name == RankingMethodName(method)) return method;
  }
  return Status::InvalidArgument(
      "unknown method '" + name + "' (use Rel, Prop, Diff, InEdge, PathC)");
}

void PrintEvidence(const QueryGraph& graph, NodeId answer) {
  ExplanationOptions explain;
  explain.max_paths = 2;
  Result<std::vector<EvidencePath>> paths =
      ExplainAnswer(graph, answer, explain);
  if (!paths.ok()) return;
  for (const EvidencePath& path : paths.value()) {
    std::cout << "        " << FormatEvidencePath(graph, path) << "\n";
  }
}

/// Writes a checkpoint (when asked to) and reports what it captured.
int MaybeCheckpoint(api::Server& server, bool requested) {
  if (!requested) return 0;
  api::Result<api::CheckpointReport> report = server.Checkpoint();
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  std::cout << "\n(checkpoint @ LSN " << report.value().wal_lsn << ": "
            << report.value().bytes << " bytes, " << report.value().sessions
            << " sessions, " << report.value().cache_entries
            << " cache entries -> " << report.value().path << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool metrics = false;
  bool checkpoint = false;
  std::string storage_dir;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--checkpoint") {
      checkpoint = true;
    } else if (arg == "--storage-dir") {
      if (i + 1 >= argc) {
        std::cerr << "--storage-dir needs a directory\n";
        return 2;
      }
      storage_dir = argv[++i];
    } else {
      positional.push_back(arg);
    }
  }
  if (checkpoint && storage_dir.empty()) {
    std::cerr << "--checkpoint needs --storage-dir\n";
    return 2;
  }

  api::ServerOptions server_options;
  server_options.storage_dir = storage_dir;
  api::Server server(server_options);
  if (!storage_dir.empty()) {
    if (!server.storage_status().ok()) {
      std::cerr << "storage boot failed: " << server.storage_status() << "\n";
      return 1;
    }
    const storage::RecoveryReport& boot = server.recovery_report();
    std::cout << "(durable over " << storage_dir << ": "
              << boot.sessions_recovered << " sessions recovered, "
              << boot.replayed_records << " WAL records replayed, "
              << boot.cache_entries_restored << " cache entries restored)\n";
  }

  if (metrics) {
    // Serve one real query so the scrape shows live numbers, then dump
    // the full registry in Prometheus exposition format.
    std::string symbol = !positional.empty()
                             ? positional[0]
                             : server.universe()
                                   .protein(server.universe()
                                                .well_studied()[0])
                                   .gene_symbol;
    api::Result<api::QueryResponse> response =
        server.Query(api::MakeProteinFunctionRequest(symbol, 8));
    if (!response.ok()) {
      std::cerr << response.status() << "\n";
      return 1;
    }
    std::cout << server.MetricsText();
    return MaybeCheckpoint(server, checkpoint);
  }

  std::string symbol;
  if (!positional.empty()) {
    symbol = positional[0];
  } else {
    symbol = server.universe()
                 .protein(server.universe().well_studied()[0])
                 .gene_symbol;
    std::cout << "(no gene symbol given; using " << symbol << ")\n";
  }
  RankingMethod method = RankingMethod::kReliability;
  if (positional.size() > 1) {
    Result<RankingMethod> parsed = ParseMethod(positional[1]);
    if (!parsed.ok()) {
      std::cerr << parsed.status() << "\n";
      return 2;
    }
    method = parsed.value();
  }
  int top_n = positional.size() > 2 ? std::atoi(positional[2].c_str()) : 8;

  if (method == RankingMethod::kReliability) {
    // The served path: typed request in, typed response out. A durable
    // server serves through a live session instead, so the query lands
    // in the WAL and the next boot over the same directory rebuilds it.
    api::Result<api::QueryResponse> response =
        Status::Internal("unserved");
    QueryGraph session_graph;
    if (server.durable()) {
      api::Result<api::SessionInfo> session =
          server.OpenSession(api::MakeProteinFunctionRequest(symbol, top_n));
      if (!session.ok()) {
        std::cerr << session.status() << "\n";
        return 1;
      }
      std::cout << "(live session " << session.value().id << ")\n";
      response = server.QuerySession(session.value().id, top_n);
      api::Result<QueryGraph> snapshot =
          server.SessionSnapshot(session.value().id);
      if (snapshot.ok()) session_graph = std::move(snapshot.value());
    } else {
      response = server.Query(api::MakeProteinFunctionRequest(symbol, top_n));
    }
    if (!response.ok()) {
      std::cerr << response.status() << "\n";
      return 1;
    }
    const api::QueryResponse& r = response.value();
    const QueryGraph& graph =
        server.durable() ? session_graph : r.result.query_graph;
    std::cout << "Query (EntrezProtein.name = \"" << symbol << "\", AmiGO): "
              << graph.graph.num_nodes() << " nodes, "
              << graph.graph.num_edges() << " edges, "
              << graph.answers.size() << " candidate functions.\n\n";
    std::cout << "Top " << top_n << " functions by served reliability ("
              << FormatCompact((r.timing.rank_s + r.timing.refine_s) * 1e3, 3)
              << " ms, "
              << r.stats.cache_hits << " cache hits, " << r.stats.pruned
              << " pruned):\n";
    for (size_t i = 0; i < r.top.size(); ++i) {
      const api::RankedAnswer& answer = r.top[i];
      std::cout << " " << PadLeft(std::to_string(i + 1), 5) << "  "
                << answer.label << "  (r " << FormatCompact(answer.reliability, 4)
                << " in [" << FormatCompact(answer.lower, 4) << ", "
                << FormatCompact(answer.upper, 4) << "])\n";
      PrintEvidence(graph, answer.node);
    }
    return MaybeCheckpoint(server, checkpoint);
  }

  // Offline methods: materialize the graph through the facade, score
  // with the harness's Ranker.
  api::QueryRequest graph_only = api::MakeProteinFunctionRequest(symbol);
  graph_only.options.rank = false;
  api::Result<api::QueryResponse> run = server.Query(graph_only);
  if (!run.ok()) {
    std::cerr << run.status() << "\n";
    return 1;
  }
  const QueryGraph& graph = run.value().result.query_graph;
  std::cout << "Query (EntrezProtein.name = \"" << symbol << "\", AmiGO): "
            << graph.graph.num_nodes() << " nodes, "
            << graph.graph.num_edges() << " edges, "
            << graph.answers.size() << " candidate functions.\n\n";

  Result<std::vector<RankedAnswer>> ranked =
      server.harness().ranker().Rank(graph, method);
  if (!ranked.ok()) {
    std::cerr << ranked.status() << "\n";
    return 1;
  }
  std::cout << "Top " << top_n << " functions by "
            << RankingMethodName(method) << ":\n";
  for (int i = 0; i < top_n && i < static_cast<int>(ranked.value().size());
       ++i) {
    const RankedAnswer& answer = ranked.value()[i];
    std::cout << " "
              << PadLeft(FormatRankInterval(answer.rank_lo, answer.rank_hi),
                         5)
              << "  " << graph.graph.node(answer.node).label << "  (score "
              << FormatCompact(answer.score, 4) << ")\n";
    PrintEvidence(graph, answer.node);
  }
  return MaybeCheckpoint(server, checkpoint);
}
