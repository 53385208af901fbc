// bench_ledger: the serving benchmark of the biorank stack.
//
// One invocation runs one named workload against one api::Server in
// this process and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}:
//
//   bench_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--work-dir DIR]
//   bench_ledger --selftest
//
// Every workload is a closed loop of one client against a server that
// ranks on one thread. Untraced runs (--trace 0) report the end-to-end
// metrics: set-up time (median of repeated set-ups), throughput, median
// and 90th-percentile latency, and peak RSS. Latency is per operation as
// the client sees it. Every timing is rescaled to a reference pace of the
// host (see HostPace), because the shared hosts this runs on change speed
// by up to a third for minutes at a time. A run issues a fixed number of
// operations (--seconds times the workload's calibrated rate), and every
// run checks the server's outputs against independent references,
// reporting correct = false on any mismatch.
//
// Traced runs (--trace 1) replay the same input sequence through the
// server and through PipelineCopy (the benchmark's own composition of the
// server's public layer calls) for --seconds, assert that both return
// bit-identical rankings, and report the per-layer ledger: each layer's
// share of the server's time, ledger.coverage (the copy's summed layer
// time over the server's time on the same inputs; ~1 means the ledger
// accounts for the whole request), work counters, and single-threaded
// kernel rates on inputs captured from the workload. These are raw
// times, not rescaled.
//
// Workloads (inputs are pure functions of --seed; the server receives
// only the generated requests):
//   protein_front_door     Query(protein, top 10) with Zipf(1.0)
//                          popularity over all 194 universe proteins;
//                          set-up warms the cache with one pass.
//   fresh_dag_mc           RankGraph(layered DAG, top 10); every graph
//                          misses the cache, so bounds, exact factoring
//                          and MC do the work.
//   live_sessions_durable  48 live sessions on a durable server: each
//                          operation applies a small delta to a session
//                          and then queries it (top 10); a checkpoint runs
//                          inline after every 2,000th delta.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/query.h"
#include "api/server.h"
#include "bench_support.h"
#include "core/canonical.h"
#include "core/csr_snapshot.h"
#include "core/reliability_bounds.h"
#include "core/reliability_mc.h"
#include "core/trial_bound.h"
#include "datagen/scenario.h"
#include "integrate/exploratory_query.h"
#include "pipeline_copy.h"
#include "storage/codec.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace biorank::ledger {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTopK = 10;
/// A run issues a fixed number of operations: --seconds times the
/// workload's calibrated rate (OpsPerSecond), so that a run measures for
/// about --seconds at the commit that added this benchmark and every
/// commit measured with the same --seconds does the same work. Rounded up
/// to whole rounds of the DAG topology pool, and at least kMinOps: six
/// rounds, because fresh_dag_mc's 90th percentile falls between cost tiers
/// of the pool's graphs, and over four rounds it spread by 6-7% between
/// seeds where six gave 2%.
constexpr uint64_t kMinOps = 384;
/// setup_s is the median of repeated set-ups: at least kMinSetups, and
/// more (up to kMaxSetups) until kSetupSeconds of set-up time has been
/// measured, half of them before the measured phase and half after it, so
/// that neither a millisecond set-up nor a few slow seconds of the shared
/// host decide the value.
constexpr int kMinSetups = 8;
constexpr int kMaxSetups = 400;
constexpr double kSetupSeconds = 1.0;
/// HostPace probes the host at least this often between operations.
constexpr double kPaceIntervalS = 0.25;
/// About the median PaceProbe pass on the host the benchmark was written
/// on (a 4-core x86-64 VM, 3.9-4.2 ms). Rescaled timings read as if every
/// pass had taken this long.
constexpr double kReferencePassS = 0.004;
constexpr double kZipfExponent = 1.0;
/// Fixes which proteins are popular and which back the live sessions.
constexpr uint64_t kPopularitySeed = 20090401;
/// fresh_dag_mc draws topologies from a fixed pool (see PoolDag).
constexpr uint64_t kDagTopologies = 64;
constexpr uint64_t kDagTopologySeed = 20260808;
/// fresh_dag_mc re-ranks every 16th graph on the reference.
constexpr uint64_t kDagCheckEvery = 16;
constexpr int kLiveSessions = 48;
constexpr uint64_t kCheckpointEveryDeltas = 2000;
/// Share of a traced run spent on the kernel rates (the rest replays the
/// workload through the server and the copy).
constexpr double kKernelShare = 0.2;
constexpr int kKernelGraphs = 8;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---------------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;      ///< Observations behind the value.
  std::optional<double> mad;  ///< Spread of those observations, if any.
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< Correctness failures (stderr).
  std::vector<std::string> notes;     ///< Findings worth printing (stderr).

  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void Add(std::string name, double value, std::string unit,
           int64_t samples = 1, std::optional<double> mad = std::nullopt) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), samples, mad});
  }
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Prints the human-readable table, the detail line run.py reads, and the
/// result line. Returns false (printing nothing to stdout) when a metric
/// is not a finite number.
bool PrintReport(const std::string& workload, bool trace,
                 const Report& report) {
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "bench_ledger: metric " << m.name << " is not finite\n";
      return false;
    }
  }
  for (const std::string& note : report.notes) {
    std::cerr << "note: " << note << "\n";
  }
  for (const std::string& problem : report.problems) {
    std::cerr << "CHECK FAILED: " << problem << "\n";
  }
  std::ostringstream table;
  table << "# " << workload << (trace ? " (traced)" : "") << ": "
        << report.attempted << " ops attempted, " << report.failed
        << " failed, checks " << (report.correct ? "passed" : "FAILED")
        << "\n";
  for (const Metric& m : report.metrics) {
    char line[256];
    std::snprintf(line, sizeof(line), "#   %-30s %14.6g %-8s n=%-8" PRId64,
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    table << line;
    if (m.mad.has_value()) table << " mad=" << JsonNumber(*m.mad);
    table << "\n";
  }
  std::cout << table.str();

  std::ostringstream detail;
  detail << "ledger-detail {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    detail << (i == 0 ? "" : ", ") << JsonString(m.name)
           << ": {\"samples\": " << m.samples << ", \"mad\": "
           << (m.mad.has_value() ? JsonNumber(*m.mad) : std::string("null"))
           << "}";
  }
  detail << "}";
  std::cout << detail.str() << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (report.correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    result << (i == 0 ? "" : ", ") << JsonString(m.name)
           << ": {\"value\": " << JsonNumber(m.value)
           << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return true;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

/// What one operation returned, as the client sees it.
struct OpOutcome {
  Clock::time_point start;  ///< Just before the first server call.
  Clock::time_point end;    ///< After the last call's response is freed.
  Fingerprint fingerprint;
};

/// One workload: a server (plus, when tracing, the pipeline copy), an
/// operation sequence whose i-th input is a pure function of (seed, i),
/// and the checks run after the measured phase.
class Workload {
 public:
  explicit Workload(const Config& config) : config_(config) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Calibrated operations per second; see kMinOps.
  virtual double OpsPerSecond() const = 0;

  uint64_t Ops() const {
    const double wanted = std::ceil(config_.seconds * OpsPerSecond());
    const uint64_t ops = std::max(kMinOps, static_cast<uint64_t>(wanted));
    return (ops + kDagTopologies - 1) / kDagTopologies * kDagTopologies;
  }

  /// Builds (or rebuilds) the server and warms it; returns the wall time
  /// the server-side set-up took. With config.trace the pipeline copy is
  /// set up the same way.
  virtual Result<double> Setup() = 0;

  /// Issues operation `index` to the server.
  virtual Status Run(uint64_t index, OpOutcome& out) = 0;

  /// Issues the same operation to the pipeline copy (trace runs only).
  virtual Result<Fingerprint> RunCopy(uint64_t index) = 0;

  /// Verifies what the measured phase recorded; may take a while.
  virtual void Check(Report& report) = 0;

  /// A few request graphs of this workload for the kernel rates.
  virtual std::vector<QueryGraph> KernelGraphs() = 0;

  PipelineCopy& copy() { return *copy_; }
  const serve::RankingServiceOptions& ranking_options() const {
    return server_->options().ranking;
  }

 protected:
  Rng InputRng(uint64_t index) const {
    return Rng::ForStream(config_.seed, index);
  }

  /// Every server ranks on one thread: on a few shared cores, the default
  /// pool's fan-out measured the scheduler more than the server.
  static api::ServerOptions BaseOptions() {
    api::ServerOptions options;
    options.ranking.num_threads = 1;
    return options;
  }

  Status MakeCopy(const std::string& store_dir) {
    Result<std::unique_ptr<PipelineCopy>> copy =
        PipelineCopy::Create(*server_, store_dir);
    if (!copy.ok()) return copy.status();
    copy_ = std::move(copy.value());
    return Status::OK();
  }

  /// Reference server for the checks: cache off, one thread.
  static api::ServerOptions ColdReferenceOptions() {
    api::ServerOptions options;
    options.ranking.enable_cache = false;
    options.ranking.num_threads = 1;
    return options;
  }

  Config config_;
  std::unique_ptr<api::Server> server_;
  std::unique_ptr<PipelineCopy> copy_;
};

// --- protein_front_door -----------------------------------------------------

class ProteinFrontDoor : public Workload {
 public:
  using Workload::Workload;

  double OpsPerSecond() const override { return 840.0; }

  Result<double> Setup() override {
    copy_.reset();
    server_.reset();
    const Clock::time_point start = Clock::now();
    server_ = std::make_unique<api::Server>(BaseOptions());
    std::vector<std::string> symbols;
    for (const Protein& protein : server_->universe().proteins()) {
      symbols.push_back(protein.gene_symbol);
    }
    for (const std::string& symbol : symbols) {
      Result<api::QueryResponse> warm =
          server_->Query(api::MakeProteinFunctionRequest(symbol, kTopK));
      if (!warm.ok()) return warm.status();
    }
    const double setup_s = SecondsSince(start);
    if (config_.trace) {
      BIORANK_RETURN_IF_ERROR(MakeCopy(""));
      for (const std::string& symbol : symbols) {
        Result<Fingerprint> warm =
            copy_->Query(api::MakeProteinFunctionRequest(symbol, kTopK));
        if (!warm.ok()) return warm.status();
      }
    }
    // Popularity is a fixed property of the workload (a seeded shuffle
    // that --seed does not change); the seed draws the request sequence.
    // A per-seed hot set would make a run's mean cost depend on which
    // proteins the seed happened to make popular.
    Rng order_rng = Rng::ForStream(kPopularitySeed, 0);
    order_rng.Shuffle(symbols);
    by_rank_ = std::move(symbols);
    zipf_ = std::make_unique<ZipfSampler>(by_rank_.size(), kZipfExponent);
    first_.clear();
    unstable_.clear();
    return setup_s;
  }

  Status Run(uint64_t index, OpOutcome& out) override {
    const size_t rank = Pick(index);
    const api::QueryRequest request =
        api::MakeProteinFunctionRequest(by_rank_[rank], kTopK);
    out.start = Clock::now();
    {
      Result<api::QueryResponse> response = server_->Query(request);
      if (!response.ok()) return response.status();
      out.fingerprint = api::RankingFingerprint(response.value());
    }
    out.end = Clock::now();
    auto [it, inserted] = first_.try_emplace(rank, out.fingerprint);
    if (!inserted && !SameFingerprint(it->second, out.fingerprint)) {
      unstable_.push_back(rank);
    }
    return Status::OK();
  }

  Result<Fingerprint> RunCopy(uint64_t index) override {
    return copy_->Query(
        api::MakeProteinFunctionRequest(by_rank_[Pick(index)], kTopK));
  }

  void Check(Report& report) override {
    for (size_t rank : unstable_) {
      report.Fail("protein " + by_rank_[rank] +
                  ": repeated queries returned different rankings");
    }
    api::Server reference(ColdReferenceOptions());
    for (const auto& [rank, fingerprint] : first_) {
      Result<api::QueryResponse> expected = reference.Query(
          api::MakeProteinFunctionRequest(by_rank_[rank], kTopK));
      if (!expected.ok()) {
        report.Fail("reference query failed: " +
                    expected.status().ToString());
        return;
      }
      if (!SameFingerprint(api::RankingFingerprint(expected.value()),
                           fingerprint)) {
        report.Fail("protein " + by_rank_[rank] +
                    ": ranking differs from the cache-off reference");
      }
    }
  }

  std::vector<QueryGraph> KernelGraphs() override {
    std::vector<QueryGraph> graphs;
    for (size_t rank = 0; rank < by_rank_.size() &&
                          static_cast<int>(graphs.size()) < kKernelGraphs;
         ++rank) {
      Result<ExploratoryQueryResult> run =
          server_->mediator().Run(MakeProteinFunctionQuery(by_rank_[rank]));
      if (run.ok() && !run.value().query_graph.answers.empty()) {
        graphs.push_back(std::move(run.value().query_graph));
      }
    }
    return graphs;
  }

 private:
  size_t Pick(uint64_t index) const {
    Rng rng = InputRng(index);
    return zipf_->Sample(rng);
  }

  std::vector<std::string> by_rank_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::map<size_t, Fingerprint> first_;  ///< First ranking per protein.
  std::vector<size_t> unstable_;         ///< Proteins whose ranking changed.
};

// --- fresh_dag_mc ------------------------------------------------------------

class FreshDagMc : public Workload {
 public:
  using Workload::Workload;

  double OpsPerSecond() const override { return 11.8; }

  Result<double> Setup() override {
    copy_.reset();
    server_.reset();
    const Clock::time_point start = Clock::now();
    server_ = std::make_unique<api::Server>(BaseOptions());
    const double setup_s = SecondsSince(start);
    samples_.clear();
    if (config_.trace) BIORANK_RETURN_IF_ERROR(MakeCopy(""));
    return setup_s;
  }

  Status Run(uint64_t index, OpOutcome& out) override {
    QueryGraph graph = PoolDag(index);
    out.start = Clock::now();
    {
      Result<api::QueryResponse> response = server_->RankGraph(graph, kTopK);
      if (!response.ok()) return response.status();
      out.fingerprint = api::RankingFingerprint(response.value());
    }
    out.end = Clock::now();
    if (index % kDagCheckEvery == 0) {
      samples_.push_back({std::move(graph), out.fingerprint});
    }
    return Status::OK();
  }

  Result<Fingerprint> RunCopy(uint64_t index) override {
    return copy_->RankGraph(PoolDag(index), kTopK);
  }

  void Check(Report& report) override {
    api::Server reference(ColdReferenceOptions());
    for (const Sample& sample : samples_) {
      Result<api::QueryResponse> expected =
          reference.RankGraph(sample.graph, kTopK);
      if (!expected.ok()) {
        report.Fail("reference RankGraph failed: " +
                    expected.status().ToString());
        return;
      }
      if (!SameFingerprint(api::RankingFingerprint(expected.value()),
                           sample.fingerprint)) {
        report.Fail("a DAG ranking differs from the cache-off reference");
      }
    }
  }

  /// The first kKernelGraphs requests.
  std::vector<QueryGraph> KernelGraphs() override {
    std::vector<QueryGraph> graphs;
    for (int i = 0; i < kKernelGraphs; ++i) {
      graphs.push_back(PoolDag(static_cast<uint64_t>(i)));
    }
    return graphs;
  }

 private:
  struct Sample {
    QueryGraph graph;
    Fingerprint fingerprint;
  };

  /// Request `index`: one of kDagTopologies fixed layered DAGs, walked
  /// once per round in a seed-dependent order, with per-request jitter on
  /// its probabilities (see MakeLayeredDag). Every request misses the
  /// cache, yet a run of whole rounds does the same work under every seed.
  /// The cost is dominated by a few graphs (two of the 64 take ~0.8 s
  /// where most take ~30 ms), so graphs drawn afresh per request would
  /// make throughput and tail latency depend on the seed more than on the
  /// code.
  QueryGraph PoolDag(uint64_t index) const {
    std::vector<uint64_t> order(kDagTopologies);
    std::iota(order.begin(), order.end(), 0);
    Rng round = Rng::ForStream(DeriveStreamSeed(config_.seed, 0x746f706f),
                               index / kDagTopologies);
    round.Shuffle(order);
    Rng topology =
        Rng::ForStream(kDagTopologySeed, order[index % kDagTopologies]);
    Rng jitter = InputRng(index);
    return MakeLayeredDag(topology, jitter);
  }

  std::vector<Sample> samples_;
};

// --- live_sessions_durable ------------------------------------------------------

class LiveSessionsDurable : public Workload {
 public:
  using Workload::Workload;

  double OpsPerSecond() const override { return 1500.0; }

  ~LiveSessionsDurable() override {
    copy_.reset();
    server_.reset();
    RemoveStores();
  }

  Result<double> Setup() override {
    copy_.reset();
    server_.reset();
    RemoveStores();
    store_dir_ = StoreDir("server");
    std::filesystem::create_directories(store_dir_);
    api::ServerOptions options = BaseOptions();
    options.storage_dir = store_dir_;

    const Clock::time_point start = Clock::now();
    server_ = std::make_unique<api::Server>(options);
    if (!server_->durable()) return server_->storage_status();
    ids_.clear();
    for (const std::string& symbol : SessionSymbols()) {
      Result<api::SessionInfo> opened =
          server_->OpenSession(api::MakeProteinFunctionRequest(symbol, 0));
      if (!opened.ok()) return opened.status();
      ids_.push_back(opened.value().id);
    }
    const double setup_s = SecondsSince(start);

    bases_.clear();
    for (api::SessionId id : ids_) {
      Result<QueryGraph> base = server_->SessionSnapshot(id);
      if (!base.ok()) return base.status();
      bases_.push_back(std::move(base.value()));
    }
    deltas_ = 0;
    copy_deltas_ = 0;
    if (config_.trace) {
      const std::string copy_dir = StoreDir("copy");
      std::filesystem::create_directories(copy_dir);
      BIORANK_RETURN_IF_ERROR(MakeCopy(copy_dir));
      for (size_t i = 0; i < ids_.size(); ++i) {
        Result<api::SessionId> opened = copy_->OpenSession(
            api::MakeProteinFunctionRequest(symbols_[i], 0));
        if (!opened.ok()) return opened.status();
        if (opened.value() != ids_[i]) {
          return Status::Internal("copy session ids diverged");
        }
      }
    }
    return setup_s;
  }

  Status Run(uint64_t index, OpOutcome& out) override {
    Rng rng = InputRng(index);
    const size_t s = static_cast<size_t>(rng.NextBounded(ids_.size()));
    const ingest::EvidenceDelta delta = BuildDelta(bases_[s], rng);
    out.start = Clock::now();
    {
      Result<ingest::ApplyReport> applied = server_->ApplyDelta(ids_[s], delta);
      if (!applied.ok()) return applied.status();
      Result<api::QueryResponse> response = server_->QuerySession(ids_[s], kTopK);
      if (!response.ok()) return response.status();
      out.fingerprint = api::RankingFingerprint(response.value());
      if (++deltas_ % kCheckpointEveryDeltas == 0) {
        Result<api::CheckpointReport> checkpoint = server_->Checkpoint();
        if (!checkpoint.ok()) return checkpoint.status();
      }
    }
    out.end = Clock::now();
    return Status::OK();
  }

  Result<Fingerprint> RunCopy(uint64_t index) override {
    Rng rng = InputRng(index);
    const size_t s = static_cast<size_t>(rng.NextBounded(ids_.size()));
    const ingest::EvidenceDelta delta = BuildDelta(bases_[s], rng);
    BIORANK_RETURN_IF_ERROR(copy_->ApplyDelta(ids_[s], delta));
    Result<Fingerprint> fingerprint = copy_->QuerySession(ids_[s], kTopK);
    if (fingerprint.ok() && ++copy_deltas_ % kCheckpointEveryDeltas == 0) {
      BIORANK_RETURN_IF_ERROR(copy_->Checkpoint());
    }
    return fingerprint;
  }

  void Check(Report& report) override {
    // Every session against a cold rebuild of its current graph.
    api::Server reference(ColdReferenceOptions());
    std::vector<Fingerprint> live(ids_.size());
    for (size_t i = 0; i < ids_.size(); ++i) {
      Result<QueryGraph> graph = server_->SessionSnapshot(ids_[i]);
      Result<api::QueryResponse> served = server_->QuerySession(ids_[i], kTopK);
      if (!graph.ok() || !served.ok()) {
        report.Fail("session " + std::to_string(ids_[i]) + " read-back failed");
        return;
      }
      Result<api::QueryResponse> rebuilt =
          reference.RankGraph(graph.value(), kTopK);
      if (!rebuilt.ok()) {
        report.Fail("reference RankGraph failed: " +
                    rebuilt.status().ToString());
        return;
      }
      live[i] = api::RankingFingerprint(served.value());
      if (!SameFingerprint(live[i], api::RankingFingerprint(rebuilt.value()))) {
        report.Fail("session " + symbols_[i] +
                    ": ranking differs from a cold rebuild of its graph");
      }
    }
    // A warm boot on the run's store must reproduce every session.
    server_.reset();
    api::ServerOptions options = BaseOptions();
    options.storage_dir = store_dir_;
    const Clock::time_point start = Clock::now();
    api::Server recovered(options);
    const double recovery_s = SecondsSince(start);
    if (!recovered.durable()) {
      report.Fail("warm boot failed: " +
                  recovered.storage_status().ToString());
      return;
    }
    for (size_t i = 0; i < ids_.size(); ++i) {
      Result<api::QueryResponse> served = recovered.QuerySession(ids_[i], kTopK);
      if (!served.ok() ||
          !SameFingerprint(live[i], api::RankingFingerprint(served.value()))) {
        report.Fail("session " + symbols_[i] +
                    ": warm boot does not reproduce its ranking");
      }
    }
    const storage::RecoveryReport& rr = recovered.recovery_report();
    report.notes.push_back(
        "warm boot took " + JsonNumber(recovery_s * 1e3) + " ms (" +
        std::to_string(rr.replayed_records) + " WAL records replayed past " +
        (rr.snapshot_loaded ? "a snapshot" : "no snapshot") + ")");
  }

  std::vector<QueryGraph> KernelGraphs() override {
    const size_t n = std::min<size_t>(bases_.size(), kKernelGraphs);
    return std::vector<QueryGraph>(bases_.begin(), bases_.begin() + n);
  }

 private:
  /// The 20 Table-1 proteins plus 28 more from a fixed shuffle (the
  /// session set is part of the workload; --seed draws the operations).
  std::vector<std::string> SessionSymbols() {
    symbols_.clear();
    std::vector<std::string> others;
    for (const ScenarioCase& spec : BuildScenarioCases(
             server_->universe(), ScenarioId::kScenario1WellKnown)) {
      symbols_.push_back(spec.gene_symbol);
    }
    for (const Protein& protein : server_->universe().proteins()) {
      if (std::find(symbols_.begin(), symbols_.end(), protein.gene_symbol) ==
          symbols_.end()) {
        others.push_back(protein.gene_symbol);
      }
    }
    Rng rng = Rng::ForStream(kPopularitySeed, 1);
    rng.Shuffle(others);
    for (const std::string& symbol : others) {
      if (static_cast<int>(symbols_.size()) >= kLiveSessions) break;
      symbols_.push_back(symbol);
    }
    return symbols_;
  }

  std::string StoreDir(const std::string& role) const {
    return config_.work_dir + "/live-" + std::to_string(config_.seed) + "-" +
           role;
  }

  void RemoveStores() {
    std::error_code ignored;
    std::filesystem::remove_all(StoreDir("server"), ignored);
    std::filesystem::remove_all(StoreDir("copy"), ignored);
  }

  std::string store_dir_;
  std::vector<std::string> symbols_;
  std::vector<api::SessionId> ids_;
  std::vector<QueryGraph> bases_;  ///< Set-up snapshots the deltas build on.
  uint64_t deltas_ = 0;
  uint64_t copy_deltas_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const Config& config) {
  if (config.workload == "protein_front_door") {
    return std::make_unique<ProteinFrontDoor>(config);
  }
  if (config.workload == "fresh_dag_mc") {
    return std::make_unique<FreshDagMc>(config);
  }
  if (config.workload == "live_sessions_durable") {
    return std::make_unique<LiveSessionsDurable>(config);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// The host's pace.
// ---------------------------------------------------------------------------

/// The shared host's pace through a run. On a shared VM, busy neighbours
/// slowed a single-threaded CPU-bound loop by up to 35% for minutes at a
/// time, and every raw timing here moved with it: ten runs of the same
/// code spread by 9-26% between their quartiles. So every end-to-end
/// timing is rescaled to a reference pace. A PaceProbe pass runs between
/// operations at least every kPaceIntervalS, and a time measured from
/// `start` is multiplied by kReferencePassS over the mean of the passes
/// just before and just after `start`. The probe runs none of the code
/// under test, so a change to the server moves rescaled times as it moves
/// raw ones.
class HostPace {
 public:
  /// Runs a probe pass if kPaceIntervalS passed since the last one, or
  /// if `force`.
  void Sample(bool force) {
    const Clock::time_point now = Clock::now();
    if (!force && !at_.empty() &&
        SecondsBetween(at_.back(), now) < kPaceIntervalS) {
      return;
    }
    at_.push_back(now);
    pass_s_.push_back(probe_.Pass());
  }

  /// `seconds` measured from `start`, rescaled to the reference pace.
  /// Needs at least one sample.
  double Rescale(Clock::time_point start, double seconds) const {
    const size_t after = static_cast<size_t>(
        std::upper_bound(at_.begin(), at_.end(), start) - at_.begin());
    double sum = 0.0;
    int passes = 0;
    if (after > 0) {
      sum += pass_s_[after - 1];
      ++passes;
    }
    if (after < pass_s_.size()) {
      sum += pass_s_[after];
      ++passes;
    }
    return seconds * kReferencePassS * passes / sum;
  }

  const std::vector<double>& pass_s() const { return pass_s_; }

 private:
  PaceProbe probe_;
  std::vector<Clock::time_point> at_;  ///< When each pass began.
  std::vector<double> pass_s_;
};

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.
// ---------------------------------------------------------------------------

/// What the measured phase recorded.
struct Load {
  std::vector<Clock::time_point> start;  ///< Per completed operation.
  std::vector<double> latency_s;         ///< Per completed operation.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

/// One client issuing the workload's Ops() operations in order, each as
/// soon as the previous one returned, with probe passes in between.
Load RunClosedLoop(Workload& workload, HostPace& pace) {
  Load load;
  const uint64_t ops = workload.Ops();
  pace.Sample(true);
  for (uint64_t i = 0; i < ops; ++i) {
    pace.Sample(false);
    OpOutcome out;
    const Status status = workload.Run(i, out);
    ++load.attempted;
    if (!status.ok()) {
      ++load.failed;
      if (load.errors.size() < 3) load.errors.push_back(status.ToString());
      continue;
    }
    load.start.push_back(out.start);
    load.latency_s.push_back(SecondsBetween(out.start, out.end));
  }
  pace.Sample(true);
  return load;
}

/// Runs set-ups (the last one stays in place for what follows), with
/// probe passes in between, until `count` have run and they took
/// `seconds`, or until `max_count` have run. Appends each one's rescaled
/// time to `setups`.
Status TimeSetups(Workload& workload, HostPace& pace, int count,
                  int max_count, double seconds, std::vector<double>& setups) {
  std::vector<std::pair<Clock::time_point, double>> timed;
  double total_s = 0.0;
  pace.Sample(true);
  for (int n = 0; n < count || (total_s < seconds && n < max_count); ++n) {
    pace.Sample(false);
    const Clock::time_point start = Clock::now();
    Result<double> setup = workload.Setup();
    if (!setup.ok()) return setup.status();
    timed.emplace_back(start, setup.value());
    total_s += setup.value();
  }
  pace.Sample(true);
  for (const auto& [start, s] : timed) {
    setups.push_back(pace.Rescale(start, s));
  }
  return Status::OK();
}

Result<Report> RunUntraced(Workload& workload) {
  HostPace pace;
  std::vector<double> setups;
  BIORANK_RETURN_IF_ERROR(TimeSetups(workload, pace, kMinSetups / 2,
                                     kMaxSetups / 2, kSetupSeconds / 2,
                                     setups));
  const Load load = RunClosedLoop(workload, pace);
  const double peak_rss_mb = PeakRssMb();

  Report report;
  report.attempted = load.attempted;
  report.failed = load.failed;
  for (const std::string& error : load.errors) {
    report.notes.push_back("operation failed: " + error);
  }
  if (load.latency_s.empty()) {
    return Status::FailedPrecondition("no operation completed");
  }
  workload.Check(report);
  BIORANK_RETURN_IF_ERROR(TimeSetups(workload, pace, kMinSetups / 2,
                                     kMaxSetups / 2, kSetupSeconds / 2,
                                     setups));

  std::vector<double> latencies_s;
  double busy_s = 0.0;
  for (size_t i = 0; i < load.latency_s.size(); ++i) {
    latencies_s.push_back(pace.Rescale(load.start[i], load.latency_s[i]));
    busy_s += latencies_s.back();
  }
  const std::optional<double> p50 = Percentile(latencies_s, 0.50);
  const std::optional<double> p90 = Percentile(latencies_s, 0.90);
  const std::optional<double> raw_p50 = Percentile(load.latency_s, 0.50);
  if (!p50.has_value() || !p90.has_value() || !raw_p50.has_value()) {
    return Status::FailedPrecondition(
        "too few operations for a 90th percentile");
  }
  const int64_t ops = static_cast<int64_t>(latencies_s.size());
  std::vector<double> latencies_ms;
  for (double s : latencies_s) latencies_ms.push_back(s * 1e3);

  report.Add("setup_s", Median(setups), "s",
             static_cast<int64_t>(setups.size()), Mad(setups));
  // With one client, the rate the server sustains back to back.
  report.Add("throughput_rps", static_cast<double>(ops) / busy_s, "req/s",
             ops);
  report.Add("latency_p50_ms", *p50 * 1e3, "ms", ops, Mad(latencies_ms));
  report.Add("latency_p90_ms", *p90 * 1e3, "ms", ops);
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.notes.push_back(
      "host pace: median probe pass " +
      JsonNumber(Median(pace.pass_s()) * 1e3) + " ms over " +
      std::to_string(pace.pass_s().size()) + " passes (" +
      JsonNumber(kReferencePassS * 1e3) + " ms reference); raw latency p50 " +
      JsonNumber(*raw_p50 * 1e3) + " ms");
  return report;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer ledger and kernel rates.
// ---------------------------------------------------------------------------

struct KernelRates {
  double canonicalize_per_s = 0.0;
  double bounds_per_s = 0.0;
  double mc_trials_per_s = 0.0;
  double wal_appends_per_s = 0.0;
};

/// Runs `step` until `seconds` pass (at least once); returns the summed
/// work units it reported per second.
template <typename Step>
Result<double> Rate(double seconds, Step step) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + ToDuration(seconds);
  int64_t work = 0;
  do {
    Result<int64_t> done = step();
    if (!done.ok()) return done.status();
    work += done.value();
  } while (Clock::now() < end);
  return static_cast<double>(work) / SecondsSince(start);
}

/// Single-threaded throughput of the four kernels on inputs captured from
/// the workload: canonicalizations of its answers, bounds and MC trials
/// on the resulting canonical residues, and WAL appends of small deltas
/// against its graphs (default group fsync).
Result<KernelRates> MeasureKernels(const std::vector<QueryGraph>& graphs,
                                   const serve::RankingServiceOptions& ranking,
                                   const std::string& wal_dir,
                                   double seconds_each, uint64_t seed) {
  if (graphs.empty()) return Status::FailedPrecondition("no kernel graphs");
  std::vector<CsrSnapshot> csrs;
  std::vector<std::pair<size_t, NodeId>> targets;
  for (size_t g = 0; g < graphs.size(); ++g) {
    csrs.push_back(BuildCsrSnapshot(graphs[g].graph));
    for (NodeId answer : graphs[g].answers) targets.emplace_back(g, answer);
  }
  std::vector<CanonicalCandidate> residues;
  for (const auto& [g, answer] : targets) {
    Result<CanonicalCandidate> c = CanonicalizeCandidate(
        graphs[g], answer, ranking.canonicalize, &csrs[g]);
    if (!c.ok()) return c.status();
    residues.push_back(std::move(c.value()));
  }
  KernelRates rates;
  size_t next = 0;
  Result<double> canonicalize = Rate(seconds_each, [&]() -> Result<int64_t> {
    const auto& [g, answer] = targets[next++ % targets.size()];
    Result<CanonicalCandidate> c = CanonicalizeCandidate(
        graphs[g], answer, ranking.canonicalize, &csrs[g]);
    if (!c.ok()) return c.status();
    return 1;
  });
  if (!canonicalize.ok()) return canonicalize.status();
  rates.canonicalize_per_s = canonicalize.value();

  next = 0;
  Result<double> bounds = Rate(seconds_each, [&]() -> Result<int64_t> {
    const CanonicalCandidate& c = residues[next++ % residues.size()];
    Result<ReliabilityBounds> b =
        BoundReliability(c.canonical, c.target, ranking.bounds);
    if (!b.ok()) return b.status();
    return 1;
  });
  if (!bounds.ok()) return bounds.status();
  rates.bounds_per_s = bounds.value();

  Result<int64_t> trials = RequiredMcTrials(ranking.mc_epsilon, ranking.mc_delta);
  if (!trials.ok()) return trials.status();
  Result<std::vector<int64_t>> shards =
      PlanTrialShards(trials.value(), ranking.mc_shard_trials);
  if (!shards.ok()) return shards.status();
  std::vector<CsrQuerySnapshot> packed;
  for (const CanonicalCandidate& c : residues) {
    Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(c.canonical);
    if (!snapshot.ok()) return snapshot.status();
    packed.push_back(std::move(snapshot.value()));
  }
  next = 0;
  Result<double> mc = Rate(seconds_each, [&]() -> Result<int64_t> {
    const size_t i = next++ % residues.size();
    McOptions options;
    options.trials = trials.value();
    options.seed = DeriveStreamSeed(ranking.seed, residues[i].key.hash);
    options.shard_trials = ranking.mc_shard_trials;
    options.num_threads = 1;
    Result<McShardTallies> tallies = TallyReliabilityMcShards(
        packed[i], options, 0, static_cast<int64_t>(shards.value().size()));
    if (!tallies.ok()) return tallies.status();
    return tallies.value().trials;
  });
  if (!mc.ok()) return mc.status();
  rates.mc_trials_per_s = mc.value();

  std::error_code ignored;
  std::filesystem::remove_all(wal_dir, ignored);
  std::filesystem::create_directories(wal_dir);
  {
    Result<storage::Wal::OpenResult> opened =
        storage::Wal::Open(storage::WalPath(wal_dir), seed, {});
    if (!opened.ok()) return opened.status();
    std::unique_ptr<storage::Wal> wal = std::move(opened.value().wal);
    Rng rng(seed);
    std::vector<ingest::EvidenceDelta> deltas;
    for (const QueryGraph& graph : graphs) {
      deltas.push_back(BuildDelta(graph, rng));
    }
    next = 0;
    Result<double> appends = Rate(seconds_each, [&]() -> Result<int64_t> {
      storage::ByteWriter body;
      storage::EncodeDelta(deltas[next++ % deltas.size()], body);
      Result<uint64_t> lsn = wal->Append(storage::WalRecordType::kApplyDelta,
                                         1, body.bytes());
      if (!lsn.ok()) return lsn.status();
      return 1;
    });
    if (!appends.ok()) return appends.status();
    rates.wal_appends_per_s = appends.value();
  }
  std::filesystem::remove_all(wal_dir, ignored);
  return rates;
}

double Ratio(int64_t num, int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

Result<Report> RunTraced(Workload& workload, const Config& config) {
  Result<double> setup = workload.Setup();
  if (!setup.ok()) return setup.status();
  PipelineCopy& copy = workload.copy();
  copy.ResetLedger();

  Report report;
  std::vector<double> server_ms;
  double server_s = 0.0;
  const Clock::time_point end =
      Clock::now() + ToDuration(config.seconds * (1.0 - kKernelShare));
  for (uint64_t i = 0; Clock::now() < end; ++i) {
    // Alternate which side runs first so neither always finds the CPU
    // caches warmed by the other.
    OpOutcome out;
    Status status;
    Result<Fingerprint> copied = Fingerprint();
    if (i % 2 == 0) {
      status = workload.Run(i, out);
      copied = workload.RunCopy(i);
    } else {
      copied = workload.RunCopy(i);
      status = workload.Run(i, out);
    }
    ++report.attempted;
    if (!status.ok() || !copied.ok()) {
      ++report.failed;
      report.notes.push_back(
          "operation failed: " +
          (status.ok() ? copied.status() : status).ToString());
      break;
    }
    if (!SameFingerprint(out.fingerprint, copied.value())) {
      report.Fail("operation " + std::to_string(i) +
                  ": the pipeline copy's ranking differs from the server's");
    }
    const double s = SecondsBetween(out.start, out.end);
    server_s += s;
    server_ms.push_back(s * 1e3);
  }
  if (server_ms.empty() || server_s <= 0.0) {
    return Status::FailedPrecondition("no operation completed");
  }
  const Ledger& ledger = copy.ledger();
  const int64_t ops = static_cast<int64_t>(server_ms.size());
  const double per_op = 1.0 / static_cast<double>(ops);

  report.Add("ledger.coverage", ledger.TotalSeconds() / server_s, "fraction",
             ops);
  report.Add("ledger.server_ms", server_s * 1e3 * per_op, "ms", ops,
             Mad(server_ms));
  for (int l = 0; l < kLayerCount; ++l) {
    report.Add(std::string(LayerName(static_cast<Layer>(l))) + ".share",
               ledger.seconds[static_cast<size_t>(l)] / server_s, "fraction",
               ops);
  }
  report.Add("request.graph_edges",
             static_cast<double>(ledger.graph_edges) * per_op, "count", ops);
  report.Add("canonical.candidates",
             static_cast<double>(ledger.canonicalized) * per_op, "count", ops);
  report.Add("cache.hit_rate",
             Ratio(ledger.cache_hits, ledger.cache_hits + ledger.cache_misses),
             "fraction", ledger.cache_hits + ledger.cache_misses);
  report.Add("cache.entries",
             static_cast<double>(copy.service().cache().Stats().entries),
             "count");
  report.Add("prune.pruned_fraction", Ratio(ledger.pruned, ledger.gated),
             "fraction", ledger.gated);
  report.Add("prune.survivors", static_cast<double>(ledger.survivors) * per_op,
             "count", ops);
  report.Add("exact.useful_ratio",
             Ratio(ledger.exact_successes, ledger.exact_attempts), "fraction",
             ledger.exact_attempts);
  report.Add("mc.trials", static_cast<double>(ledger.mc_trials) * per_op,
             "count", ops);
  report.Add("ingest.dirty_share",
             Ratio(ledger.dirty_answers, ledger.delta_answers), "fraction",
             ledger.deltas);
  report.Add("ingest.invalidated_per_delta",
             Ratio(ledger.invalidated, ledger.deltas), "count", ledger.deltas);
  report.Add("wal.bytes_per_delta", Ratio(ledger.wal_bytes, ledger.deltas),
             "B", ledger.deltas);
  report.Add("checkpoint.bytes",
             Ratio(ledger.checkpoint_bytes, ledger.checkpoints), "B",
             ledger.checkpoints);

  Result<KernelRates> kernels = MeasureKernels(
      workload.KernelGraphs(), workload.ranking_options(),
      config.work_dir + "/kernel-wal-" + std::to_string(config.seed),
      config.seconds * kKernelShare / 4.0, config.seed);
  if (!kernels.ok()) return kernels.status();
  report.Add("kernel.canonicalize_per_s", kernels.value().canonicalize_per_s,
             "1/s");
  report.Add("kernel.bounds_per_s", kernels.value().bounds_per_s, "1/s");
  report.Add("kernel.mc_trials_per_s", kernels.value().mc_trials_per_s, "1/s");
  report.Add("kernel.wal_appends_per_s", kernels.value().wal_appends_per_s,
             "1/s");
  return report;
}

// ---------------------------------------------------------------------------
// Self-test of the benchmark's own rules.
// ---------------------------------------------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ++failures;
    }
  };
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(Percentile(hundred, 0.50) == std::optional<double>(50.0),
         "p50 of 1..100 is the 50th value (nearest rank)");
  expect(Percentile(hundred, 0.90) == std::optional<double>(90.0),
         "p90 of 1..100 is the 90th value with 10 beyond");
  expect(!Percentile(hundred, 0.95).has_value(),
         "p95 of 100 samples is refused (5 beyond)");
  std::vector<double> two_hundred;
  for (int i = 1; i <= 200; ++i) two_hundred.push_back(i);
  expect(Percentile(two_hundred, 0.95) == std::optional<double>(190.0),
         "p95 of 200 samples is the 190th value");
  expect(!Percentile(std::vector<double>(19, 1.0), 0.50).has_value(),
         "a median of 19 samples is refused");
  expect(Mad({1, 2, 3, 4, 100}) == 1.0, "MAD ignores the outlier");

  ZipfSampler zipf(194, 1.0);
  Rng rng(7);
  std::vector<int> counts(194, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  expect(counts[0] > counts[1] && counts[1] > counts[9] &&
             counts[9] > counts[193],
         "Zipf ranks are drawn in decreasing frequency");
  const double ratio = static_cast<double>(counts[0]) / counts[1];
  expect(ratio > 1.8 && ratio < 2.2, "Zipf(1.0): rank 1 twice as likely as 2");

  const Fingerprint a = {{3, 0.5}, {7, 0.25}};
  Fingerprint b = a;
  expect(SameFingerprint(a, b), "identical fingerprints match");
  b[1].second = std::nextafter(b[1].second, 1.0);
  expect(!SameFingerprint(a, b), "a one-ulp difference is a mismatch");
  b = a;
  b[0].first = 4;
  expect(!SameFingerprint(a, b), "a different node is a mismatch");
  expect(!SameFingerprint(a, {a[0]}), "a shorter ranking is a mismatch");
  expect(!SameBits(0.0, -0.0), "signed zeros differ bitwise");

  HostPace pace;
  const Clock::time_point before = Clock::now();
  pace.Sample(true);
  pace.Sample(false);
  expect(pace.pass_s().size() == 1, "a second pass waits for the interval");
  const Clock::time_point between = Clock::now();
  pace.Sample(true);
  const std::vector<double>& pass = pace.pass_s();
  expect(pass.size() == 2 && pass[0] > 0.0 && pass[1] > 0.0,
         "forced passes are timed");
  expect(pace.Rescale(before, 1.0) == kReferencePassS / pass[0],
         "a time before every pass is rescaled by the first");
  expect(pace.Rescale(between, 1.0) ==
             kReferencePassS * 2 / (pass[0] + pass[1]),
         "a time between passes is rescaled by their mean");
  expect(pace.Rescale(Clock::now(), 2.0) == 2.0 * kReferencePassS / pass[1],
         "a time after every pass is rescaled by the last");

  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

int Usage(const std::string& error) {
  std::cerr << "bench_ledger: " << error << "\n"
            << "usage: bench_ledger --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--work-dir DIR]\n"
               "       bench_ledger --selftest\n"
               "workloads: protein_front_door fresh_dag_mc "
               "live_sessions_durable\n";
  return 2;
}

bool ParseUint(const std::string& text, uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

bool ParseSeconds(const std::string& text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || !(v > 0.0) ||
      v > 600.0) {
    return false;
  }
  out = v;
  return true;
}

int Main(int argc, char** argv) {
  Config config;
  bool selftest = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    bool inline_value = false;
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      inline_value = true;
    }
    auto take = [&]() -> bool {
      if (inline_value) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload") {
      if (!take()) return Usage("--workload needs a value");
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!take() || !ParseUint(value, config.seed)) {
        return Usage("--seed needs a non-negative integer");
      }
    } else if (arg == "--seconds") {
      if (!take() || !ParseSeconds(value, config.seconds)) {
        return Usage("--seconds needs a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (!take() || (value != "0" && value != "1")) {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      if (!take() || value.empty()) return Usage("--work-dir needs a path");
      config.work_dir = value;
    } else {
      return Usage("unknown argument " + arg);
    }
  }
  if (selftest) return SelfTest();
  if (!have_workload) return Usage("--workload is required");
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (workload == nullptr) return Usage("unknown workload " + config.workload);

  std::error_code error;
  std::filesystem::create_directories(config.work_dir, error);
  if (error) {
    std::cerr << "bench_ledger: cannot create " << config.work_dir << ": "
              << error.message() << "\n";
    return 1;
  }
  Result<Report> report = config.trace ? RunTraced(*workload, config)
                                       : RunUntraced(*workload);
  if (!report.ok()) {
    std::cerr << "bench_ledger: " << config.workload << ": "
              << report.status() << "\n";
    return 1;
  }
  return PrintReport(config.workload, config.trace, report.value()) ? 0 : 1;
}

}  // namespace
}  // namespace biorank::ledger

int main(int argc, char** argv) { return biorank::ledger::Main(argc, argv); }
