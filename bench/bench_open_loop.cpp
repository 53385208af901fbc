// Open-loop load bench for the anytime serving mode: a fixed-seed
// Poisson arrival schedule replayed against measured per-request
// service times, blocking vs bounds-first anytime, on one FCFS server.
//
// The workload is a fixed-seed set of layered random DAGs served through
// RankGraph with factoring disabled, so every surviving answer is real
// Monte Carlo work on the blocking path. (The protein-universe front
// door cannot play this role: its per-answer residues reduce to single
// paths, so bounds collapse and blocking == bounds-only there.)
//
// Open loop means arrivals do not wait for completions — the schedule
// is fixed up front (deterministic exponential inter-arrivals at
// lambda = 1.5x the blocking path's saturation rate), so when service
// is slower than arrival the queue grows and tail latency explodes.
// That is exactly the regime the anytime redesign targets: the
// bounds-only pass answers in a fraction of the blocking service time
// (MC refinement moves off the latency path, to Refine calls), so the
// same schedule that drowns the blocking server leaves the anytime
// server nearly idle.
//
// The replay is analytical (latency_i = max(arrival_i, completion_{i-1})
// + service_i - arrival_i) over service times measured on this host, so
// the tail numbers are deterministic given the measured services — no
// real-time sleeping, no scheduler noise in the queueing math itself. A
// second, real-thread section drives api::AdmissionQueue at
// max_concurrent = 1 with deadlines too tight to wait out, counting the
// typed kDeadlineExceeded rejections the SLO front returns instead of
// late answers.
//
// BENCH_open_loop.json gates (mirrored in compare_baselines.py):
//   * p99_ratio = blocking_p99_s / anytime_p99_s >= 5.0;
//   * anytime_p99_s <= slo_p99_s (half the mean blocking service time)
//     — clamped to report-only on single-core hosts;
//   * deadline_rejections > 0 (the admission front actually rejected).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/admission.h"
#include "api/server.h"
#include "core/query_graph.h"
#include "bench_json.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

using namespace biorank;

namespace {

/// Nearest-rank percentile: the value at 1-based rank ceil(q * n),
/// clamped to [1, n] (bench_ledger's rule). The epsilon keeps a q * n
/// that lands a rounding error above a whole rank on that rank.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(q * static_cast<double>(values.size()) - 1e-9);
  const size_t clamped = std::min(
      values.size(), static_cast<size_t>(std::max(rank, 1.0)));
  return values[clamped - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// FCFS single-server replay of the fixed arrival schedule against one
/// mode's measured service times. Returns per-arrival latencies.
std::vector<double> Replay(const std::vector<double>& arrivals,
                           const std::vector<size_t>& which,
                           const std::vector<double>& service) {
  std::vector<double> latencies;
  latencies.reserve(arrivals.size());
  double completion = 0.0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    completion = std::max(arrivals[i], completion) + service[which[i]];
    latencies.push_back(completion - arrivals[i]);
  }
  return latencies;
}

/// One layered random DAG with enough multi-path answers that, with
/// factoring disabled, the blocking path pays full Monte Carlo per
/// survivor while the bounds-only pass stays purely deterministic.
QueryGraph MakeLayeredDag(Rng& rng) {
  constexpr int kLayers = 3;
  constexpr int kNodesPerLayer = 6;
  constexpr int kAnswers = 12;
  constexpr double kEdgeDensity = 0.45;
  constexpr double kSkipDensity = 0.15;
  QueryGraphBuilder builder;
  std::vector<std::vector<NodeId>> layers = {{builder.Source()}};
  for (int layer = 0; layer < kLayers; ++layer) {
    std::vector<NodeId> current;
    for (int i = 0; i < kNodesPerLayer; ++i) {
      current.push_back(builder.Node(rng.NextUniform(0.3, 1.0)));
    }
    layers.push_back(current);
  }
  std::vector<NodeId> answers;
  for (int i = 0; i < kAnswers; ++i) {
    answers.push_back(builder.Node(rng.NextUniform(0.3, 1.0),
                                   "ans" + std::to_string(i)));
  }
  layers.push_back(answers);
  for (size_t layer = 0; layer + 1 < layers.size(); ++layer) {
    for (NodeId from : layers[layer]) {
      for (NodeId to : layers[layer + 1]) {
        if (rng.NextBernoulli(kEdgeDensity)) {
          builder.Edge(from, to, rng.NextUniform(0.2, 1.0));
        }
      }
      for (size_t skip = layer + 2; skip < layers.size(); ++skip) {
        for (NodeId to : layers[skip]) {
          if (rng.NextBernoulli(kSkipDensity)) {
            builder.Edge(from, to, rng.NextUniform(0.2, 1.0));
          }
        }
      }
    }
  }
  // Connectivity hooks: every non-source node gets at least one in-edge
  // from the previous layer.
  for (size_t layer = 1; layer < layers.size(); ++layer) {
    for (NodeId to : layers[layer]) {
      const std::vector<NodeId>& prev = layers[layer - 1];
      builder.Edge(prev[static_cast<size_t>(rng.NextBounded(prev.size()))], to,
                   rng.NextUniform(0.2, 1.0));
    }
  }
  return std::move(builder).Build(answers);
}

/// Measures each graph's service time on a fresh cache-off 1-thread
/// MC-forced server: min over `reps` runs (min, not mean — queueing math
/// wants the intrinsic cost, not this container's scheduling noise).
/// When `metrics_out` is non-null it receives the server's final
/// registry snapshot, so the report can carry the histogram-derived
/// percentiles next to the exact replay math.
Result<std::vector<double>> MeasureServices(
    const std::vector<QueryGraph>& workload, int top_k, api::QueryMode mode,
    int reps, obs::Snapshot* metrics_out = nullptr) {
  api::ServerOptions options;
  options.ranking.enable_cache = false;
  options.ranking.num_threads = 1;
  options.ranking.exact_max_edges = 0;  // Force MC on every survivor.
  // Tighter MC precision than the serving default: the blocking path
  // pays proportionally more trials, putting the service-time gap (and
  // the p99 gap the replay magnifies) firmly above measurement noise.
  options.ranking.mc_epsilon = 0.01;
  api::Server server(options);
  std::vector<double> service(workload.size(), 0.0);
  for (size_t i = 0; i < workload.size(); ++i) {
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      api::QueryOptions request_options;
      request_options.top_k = top_k;
      request_options.mode = mode;
      bench::WallTimer timer;
      api::Result<api::QueryResponse> response =
          server.RankGraph(workload[i], request_options);
      double s = timer.Seconds();
      if (!response.ok()) return response.status();
      if (mode == api::QueryMode::kAnytime) {
        // Bounds-only: the measured pass must not have spent refinement
        // effort, and any registered handle is dropped, not refined —
        // refinement cost is off the serving path by design.
        if (response.value().refinement.valid()) {
          server.CancelRefinement(response.value().refinement).ok();
        }
      }
      best = r == 0 ? s : std::min(best, s);
    }
    service[i] = best;
  }
  if (metrics_out != nullptr) *metrics_out = server.MetricsSnapshot();
  return service;
}

}  // namespace

int main() {
  const int k = 10;
  const int graphs = 16;
  const int reps = std::max(2, bench::Repetitions(2));
  const int arrivals_n = 400;
  std::cout << "=== Open-loop load: Poisson arrivals over an MC-heavy DAG "
               "mix, blocking vs anytime bounds-first ===\n\n";

  Rng workload_rng(20260808);
  std::vector<QueryGraph> workload;
  workload.reserve(graphs);
  for (int i = 0; i < graphs; ++i) {
    workload.push_back(MakeLayeredDag(workload_rng));
  }

  bench::WallTimer wall;

  // 1. Service-time measurement, both modes, cold canonical cache.
  obs::Snapshot blocking_metrics;
  Result<std::vector<double>> blocking_service = MeasureServices(
      workload, k, api::QueryMode::kBlocking, reps, &blocking_metrics);
  Result<std::vector<double>> anytime_service =
      MeasureServices(workload, k, api::QueryMode::kAnytime, reps);
  if (!blocking_service.ok() || !anytime_service.ok()) {
    std::cerr << (blocking_service.ok() ? anytime_service.status()
                                        : blocking_service.status())
              << "\n";
    return 1;
  }
  const double blocking_mean = Mean(blocking_service.value());
  const double anytime_mean = Mean(anytime_service.value());

  // 2. The fixed-seed schedule: lambda at 1.5x blocking saturation, so
  // the blocking replay runs at rho = 1.5 (unstable — the queue grows
  // for the whole run) while the anytime replay sees rho well under 1.
  const double lambda = 1.5 / std::max(blocking_mean, 1e-9);
  Rng rng = Rng::ForStream(20260808, 0);
  std::vector<double> arrivals;
  std::vector<size_t> which;
  double clock = 0.0;
  for (int i = 0; i < arrivals_n; ++i) {
    clock += rng.NextExponential(lambda);
    arrivals.push_back(clock);
    which.push_back(static_cast<size_t>(rng.NextBounded(workload.size())));
  }

  std::vector<double> blocking_lat =
      Replay(arrivals, which, blocking_service.value());
  std::vector<double> anytime_lat =
      Replay(arrivals, which, anytime_service.value());

  const double blocking_p50 = Percentile(blocking_lat, 0.50);
  const double blocking_p99 = Percentile(blocking_lat, 0.99);
  const double blocking_p999 = Percentile(blocking_lat, 0.999);
  const double anytime_p50 = Percentile(anytime_lat, 0.50);
  const double anytime_p99 = Percentile(anytime_lat, 0.99);
  const double anytime_p999 = Percentile(anytime_lat, 0.999);
  const double p99_ratio =
      blocking_p99 / std::max(anytime_p99, 1e-9);
  const double slo_p99_s = 0.5 * blocking_mean;
  const bool slo_met = anytime_p99 <= slo_p99_s;

  TextTable table({"mode", "service mean ms", "p50 ms", "p99 ms", "p999 ms"});
  CsvWriter csv({"mode", "service_mean_ms", "p50_ms", "p99_ms", "p999_ms"});
  bench::JsonReport report("open_loop");
  auto add = [&](const std::string& mode, double mean, double p50, double p99,
                 double p999) {
    std::vector<std::string> cells = {
        mode, FormatDouble(mean * 1e3, 3), FormatDouble(p50 * 1e3, 3),
        FormatDouble(p99 * 1e3, 3), FormatDouble(p999 * 1e3, 3)};
    table.AddRow(cells);
    csv.AddRow(cells);
    report.AddRow({{"mode", mode},
                   {"service_mean_s", mean},
                   {"p50_s", p50},
                   {"p99_s", p99},
                   {"p999_s", p999}});
  };
  add("blocking", blocking_mean, blocking_p50, blocking_p99, blocking_p999);
  add("anytime", anytime_mean, anytime_p50, anytime_p99, anytime_p999);
  table.Print(std::cout);
  std::cout << "\n" << arrivals_n << " Poisson arrivals at lambda = "
            << FormatDouble(lambda, 2)
            << "/s (1.5x blocking saturation): blocking p99 "
            << FormatDouble(blocking_p99 * 1e3, 1) << " ms vs anytime p99 "
            << FormatDouble(anytime_p99 * 1e3, 3) << " ms ("
            << FormatDouble(p99_ratio, 1) << "x); SLO p99 <= "
            << FormatDouble(slo_p99_s * 1e3, 1) << " ms "
            << (slo_met ? "met" : "MISSED") << ".\n";

  // 3. Real threads against the SLO front: one slot, a slow holder, and
  // waiters whose deadlines are far too tight to inherit it — every one
  // must come back kDeadlineExceeded, not late.
  api::AdmissionOptions admission_options;
  admission_options.max_concurrent = 1;
  api::AdmissionQueue admission(admission_options);
  uint64_t deadline_rejections = 0;
  {
    api::Result<api::AdmissionQueue::Ticket> holder = admission.Admit();
    if (!holder.ok()) {
      std::cerr << holder.status() << "\n";
      return 1;
    }
    std::vector<std::thread> waiters;
    std::atomic<uint64_t> rejected{0};
    for (int i = 0; i < 4; ++i) {
      waiters.emplace_back([&admission, &rejected] {
        api::Result<api::AdmissionQueue::Ticket> ticket =
            admission.Admit(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(5));
        if (!ticket.ok() &&
            ticket.status().code() == StatusCode::kDeadlineExceeded) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    for (std::thread& t : waiters) t.join();
    deadline_rejections = rejected.load();
  }
  api::AdmissionStats admission_stats = admission.Stats();
  std::cout << "Admission front (1 slot, 5 ms deadlines vs a 30 ms holder): "
            << deadline_rejections << "/4 waiters rejected kDeadlineExceeded, "
            << admission_stats.admitted << " admitted, peak queue depth "
            << admission_stats.peak_queue_depth << ".\n";
  bench::MaybeWriteCsv(csv, "open_loop");

  const unsigned hc = std::thread::hardware_concurrency();
  report.SetWallTime(wall.Seconds());
  report.SetMetric("k", k);
  report.SetMetric("arrivals", arrivals_n);
  report.SetMetric("lambda_per_s", lambda);
  report.SetMetric("blocking_service_mean_s", blocking_mean);
  report.SetMetric("anytime_service_mean_s", anytime_mean);
  report.SetMetric("blocking_p50_s", blocking_p50);
  report.SetMetric("blocking_p99_s", blocking_p99);
  report.SetMetric("blocking_p999_s", blocking_p999);
  report.SetMetric("anytime_p50_s", anytime_p50);
  report.SetMetric("anytime_p99_s", anytime_p99);
  report.SetMetric("anytime_p999_s", anytime_p999);
  report.SetMetric("p99_ratio", p99_ratio);
  report.SetMetric("slo_p99_s", slo_p99_s);
  report.SetMetric("slo_met", slo_met);
  report.SetMetric("deadline_rejections",
                   static_cast<int64_t>(deadline_rejections));
  report.SetMetric("admission_admitted",
                   static_cast<int64_t>(admission_stats.admitted));
  report.SetMetric("admission_peak_queue_depth",
                   static_cast<int64_t>(admission_stats.peak_queue_depth));
  report.SetMetric("hardware_concurrency", static_cast<int64_t>(hc));
  // The shared biorank_api_query_seconds histogram saw every blocking
  // measurement run — its log-bucketed percentiles ride next to the
  // exact replay percentiles (report-only: the ~2x bucket resolution is
  // too coarse to gate on, but the trend and the count are checkable).
  for (const obs::HistogramSnapshot& h : blocking_metrics.histograms) {
    if (h.name == "biorank_api_query_seconds") {
      report.SetMetric("hist_queries", static_cast<int64_t>(h.count));
      bench::SetQuantileMs(report, "hist_p50_ms", h, 0.5);
      bench::SetQuantileMs(report, "hist_p99_ms", h, 0.99);
    }
  }
  Status write_status = report.Write();

  bool ok = write_status.ok();
  if (p99_ratio < 5.0) {
    std::cerr << "open-loop gate FAILED: p99_ratio "
              << FormatDouble(p99_ratio, 2) << "x is below the 5.0x floor\n";
    ok = false;
  }
  if (!slo_met) {
    if (hc <= 1) {
      // Single-core hosts time-slice the measurement itself; the SLO
      // ceiling stays report-only there (mirrored in the CI gate).
      std::cerr << "open-loop note: SLO ceiling missed on a single-core "
                   "host (report-only)\n";
    } else {
      std::cerr << "open-loop gate FAILED: anytime_p99_s "
                << FormatDouble(anytime_p99, 4) << " s exceeds the SLO of "
                << FormatDouble(slo_p99_s, 4) << " s\n";
      ok = false;
    }
  }
  if (deadline_rejections == 0) {
    std::cerr << "open-loop gate FAILED: the admission front rejected "
                 "nothing under impossible deadlines\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
