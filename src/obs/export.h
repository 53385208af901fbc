// Exporters for obs snapshots and captured traces.
//
//   RenderPrometheusText  — Prometheus text exposition format 0.0.4:
//     # HELP / # TYPE comment pairs, counters as `name value`,
//     histograms as cumulative `name_bucket{le="..."}` series plus
//     `name_sum` / `name_count`. What api::Server::MetricsText()
//     returns, what explore_cli --metrics prints and what the
//     bench-smoke metrics-shape gate parses. Programs that need a
//     quantile read api::Server::MetricsSnapshot() and call
//     HistogramSnapshot::Quantile instead.
//   RenderTraceTree       — a captured slow-query trace as an indented
//     span tree with durations and per-span counters, for logs.

#ifndef BIORANK_OBS_EXPORT_H_
#define BIORANK_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace biorank::obs {

std::string RenderPrometheusText(const Snapshot& snapshot);

std::string RenderTraceTree(const CapturedTrace& trace);

}  // namespace biorank::obs

#endif  // BIORANK_OBS_EXPORT_H_
