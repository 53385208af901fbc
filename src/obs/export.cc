#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

namespace biorank::obs {

namespace {

/// Shortest round-trippable decimal for a metric value (%.17g is
/// lossless but ugly; %g at 12 digits is exact for every counter and
/// bound this stack emits).
std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void AppendHeader(std::string& out, const std::string& name,
                  const std::string& help, const char* type) {
  out += "# HELP " + name + " " +
         (help.empty() ? std::string("(no help)") : EscapeHelp(help)) + "\n";
  out += "# TYPE " + name + " " + type + "\n";
}

}  // namespace

std::string RenderPrometheusText(const Snapshot& snapshot) {
  std::string out;
  for (const CounterSnapshot& c : snapshot.counters) {
    AppendHeader(out, c.name, c.help, "counter");
    out += c.name + " " + FormatValue(static_cast<double>(c.value)) + "\n";
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    AppendHeader(out, g.name, g.help, "gauge");
    out += g.name + " " + FormatValue(g.value) + "\n";
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    AppendHeader(out, h.name, h.help, "histogram");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.counts.size() ? h.counts[i] : 0;
      out += h.name + "_bucket{le=\"" + FormatValue(h.bounds[i]) + "\"} " +
             FormatValue(static_cast<double>(cumulative)) + "\n";
    }
    out += h.name + "_bucket{le=\"+Inf\"} " +
           FormatValue(static_cast<double>(h.count)) + "\n";
    out += h.name + "_sum " + FormatValue(h.sum) + "\n";
    out += h.name + "_count " + FormatValue(static_cast<double>(h.count)) +
           "\n";
  }
  return out;
}

std::string RenderTraceTree(const CapturedTrace& trace) {
  std::string out = "trace " + std::to_string(trace.id) + " [" +
                    trace.entry_point + "] total " +
                    FormatValue(trace.total_s) + " s\n";
  // Children in span-creation order under each parent.
  std::vector<std::vector<int>> children(trace.spans.size());
  std::vector<int> roots;
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const int parent = trace.spans[i].parent;
    if (parent >= 0 && parent < static_cast<int>(trace.spans.size())) {
      children[static_cast<size_t>(parent)].push_back(static_cast<int>(i));
    } else {
      roots.push_back(static_cast<int>(i));
    }
  }
  std::function<void(int, int)> emit = [&](int index, int depth) {
    const Span& span = trace.spans[static_cast<size_t>(index)];
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += "- " + span.name + " " +
           FormatValue(static_cast<double>(span.duration_ns) / 1e9) + " s";
    for (const auto& [key, value] : span.counters) {
      out += " " + key + "=" + std::to_string(value);
    }
    out += "\n";
    for (int child : children[static_cast<size_t>(index)]) {
      emit(child, depth + 1);
    }
  };
  for (int root : roots) emit(root, 0);
  return out;
}

}  // namespace biorank::obs
