#ifndef BIORANK_BENCH_BENCH_UTIL_H_
#define BIORANK_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "bench_json.h"
#include "obs/metrics.h"
#include "util/csv.h"

namespace biorank::bench {

/// Repetition count for repeated-experiment benches. The paper uses
/// m = 100; the default here keeps the full bench suite fast. Raise via
/// the BIORANK_REPS environment variable to reproduce at paper scale.
/// Malformed values (garbage, trailing junk, non-positive, overflow) are
/// rejected with a warning instead of being silently coerced.
inline int Repetitions(int default_reps = 10) {
  const char* env = std::getenv("BIORANK_REPS");
  if (env == nullptr) return default_reps;
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || value < 1 ||
      value > INT_MAX) {
    std::cerr << "warning: ignoring malformed BIORANK_REPS=\"" << env
              << "\" (want a positive integer); using " << default_reps
              << "\n";
    return default_reps;
  }
  return static_cast<int>(value);
}

/// Writes a CSV copy of a bench table when BIORANK_CSV_DIR is set.
inline void MaybeWriteCsv(const CsvWriter& csv, const std::string& name) {
  const char* dir = std::getenv("BIORANK_CSV_DIR");
  if (dir == nullptr) return;
  std::string path = std::string(dir) + "/" + name + ".csv";
  Status status = csv.WriteToFile(path);
  if (status.ok()) {
    std::cout << "(csv written to " << path << ")\n";
  } else {
    std::cerr << "csv write failed: " << status << "\n";
  }
}

/// Reports the histogram's `q` quantile in ms as metric `key`, but only
/// once it holds at least 10 / (1 - q) samples (1,000 for p99, 10,000
/// for p999): with fewer, under ten samples lie above the quantile and
/// the estimate is little more than the top occupied bucket's edge.
inline void SetQuantileMs(JsonReport& report, const std::string& key,
                          const obs::HistogramSnapshot& histogram, double q) {
  if (static_cast<double>(histogram.count) * (1.0 - q) < 10.0) return;
  report.SetMetric(key, histogram.Quantile(q) * 1e3);
}

/// The value of the counter named `name` in a server's metrics
/// snapshot. A name no counter carries is a bench bug, so it aborts
/// instead of reporting 0.
inline uint64_t CounterValue(const obs::Snapshot& snapshot,
                             std::string_view name) {
  const obs::CounterSnapshot* counter = snapshot.FindCounter(name);
  if (counter == nullptr) {
    std::cerr << "bench: no counter named " << name << "\n";
    std::abort();
  }
  return counter->value;
}

/// The same for a gauge.
inline double GaugeValue(const obs::Snapshot& snapshot,
                         std::string_view name) {
  const obs::GaugeSnapshot* gauge = snapshot.FindGauge(name);
  if (gauge == nullptr) {
    std::cerr << "bench: no gauge named " << name << "\n";
    std::abort();
  }
  return gauge->value;
}

}  // namespace biorank::bench

#endif  // BIORANK_BENCH_BENCH_UTIL_H_
