// Process-local metrics registry: named counters and log-bucketed
// latency histograms with cheap handle-based recording on hot paths.
// Gauges are point-in-time state, so they come only from collectors.
// Each api::Server owns one registry, so several servers in one process
// (tests and benches build many) never mix their metrics.
//
// Recording contract (the hot-path side):
//   - Counter::Add is one relaxed atomic add; Histogram::Observe is one
//     relaxed bucket add plus a CAS loop on the running sum. Both are
//     lock-free, and TSan sees only atomic traffic.
//   - Handles returned by Get* are stable for the Registry's lifetime;
//     resolve them once at construction, not per request.
//
// Snapshot contract (the reading side): TakeSnapshot() holds the
// registry mutex, runs registered collector callbacks (the bridge for
// point-in-time state such as the cache and admission-queue gauges),
// and returns a self-contained Snapshot sorted by metric name. Values
// are read with acquire ordering; a snapshot is a consistent *list* of
// metrics, each read atomically, not a global atomic cut — the same
// contract Prometheus scrapes live with.
//
// Every histogram uses one ~2x bucket ladder: bucket i holds
// observations <= kHistogramMinBound * 2^i (cumulative counts are
// computed at snapshot time, matching Prometheus `le` semantics).
// Quantiles are derived from the bucket counts with log-linear
// interpolation inside the bucket — approximate by construction, exact
// enough for p50/p99/p999 gates.
//
// Naming convention (enforced by the exporter tests, see
// docs/ARCHITECTURE.md §9): biorank_<layer>_<name> with layer one of
// api/serve/ingest/storage, counters suffixed _total, latency histograms
// suffixed _seconds.

#ifndef BIORANK_OBS_METRICS_H_
#define BIORANK_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace biorank::obs {

/// A monotonically increasing counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// The histogram ladder: kHistogramBuckets finite upper bounds
/// kHistogramMinBound * 2^i plus an implicit +Inf bucket, spanning
/// 1 microsecond .. ~134 seconds — wide enough for every latency this
/// stack records, from cache probes to blocked open-loop queries.
inline constexpr double kHistogramMinBound = 1e-6;
inline constexpr int kHistogramBuckets = 28;

/// A log-bucketed histogram on the ladder above. The running sum uses a
/// CAS loop because C++17 has no atomic<double>::fetch_add.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one observation. Values below the first bound land in
  /// bucket 0; values above the last finite bound land in the +Inf
  /// bucket. NaN is dropped (never recorded) so a poisoned timing can
  /// not corrupt the sum.
  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;

  /// Finite upper bounds (size kHistogramBuckets); the +Inf bucket is
  /// implicit at index kHistogramBuckets in per-bucket counts.
  const std::vector<double>& bounds() const;

  /// Raw (non-cumulative) per-bucket counts, size bounds().size() + 1.
  std::vector<uint64_t> BucketCounts() const;

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets + 1> counts_{};
  std::atomic<uint64_t> sum_bits_{0};  // bit-cast double accumulator
};

/// Point-in-time views assembled by Registry::TakeSnapshot().
struct CounterSnapshot {
  std::string name;
  std::string help;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::string help;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::string help;
  std::vector<double> bounds;    ///< finite upper bounds, ascending
  std::vector<uint64_t> counts;  ///< raw per-bucket, size bounds+1 (+Inf last)
  uint64_t count = 0;
  double sum = 0.0;

  /// Quantile estimate (q in [0,1]) by log-linear interpolation within
  /// the bucket holding the q-th observation. Returns 0 on an empty
  /// histogram; observations in the +Inf bucket report the last finite
  /// bound (a deliberate floor — the ladder is sized so this is rare).
  double Quantile(double q) const;
};

struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Distinct metric names across all three kinds.
  size_t MetricCount() const {
    return counters.size() + gauges.size() + histograms.size();
  }

  /// By-name lookups, one per kind: null when no metric of that kind
  /// carries `name`, so a misspelt name fails its reader instead of
  /// reading 0.
  const CounterSnapshot* FindCounter(std::string_view name) const;
  const GaugeSnapshot* FindGauge(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
};

/// A collector contributes derived metrics (point-in-time state
/// flattened into counters/gauges) at snapshot time, under the registry
/// lock. Collectors must not call back into the Registry.
using Collector = std::function<void(Snapshot&)>;

/// The registry proper. Get* calls are idempotent: the first call for a
/// name creates the metric, later calls return the same handle (help
/// text from the first registration wins). Metric names must be
/// distinct across kinds — registering "x" as both a counter and a
/// histogram is a programming error and aborts in debug builds.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  /// Registers a snapshot-time collector (see Collector above) for the
  /// registry's lifetime; whatever it reads must live as long as the
  /// registry.
  void AddCollector(Collector fn);

  /// Locked point-in-time snapshot: native counters and histograms
  /// first, then collectors, then a stable sort by name within each
  /// kind.
  Snapshot TakeSnapshot() const;

 private:
  struct CounterEntry {
    std::string help;
    std::unique_ptr<Counter> metric;
  };
  struct HistogramEntry {
    std::string help;
    std::unique_ptr<Histogram> metric;
  };

  mutable std::mutex mu_;
  std::map<std::string, CounterEntry> counters_;
  std::map<std::string, HistogramEntry> histograms_;
  std::vector<Collector> collectors_;
};

}  // namespace biorank::obs

#endif  // BIORANK_OBS_METRICS_H_
