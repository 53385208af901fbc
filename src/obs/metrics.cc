#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace biorank::obs {

namespace {

uint64_t DoubleToBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// fetch_add for doubles via CAS on the bit pattern; C++17-portable and
/// TSan-clean (every access is an atomic RMW on the same object).
void AtomicAddDouble(std::atomic<uint64_t>& bits, double delta) {
  uint64_t old_bits = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      old_bits, DoubleToBits(BitsToDouble(old_bits) + delta),
      std::memory_order_relaxed)) {
  }
}

}  // namespace

const std::vector<double>& Histogram::bounds() const {
  static const std::vector<double> ladder = [] {
    std::vector<double> bounds;
    double bound = kHistogramMinBound;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      bounds.push_back(bound);
      bound *= 2.0;
    }
    return bounds;
  }();
  return ladder;
}

void Histogram::Observe(double value) {
  if (std::isnan(value)) return;
  // First bucket whose upper bound admits the value; +Inf bucket at
  // bounds.size() when none does. Linear scan: the ladder is 28
  // doubles, and latencies cluster low.
  const std::vector<double>& ladder = bounds();
  size_t bucket = 0;
  while (bucket < ladder.size() && value > ladder[bucket]) ++bucket;
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_bits_, value < 0.0 ? 0.0 : value);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const std::atomic<uint64_t>& c : counts_) {
    total += c.load(std::memory_order_acquire);
  }
  return total;
}

double Histogram::Sum() const {
  return BitsToDouble(sum_bits_.load(std::memory_order_acquire));
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts;
  counts.reserve(counts_.size());
  for (const std::atomic<uint64_t>& c : counts_) {
    counts.push_back(c.load(std::memory_order_acquire));
  }
  return counts;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based), then walk the ladder.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(
                                q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t in_bucket = counts[i];
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    if (i >= bounds.size()) {
      // +Inf bucket: report the last finite bound (documented floor).
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double upper = bounds[i];
    const double lower = i == 0 ? upper / 2.0 : bounds[i - 1];
    if (in_bucket == 0) return upper;
    // Log-linear interpolation inside the ~2x bucket.
    const double frac =
        static_cast<double>(rank - seen) / static_cast<double>(in_bucket);
    return lower * std::pow(upper / lower, frac);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(histograms_.find(name) == histograms_.end());
  CounterEntry& entry = counters_[name];
  if (!entry.metric) {
    entry.help = help;
    entry.metric = std::make_unique<Counter>();
  }
  return entry.metric.get();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(counters_.find(name) == counters_.end());
  HistogramEntry& entry = histograms_[name];
  if (!entry.metric) {
    entry.help = help;
    entry.metric = std::make_unique<Histogram>();
  }
  return entry.metric.get();
}

void Registry::AddCollector(Collector fn) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(fn));
}

namespace {

template <typename T>
const T* FindByName(const std::vector<T>& metrics, std::string_view name) {
  auto it = std::find_if(metrics.begin(), metrics.end(),
                         [name](const T& m) { return m.name == name; });
  return it != metrics.end() ? &*it : nullptr;
}

}  // namespace

const CounterSnapshot* Snapshot::FindCounter(std::string_view name) const {
  return FindByName(counters, name);
}

const GaugeSnapshot* Snapshot::FindGauge(std::string_view name) const {
  return FindByName(gauges, name);
}

const HistogramSnapshot* Snapshot::FindHistogram(std::string_view name) const {
  return FindByName(histograms, name);
}

Snapshot Registry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, entry] : counters_) {
    snapshot.counters.push_back({name, entry.help, entry.metric->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, entry] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.help = entry.help;
    h.bounds = entry.metric->bounds();
    h.counts = entry.metric->BucketCounts();
    h.count = 0;
    for (uint64_t c : h.counts) h.count += c;
    h.sum = entry.metric->Sum();
    snapshot.histograms.push_back(std::move(h));
  }
  for (const Collector& collect : collectors_) collect(snapshot);
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::stable_sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::stable_sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::stable_sort(snapshot.histograms.begin(), snapshot.histograms.end(),
                   by_name);
  return snapshot;
}

}  // namespace biorank::obs
