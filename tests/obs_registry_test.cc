// The metrics registry: counter/histogram semantics, the ~2x bucket
// ladder, collector gauges, snapshot consistency, the Prometheus
// exporter, and a multi-writer hammer (this suite runs under the
// concurrency ctest label, so TSan sees the atomic recording paths).

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"

namespace biorank::obs {
namespace {

TEST(ObsCounterTest, AddsAccumulate) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(ObsHistogramTest, BucketLadderDoublesFromMinBound) {
  Histogram histogram;
  const std::vector<double>& bounds = histogram.bounds();
  ASSERT_EQ(bounds.size(), 28u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0);
  }
  // The default ladder tops out above two minutes — enough for every
  // latency this stack records.
  EXPECT_GT(bounds.back(), 120.0);
}

TEST(ObsHistogramTest, ObservationsLandInTheRightBuckets) {
  // Bounds 1e-6 * 2^i: bucket 0 is <= 1us, bucket 1 <= 2us, bucket 2
  // <= 4us; the last finite bound is ~134 s, with +Inf at index 28.
  Histogram histogram;
  histogram.Observe(5e-7);   // <= 1e-6 -> bucket 0
  histogram.Observe(1e-6);   // == bound -> bucket 0 (le semantics)
  histogram.Observe(1.5e-6); // bucket 1
  histogram.Observe(1000.0); // +Inf bucket
  std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 29u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[28], 1u);
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 5e-7 + 1e-6 + 1.5e-6 + 1000.0);
}

TEST(ObsHistogramTest, NanIsDropped) {
  Histogram histogram;
  histogram.Observe(std::numeric_limits<double>::quiet_NaN());
  histogram.Observe(0.001);
  EXPECT_EQ(histogram.Count(), 1u);
  EXPECT_FALSE(std::isnan(histogram.Sum()));
}

TEST(ObsHistogramTest, QuantileInterpolatesWithinBucket) {
  Registry registry;
  Histogram* histogram = registry.GetHistogram("biorank_api_test_seconds");
  // 100 observations at 3ms: p50 and p99 must land inside the bucket
  // holding 3ms — between its lower and upper bound.
  for (int i = 0; i < 100; ++i) histogram->Observe(0.003);
  Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HistogramSnapshot& h = snapshot.histograms[0];
  for (double q : {0.5, 0.99, 0.999}) {
    const double estimate = h.Quantile(q);
    EXPECT_GT(estimate, 0.002) << "q=" << q;
    EXPECT_LE(estimate, 0.0041943045) << "q=" << q;  // 1e-6 * 2^22
  }
  // Empty histogram reports 0.
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
}

TEST(ObsRegistryTest, HandlesAreIdempotent) {
  Registry registry;
  Counter* a = registry.GetCounter("biorank_api_x_total", "first help wins");
  Counter* b = registry.GetCounter("biorank_api_x_total", "ignored");
  EXPECT_EQ(a, b);
  a->Add(3);
  Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].value, 3u);
  EXPECT_EQ(snapshot.counters[0].help, "first help wins");
}

TEST(ObsRegistryTest, SnapshotIsSortedByNameAndCountsMetrics) {
  Registry registry;
  registry.GetCounter("biorank_serve_b_total");
  registry.GetCounter("biorank_api_a_total");
  registry.GetHistogram("biorank_ingest_apply_seconds");
  registry.AddCollector([](Snapshot& snapshot) {
    snapshot.gauges.push_back({"biorank_api_depth", "", 2.0});
  });
  Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "biorank_api_a_total");
  EXPECT_EQ(snapshot.counters[1].name, "biorank_serve_b_total");
  EXPECT_EQ(snapshot.MetricCount(), 4u);
}

TEST(ObsRegistryTest, LookupsFindByNameWithinOneKind) {
  Registry registry;
  registry.GetCounter("biorank_api_a_total")->Add(7);
  registry.AddCollector([](Snapshot& snapshot) {
    snapshot.gauges.push_back({"biorank_api_depth", "", 2.0});
  });
  registry.GetHistogram("biorank_ingest_apply_seconds")->Observe(0.5);
  Snapshot snapshot = registry.TakeSnapshot();
  ASSERT_NE(snapshot.FindCounter("biorank_api_a_total"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("biorank_api_a_total")->value, 7u);
  ASSERT_NE(snapshot.FindGauge("biorank_api_depth"), nullptr);
  EXPECT_EQ(snapshot.FindGauge("biorank_api_depth")->value, 2.0);
  ASSERT_NE(snapshot.FindHistogram("biorank_ingest_apply_seconds"), nullptr);
  EXPECT_EQ(snapshot.FindHistogram("biorank_ingest_apply_seconds")->count, 1u);
  // A misspelt name, or the right name asked of the wrong kind, is null.
  EXPECT_EQ(snapshot.FindCounter("biorank_api_b_total"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("biorank_api_depth"), nullptr);
  EXPECT_EQ(snapshot.FindGauge("biorank_api_a_total"), nullptr);
}

TEST(ObsRegistryTest, CollectorsContributeAtEverySnapshot) {
  Registry registry;
  registry.AddCollector([](Snapshot& snapshot) {
    snapshot.gauges.push_back({"biorank_api_derived", "from a collector", 5.0});
  });
  EXPECT_EQ(registry.TakeSnapshot().gauges.size(), 1u);
  Snapshot again = registry.TakeSnapshot();
  ASSERT_EQ(again.gauges.size(), 1u);
  EXPECT_EQ(again.gauges[0].value, 5.0);
}

TEST(ObsExportTest, PrometheusTextIsWellFormed) {
  Registry registry;
  registry.GetCounter("biorank_api_queries_total", "Queries served")->Add(2);
  registry.AddCollector([](Snapshot& snapshot) {
    snapshot.gauges.push_back(
        {"biorank_api_open_sessions", "Live sessions", 1.0});
  });
  Histogram* h = registry.GetHistogram("biorank_api_query_seconds", "Latency");
  h->Observe(1.5e-6);
  h->Observe(1000.0);
  const std::string text = RenderPrometheusText(registry.TakeSnapshot());
  EXPECT_NE(text.find("# HELP biorank_api_queries_total Queries served"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE biorank_api_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("biorank_api_queries_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE biorank_api_open_sessions gauge"),
            std::string::npos);
  EXPECT_NE(text.find("biorank_api_open_sessions 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE biorank_api_query_seconds histogram"),
            std::string::npos);
  // Cumulative le buckets: the 1.5us observation counts into every
  // finite bucket from 2us up; +Inf carries the total.
  EXPECT_NE(text.find("biorank_api_query_seconds_bucket{le=\"1e-06\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("biorank_api_query_seconds_bucket{le=\"2e-06\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("biorank_api_query_seconds_bucket{le=\"134.217728\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("biorank_api_query_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("biorank_api_query_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("biorank_api_query_seconds_sum 1000.0000015"),
            std::string::npos);
}

TEST(ObsRegistryConcurrencyTest, MultiWriterHammerLosesNothing) {
  Registry registry;
  Counter* counter = registry.GetCounter("biorank_api_hammer_total");
  Histogram* histogram = registry.GetHistogram("biorank_api_hammer_seconds");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Add();
        histogram->Observe(1e-4 * static_cast<double>(1 + (i % 7)));
        if (i % 4096 == 0) {
          // Snapshots race the writers by design (the Prometheus
          // contract); they must stay internally consistent.
          Snapshot snapshot = registry.TakeSnapshot();
          ASSERT_EQ(snapshot.histograms.size(), 1u);
          uint64_t bucket_total = 0;
          for (uint64_t c : snapshot.histograms[0].counts) bucket_total += c;
          ASSERT_EQ(bucket_total, snapshot.histograms[0].count);
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(histogram->Count(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // The sum is an exact integer multiple of 1e-4 sums — every
  // observation's contribution survived the CAS loop.
  const double expected_per_thread = 1e-4 * [&] {
    double s = 0;
    for (int i = 0; i < kOpsPerThread; ++i) s += 1 + (i % 7);
    return s;
  }();
  EXPECT_NEAR(histogram->Sum(), kThreads * expected_per_thread, 1e-6);
}

}  // namespace
}  // namespace biorank::obs
