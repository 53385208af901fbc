#ifndef BIORANK_TESTS_TESTING_METRICS_H_
#define BIORANK_TESTS_TESTING_METRICS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace biorank::testing {

/// The value of the counter named `name` in `snapshot`. A name no
/// counter carries fails the calling test instead of reading 0, so a
/// misspelt family cannot satisfy an expectation of zero.
inline uint64_t CounterValue(const obs::Snapshot& snapshot,
                             std::string_view name) {
  const obs::CounterSnapshot* counter = snapshot.FindCounter(name);
  if (counter == nullptr) {
    ADD_FAILURE() << "no counter named " << name;
    return 0;
  }
  return counter->value;
}

/// The same for a gauge.
inline double GaugeValue(const obs::Snapshot& snapshot,
                         std::string_view name) {
  const obs::GaugeSnapshot* gauge = snapshot.FindGauge(name);
  if (gauge == nullptr) {
    ADD_FAILURE() << "no gauge named " << name;
    return 0.0;
  }
  return gauge->value;
}

}  // namespace biorank::testing

#endif  // BIORANK_TESTS_TESTING_METRICS_H_
