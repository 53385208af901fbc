// End-to-end request tracing: a Trace records a tree of named spans
// (admit, canonicalize, cache, bounds, prune, factoring, MC shards,
// refinement increments) with monotonic-clock durations and per-span
// counters (trials run, candidates pruned, cache hits). A Trace pointer
// rides inside api::QueryOptions into every serving layer.
//
// Zero-perturbation contract (asserted by obs_trace_test and the bench
// bit-identity gates): tracing only *observes*. Spans record steady-
// clock timings and counters after every ranking decision is made; no
// code path consults a trace, a clock, or an RNG to decide anything
// about the ranking. Tracing on vs. off is bit-identical for all
// rankings.
//
// Threading: a Trace is mutex-guarded — MC fan-out and batch fan-out
// append spans from pool threads concurrently. Span nesting within one
// thread is tracked by a thread-local (trace, span) binding that
// SpanScope pushes/pops RAII-style; cross-thread attachment (a pool
// worker's serve.mc_shards span) passes the parent span index
// explicitly. A SpanScope on a null trace is a no-op costing one
// branch — the always-on hot path pays only metric handles, never
// trace locks.
//
// SlowQueryLog is the threshold-triggered capture: the server offers
// each finished trace with its total latency, and traces at or over
// the configured threshold keep their full span tree in a bounded ring
// buffer (oldest evicted first).

#ifndef BIORANK_OBS_TRACE_H_
#define BIORANK_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace biorank::obs {

/// One node of the span tree. Indices are positions in Trace::Spans();
/// parent == -1 marks a root.
struct Span {
  std::string name;
  int parent = -1;
  uint64_t start_ns = 0;     ///< steady-clock offset from the trace epoch
  uint64_t duration_ns = 0;  ///< 0 while the span is open
  std::vector<std::pair<std::string, int64_t>> counters;
};

/// A single request's span tree. Create one per traced request; append
/// spans via SpanScope (or Begin/End for non-scoped lifetimes).
class Trace {
 public:
  explicit Trace(uint64_t id = 0);

  uint64_t id() const { return id_; }

  /// Opens a span; thread-safe; returns its index. parent == -1 roots.
  int BeginSpan(const std::string& name, int parent);
  /// Closes the span, stamping its steady-clock duration.
  void EndSpan(int index);
  /// Attaches a named counter to an open or closed span.
  void AddCounter(int index, const std::string& key, int64_t value);

  /// Copy of the span tree (safe while writers are active).
  std::vector<Span> Spans() const;
  size_t SpanCount() const;

 private:
  const uint64_t id_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The thread's current (trace, span) binding — what SpanScope nests
/// under by default. Null when the thread is not inside a traced
/// request.
Trace* CurrentTrace();
int CurrentSpanIndex();

/// RAII span. The default constructor form nests under the thread's
/// current binding when `trace` matches it (or roots otherwise); the
/// explicit-parent form is the cross-thread attach a pool worker uses
/// (serve.mc_shards under the request's resolve span). While alive,
/// the scope IS the thread's current binding.
class SpanScope {
 public:
  SpanScope(Trace* trace, const std::string& name);
  SpanScope(Trace* trace, const std::string& name, int parent);
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope();

  /// Attaches a counter to this span; no-op on a null trace.
  void Counter(const std::string& key, int64_t value);

  /// Closes the span early (idempotent; the destructor calls it). Must
  /// be called in LIFO order with any nested scopes on this thread.
  void End();

  bool active() const { return trace_ != nullptr; }
  int index() const { return index_; }

 private:
  void Bind();

  Trace* trace_ = nullptr;
  int index_ = -1;
  Trace* prev_trace_ = nullptr;
  int prev_index_ = -1;
};

/// A captured slow query: the finished span tree plus identification.
struct CapturedTrace {
  uint64_t id = 0;
  std::string entry_point;  ///< which server entry produced it
  double total_s = 0.0;
  std::vector<Span> spans;
};

/// Bounded ring buffer of slow-query captures; Offer() keeps the trace
/// only when total_s >= threshold_s, evicting the oldest at capacity.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity = 32, double threshold_s = 0.0);

  /// Threshold <= 0 disables capture entirely.
  double threshold_s() const { return threshold_s_; }
  size_t capacity() const { return capacity_; }

  /// Captures the trace if it crossed the threshold. Returns true when
  /// captured.
  bool Offer(const std::string& entry_point, const Trace& trace,
             double total_s);

  std::vector<CapturedTrace> Snapshot() const;
  size_t size() const;
  uint64_t offered() const;
  uint64_t captured() const;

 private:
  const size_t capacity_;
  const double threshold_s_;
  mutable std::mutex mu_;
  std::deque<CapturedTrace> ring_;
  uint64_t offered_ = 0;
  uint64_t captured_ = 0;
};

}  // namespace biorank::obs

#endif  // BIORANK_OBS_TRACE_H_
