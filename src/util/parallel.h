// Fixed thread pool with deterministic ParallelFor / ParallelReduce
// sharding. The Monte Carlo engines (Algorithm 3.1, the serving layer's
// survivor shards) and the repeated-experiment harness fan their
// embarrassingly parallel trial batches out through this pool; results
// are bit-identical for a fixed seed regardless of thread count because
// work is split into fixed shards whose RNG streams depend only on
// (seed, shard index).

#ifndef BIORANK_UTIL_PARALLEL_H_
#define BIORANK_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace biorank {

/// A fixed pool of worker threads executing sharded loops.
///
/// Design notes:
///  - The calling thread always participates in shard execution, so a pool
///    constructed with `worker_count` workers provides `worker_count + 1`
///    way parallelism. `ThreadPool(0)` is a valid, fully inline pool.
///  - Shards are claimed dynamically (atomic counter), so imbalanced
///    shards still load-balance; determinism must come from the shards
///    themselves, not from which thread runs them.
///  - Nested calls are safe: a `ParallelFor` issued from inside a shard of
///    the same pool runs inline on the current thread instead of
///    deadlocking on the pool's own workers.
///  - The first exception thrown by any shard is captured, remaining
///    unclaimed shards are abandoned, and the exception is rethrown on the
///    calling thread once in-flight shards drain.
class ThreadPool {
 public:
  /// `fn(slot, shard)`: `slot` identifies the executing thread within this
  /// call, in `[0, slot_count())`, for indexing per-thread scratch;
  /// `shard` is the loop index in `[0, shard_count)`.
  using ShardFn = std::function<void(int slot, int64_t shard)>;

  static constexpr int kUnlimitedParallelism =
      std::numeric_limits<int>::max();

  /// Spawns `worker_count` workers (>= 0). The caller participates in
  /// every loop, so total parallelism is `worker_count + 1`.
  explicit ThreadPool(int worker_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Distinct `slot` values `fn` may observe: one per worker + the caller.
  int slot_count() const { return worker_count() + 1; }

  /// Runs `fn(slot, shard)` for every shard in `[0, shard_count)` and
  /// blocks until all complete. `max_parallelism` caps the number of
  /// threads (caller included) executing shards, so one pool can emulate
  /// any smaller thread count. Zero and negative shard counts return
  /// immediately. Rethrows the first shard exception.
  void ParallelFor(int64_t shard_count, const ShardFn& fn,
                   int max_parallelism = kUnlimitedParallelism);

  /// Maps every shard to a `T` and combines the results **in shard order**
  /// (`acc = combine(acc, map(shard))` for shard = 0, 1, ...), so the
  /// reduction is deterministic even for non-commutative combines.
  /// `map(slot, shard)` runs in parallel; `combine` runs on the caller.
  template <typename T, typename MapFn, typename CombineFn>
  T ParallelReduce(int64_t shard_count, T init, MapFn map, CombineFn combine,
                   int max_parallelism = kUnlimitedParallelism) {
    if (shard_count <= 0) return init;
    std::vector<T> partials(static_cast<size_t>(shard_count));
    ParallelFor(
        shard_count,
        [&](int slot, int64_t shard) {
          partials[static_cast<size_t>(shard)] = map(slot, shard);
        },
        max_parallelism);
    T acc = std::move(init);
    for (T& partial : partials) acc = combine(std::move(acc), std::move(partial));
    return acc;
  }

  /// True when the current thread is executing a shard of this pool
  /// (worker or participating caller); such threads run nested loops
  /// inline.
  bool InShard() const;

  /// Parallelism used when callers do not specify one: the
  /// `BIORANK_THREADS` environment variable if set to a positive integer,
  /// otherwise `std::thread::hardware_concurrency()` (at least 1).
  static int DefaultThreadCount();

  /// Process-wide shared pool with `DefaultThreadCount() - 1` workers.
  static ThreadPool& Global();

 private:
  void WorkerLoop(int slot);
  /// Claims and runs shards of job `generation` until none remain (or a
  /// newer job replaced it — a late-waking worker must not execute a job
  /// it was never admitted to).
  void RunShards(int slot, uint64_t generation);
  void RecordError(std::exception_ptr error);

  std::vector<std::thread> workers_;

  /// Serializes external ParallelFor calls so at most one job is live.
  std::mutex call_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  uint64_t generation_ = 0;   ///< Bumped per job; workers track it.
  const ShardFn* job_ = nullptr;
  int64_t shard_count_ = 0;
  int64_t next_shard_ = 0;    ///< Next unclaimed shard (guarded by mu_).
  int worker_limit_ = 0;      ///< Workers allowed to join the current job.
  int joined_workers_ = 0;    ///< Workers that joined the current job.
  int active_ = 0;            ///< Threads currently inside RunShards.
  std::exception_ptr first_error_;
};

}  // namespace biorank

#endif  // BIORANK_UTIL_PARALLEL_H_
