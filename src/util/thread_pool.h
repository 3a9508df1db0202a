#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

/// \file
/// Fixed-size worker pool for the library's parallel paths (multi-chain
/// runs, source-parallel Brandes, engine query sharding).
///
/// Determinism is the design constraint: every parallel algorithm in this
/// library must reproduce its single-threaded result bit-for-bit at any
/// thread count. The pool supports that discipline rather than enforcing
/// it — work items are claimed dynamically (scheduling is *not*
/// deterministic), so callers must (a) make each item a pure function of
/// its index, (b) write results into index-addressed slots (ParallelMap),
/// and (c) reduce the slots in index order on the calling thread
/// (ParallelOrderedReduce). Floating-point reductions additionally need a
/// grouping that is fixed independently of the thread count (see
/// BrandesBetweenness for the fixed-shard pattern).

namespace mhbc {

/// Maps a user-facing thread-count knob to a concrete worker count:
/// 0 means one thread per hardware thread (at least 1), anything else is
/// taken literally.
unsigned ResolveThreadCount(unsigned requested);

/// Fixed pool of `num_threads - 1` worker threads; the calling thread
/// participates in every ParallelFor as worker 0, so `num_threads == 1`
/// spawns no threads at all and runs everything inline (exactly the
/// sequential behavior, with zero synchronization cost).
///
/// ParallelFor calls must not be nested (a work item must not call back
/// into the same pool), and work items must not throw — the library
/// reports errors through Status, never exceptions.
class ThreadPool {
 public:
  /// `num_threads` is resolved via ResolveThreadCount (0 = hardware
  /// concurrency).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total computing threads (workers + the participating caller).
  unsigned num_threads() const { return num_threads_; }

  /// Runs fn(worker, index) once for every index in [0, count) and blocks
  /// until all items completed. `worker` is in [0, num_threads()) and is
  /// stable for the duration of one item — use it to index per-worker
  /// scratch state. Indices are claimed dynamically for load balance.
  void ParallelFor(std::size_t count,
                   const std::function<void(unsigned, std::size_t)>& fn);

 private:
  void WorkerLoop(unsigned worker);

  const unsigned num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Current job; all guarded by mu_ except next_index_ (claimed lock-free).
  const std::function<void(unsigned, std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::uint64_t job_generation_ = 0;
  unsigned job_pending_workers_ = 0;
  bool shutdown_ = false;
  std::atomic<std::size_t> next_index_{0};
};

/// Runs produce(worker, index) for every index and returns the results in
/// index order — the deterministic fan-out shape: any thread count yields
/// the same vector. T must be default-constructible and move-assignable.
template <typename T, typename Produce>
std::vector<T> ParallelMap(ThreadPool* pool, std::size_t count,
                           Produce produce) {
  std::vector<T> results(count);
  pool->ParallelFor(count, [&results, &produce](unsigned worker,
                                                std::size_t index) {
    results[index] = produce(worker, index);
  });
  return results;
}

/// Deterministic ordered reduce: computes produce(worker, index) for every
/// index in parallel, then folds the results into `accum` in index order
/// on the calling thread via fold(accum, result, index). Because the fold
/// order is fixed, the reduction is bit-identical at any thread count.
template <typename T, typename Accum, typename Produce, typename Fold>
void ParallelOrderedReduce(ThreadPool* pool, std::size_t count,
                           Produce produce, Accum* accum, Fold fold) {
  std::vector<T> results = ParallelMap<T>(pool, count, std::move(produce));
  for (std::size_t index = 0; index < count; ++index) {
    fold(accum, std::move(results[index]), index);
  }
}

/// Contiguous half-open range [first, second) that shard `shard` of
/// `num_shards` covers when [0, count) is split into fixed shards — the
/// same arithmetic BrandesBetweenness uses for its source shards. The
/// boundaries are a function of (count, num_shards) only, never of the
/// thread count, which is what makes shard-structured reductions
/// bit-identical at any parallelism level. Shards are balanced to within
/// one element; trailing shards may be empty when num_shards > count.
std::pair<std::size_t, std::size_t> ShardBounds(std::size_t count,
                                                std::size_t shard,
                                                std::size_t num_shards);

/// One deterministic level-synchronous step — the building block of the
/// frontier-parallel SPD kernels (sp/bfs_spd.cc) and the parallel backward
/// dependency sweep (sp/dependency.cc):
///
///   1. expand(worker, shard) runs for every shard in [0, num_shards) in
///      parallel (dynamically claimed, like ParallelFor). Each shard must
///      write only shard-private state (per-shard buffers, or slots no
///      other shard touches) that is a pure function of its shard index.
///   2. merge(shard) then runs for every shard in ascending shard order on
///      the calling thread.
///
/// Returning from this function is the level barrier: every expansion and
/// every merge has completed. Because the shard structure is fixed (pass a
/// num_shards that does not depend on the thread count) and the merge
/// order is fixed, the step's result — including any floating-point
/// regrouping in the merges — is bit-identical at any thread count.
template <typename Expand, typename Merge>
void ParallelShardedLevel(ThreadPool* pool, std::size_t num_shards,
                          Expand&& expand, Merge&& merge) {
  pool->ParallelFor(num_shards,
                    [&expand](unsigned worker, std::size_t shard) {
                      expand(worker, shard);
                    });
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    merge(shard);
  }
}

}  // namespace mhbc
