#ifndef DJ_COMMON_THREAD_POOL_H_
#define DJ_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dj {

/// Largest pool width a recipe's `np` or a tool's `--np` may ask for. It is
/// fixed, not derived from the host, so a recipe is valid or invalid on
/// every host. A width-1 pool starts no thread; a wider one starts exactly
/// that many.
constexpr int64_t kMaxPoolThreads = 256;

/// Fixed-width fork-join pool behind every data-plane fan-out. The paper's
/// `num_proc` knob maps to the pool width here.
///
/// Fan-out rule: every data-plane site splits its work the same way at any
/// width and calls the free ParallelFor below, which alone decides whether
/// the chunks run inline or on workers. Only chunk counts may depend on the
/// width, so a pool changes speed, never bytes.
///
/// Fork-join contract: the pool runs one job at a time. A ParallelFor call
/// publishes its job on the caller's stack, the workers claim its chunks,
/// and the call returns only after every worker that took the job has let
/// go of it, so no job outlives its call. A call that finds a job already
/// published (a nested call from one of the chunks, or a second thread)
/// runs its whole range inline instead of waiting.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return width_; }

  /// Splits [0, n) into min(n, 4 * width) contiguous chunks, runs
  /// `fn(begin, end)` for each on the workers and blocks until all are
  /// done; the join beats the calling thread's watchdog heartbeat. When it
  /// runs inline instead: see the free ParallelFor below.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn)
      DJ_EXCLUDES(mutex_);

 private:
  struct Job;

  void WorkerLoop() DJ_EXCLUDES(mutex_);

  size_t width_;
  std::vector<std::thread> workers_;
  Mutex mutex_{"ThreadPool.mutex"};
  CondVar job_posted_;
  CondVar job_released_;
  Job* job_ DJ_GUARDED_BY(mutex_) = nullptr;
  size_t holders_ DJ_GUARDED_BY(mutex_) = 0;  ///< workers holding job_
  bool shutdown_ DJ_GUARDED_BY(mutex_) = false;
};

/// The one serial-or-parallel decision. Runs `fn(0, n)` inline on the
/// calling thread when there is no pool, the pool has one thread, n < 2, or
/// the pool already runs a job; does nothing when n is 0. Otherwise it is
/// `pool->ParallelFor(n, fn)`.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& fn);

/// The one fallible fan-out: runs `fn(i)` for every i in [0, n) over the
/// chunks of ParallelFor(pool, n, ...), and each chunk stops at its first
/// error. Returns the error with the lowest index, which is what a serial
/// loop returns, else Ok. One Status per chunk, no lock.
Status ForEachIndex(ThreadPool* pool, size_t n,
                    const std::function<Status(size_t)>& fn);

/// Width of `pool`, 1 without one: what chunk counts are sized from.
inline size_t PoolWidth(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->num_threads();
}

}  // namespace dj

#endif  // DJ_COMMON_THREAD_POOL_H_
