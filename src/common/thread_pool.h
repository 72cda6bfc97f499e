#ifndef DJ_COMMON_THREAD_POOL_H_
#define DJ_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dj {

/// Largest pool width a recipe's `np` or a tool's `--np` may ask for. It is
/// fixed, not derived from the host, so a recipe is valid or invalid on
/// every host; a width in range starts exactly that many threads.
constexpr int64_t kMaxPoolThreads = 256;

/// Fixed-size worker pool used by Dataset::Map / Filter. The paper's
/// `num_proc` knob maps to the pool width here.
///
/// Fan-out rule: every data-plane site splits its work the same way at any
/// width and calls the free ParallelFor below, which alone decides whether
/// the chunks run inline or on workers. Only chunk counts may depend on the
/// width, so a pool changes speed, never bytes.
///
/// Shutdown contract: the destructor stops the workers only after the task
/// queue is fully drained, and tasks submitted *during* that drain (e.g. a
/// task resubmitting a continuation) still run — on a worker when one is
/// still around to see the queue, on the destructing thread otherwise (a
/// task can slip into the queue after every worker has already checked it
/// one last time and exited; pre-toolkit code silently dropped it).
/// Submitting from another thread after the destructor has returned is a
/// lifetime bug no pool can repair.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Safe from any thread, including workers.
  void Submit(std::function<void()> task) DJ_EXCLUDES(mutex_);

  /// Blocks until all submitted tasks (including ones submitted while
  /// waiting) have completed. Calling from one of this pool's own workers
  /// would self-deadlock (the caller is itself an unfinished task), so that
  /// case logs an error and returns immediately.
  void Wait() DJ_EXCLUDES(mutex_);

  /// Splits [0, n) into contiguous chunks and runs `fn(begin, end)` on the
  /// pool, blocking until done; the join beats the calling thread's
  /// watchdog heartbeat. When it runs inline instead: see the free
  /// ParallelFor below.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn)
      DJ_EXCLUDES(mutex_);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mutex_{"ThreadPool.mutex"};
  CondVar task_available_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ DJ_GUARDED_BY(mutex_);
  size_t in_flight_ DJ_GUARDED_BY(mutex_) = 0;
  bool shutdown_ DJ_GUARDED_BY(mutex_) = false;
};

/// The one serial-or-parallel decision. Runs `fn(0, n)` inline on the
/// calling thread when there is no pool, the pool has one thread, n < 2, or
/// the caller is one of the pool's own workers (a nested ParallelFor
/// waiting on the pool it runs on would deadlock); does nothing when n is
/// 0. Otherwise it is `pool->ParallelFor(n, fn)`.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& fn);

/// Width of `pool`, 1 without one: what chunk counts are sized from.
inline size_t PoolWidth(const ThreadPool* pool) {
  return pool == nullptr ? 1 : pool->num_threads();
}

}  // namespace dj

#endif  // DJ_COMMON_THREAD_POOL_H_
