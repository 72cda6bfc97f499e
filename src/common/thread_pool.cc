#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/probe.h"
#include "common/thread_introspect.h"

namespace dj {

/// One ParallelFor call, published on the caller's stack while it runs.
struct ThreadPool::Job {
  const std::function<void(size_t, size_t)>& fn;
  size_t n;
  size_t chunk_size;
  size_t chunks;
  std::atomic<size_t> next{0};  ///< next unclaimed chunk
};

ThreadPool::ThreadPool(size_t num_threads)
    : width_(std::max<size_t>(num_threads, 1)) {
  if (width_ == 1) return;  // every call runs inline
  workers_.reserve(width_);
  for (size_t i = 0; i < width_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  job_posted_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  // Over-decompose modestly for load balance on skewed samples.
  size_t chunks = std::min(n, width_ * 4);
  size_t chunk_size = (n + chunks - 1) / chunks;
  Job job{fn, n, chunk_size, (n + chunk_size - 1) / chunk_size};
  bool published = false;
  if (width_ > 1 && n >= 2) {
    MutexLock lock(&mutex_);
    if (job_ == nullptr) {
      job_ = &job;
      published = true;
    }
  }
  if (!published) {
    fn(0, n);
    return;
  }
  job_posted_.NotifyAll();
  DJ_SCHED_POINT("threadpool.gather");
  {
    MutexLock lock(&mutex_);
    job_released_.Wait(&mutex_, [this, &job]() DJ_REQUIRES(mutex_) {
      return holders_ == 0 && job.next >= job.chunks;
    });
    job_ = nullptr;
  }
  introspect::Heartbeat();
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else if (n > 0) {
    fn(0, n);
  }
}

void ThreadPool::WorkerLoop() {
  if (introspect::Enabled()) {
    introspect::CurrentThreadState()->SetRole("threadpool.worker");
  }
  while (true) {
    Job* job = nullptr;
    {
      MutexLock lock(&mutex_);
      // A job whose chunks are all claimed is not taken again, so a worker
      // that let go of it sleeps until the next one.
      job_posted_.Wait(&mutex_, [this]() DJ_REQUIRES(mutex_) {
        return shutdown_ || (job_ != nullptr && job_->next < job_->chunks);
      });
      if (shutdown_) return;
      job = job_;
      ++holders_;
    }
    for (size_t k = job->next++; k < job->chunks; k = job->next++) {
      DJ_SCHED_POINT("threadpool.dispatch");
      // Introspection: the worker beats at every chunk, runs it busy (so
      // only mid-chunk silence counts as a stall) and roots it in the
      // profiler's tag stack.
      introspect::BusyScope busy;
      introspect::SpanTag tag("threadpool.task");
      size_t begin = k * job->chunk_size;
      job->fn(begin, std::min(job->n, begin + job->chunk_size));
    }
    // Every chunk is claimed; once the last holder lets go the caller may
    // unpublish the job and its stack frame.
    MutexLock lock(&mutex_);
    if (--holders_ == 0) job_released_.NotifyOne();
  }
}

}  // namespace dj
