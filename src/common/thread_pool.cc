#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"
#include "common/probe.h"
#include "common/thread_introspect.h"

namespace dj {
namespace {

/// The pool whose WorkerLoop the calling thread is inside, if any. Lets
/// Wait()/ParallelFor() detect the self-deadlocking "wait on the pool I run
/// on" pattern and degrade gracefully instead of hanging.
thread_local const ThreadPool* t_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  task_available_.NotifyAll();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Workers exit once they see an empty queue, but a task they were still
  // running may have submitted a successor after that last check — drain
  // such stragglers here so no submitted task is ever silently dropped.
  // Loop because a drained task may itself submit again.
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      if (tasks_.empty()) break;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    DJ_SCHED_POINT("threadpool.drain");
    {
      introspect::BusyScope busy;
      introspect::SpanTag tag("threadpool.task");
      task();
    }
    MutexLock lock(&mutex_);
    --in_flight_;
    if (in_flight_ == 0) all_done_.NotifyAll();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  DJ_SCHED_POINT("threadpool.submit");
  {
    MutexLock lock(&mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  if (t_current_pool == this) {
    // The caller is one of our own tasks: in_flight_ can never reach zero
    // while it blocks, so waiting would deadlock the worker forever.
    DJ_LOG(Error) << "ThreadPool::Wait() called from one of the pool's own "
                     "worker threads; returning without waiting";
    return;
  }
  DJ_SCHED_POINT("threadpool.wait");
  MutexLock lock(&mutex_);
  all_done_.Wait(&mutex_, [this]() DJ_REQUIRES(mutex_) {
    return in_flight_ == 0;
  });
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t threads = workers_.size();
  // Inline when scheduling can't help — or would deadlock: a nested
  // ParallelFor from a worker would Wait() on the pool it occupies.
  if (threads <= 1 || n < 2 || t_current_pool == this) {
    fn(0, n);
    return;
  }
  // Over-decompose modestly for load balance on skewed samples.
  size_t chunks = std::min(n, threads * 4);
  size_t chunk_size = (n + chunks - 1) / chunks;
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    size_t end = std::min(n, begin + chunk_size);
    Submit([&fn, begin, end] { fn(begin, end); });
  }
  DJ_SCHED_POINT("threadpool.gather");
  Wait();
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
  t_current_pool = this;
  if (introspect::Enabled()) {
    introspect::CurrentThreadState()->SetRole("threadpool.worker");
  }
  while (true) {
    std::function<void()> task;
    size_t backlog = 0;
    {
      MutexLock lock(&mutex_);
      task_available_.Wait(&mutex_, [this]() DJ_REQUIRES(mutex_) {
        return shutdown_ || !tasks_.empty();
      });
      if (tasks_.empty()) break;  // shutdown_ with nothing left to do
      task = std::move(tasks_.front());
      tasks_.pop();
      backlog = tasks_.size();
    }
    DJ_SCHED_POINT("threadpool.dispatch");
    {
      // Introspection: the worker beats at every dispatch, runs the task
      // busy (so only mid-task silence counts as a stall), roots the task
      // in the profiler's tag stack, and publishes the queue backlog it
      // observed for the watchdog's live-state dump.
      introspect::BusyScope busy;
      introspect::SpanTag tag("threadpool.task");
      if (introspect::Enabled()) {
        introspect::CurrentThreadState()->SetQueueDepth(backlog);
      }
      task();
    }
    {
      MutexLock lock(&mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
  t_current_pool = nullptr;
}

}  // namespace dj
