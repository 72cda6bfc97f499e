#ifndef DJ_COMMON_MUTEX_H_
#define DJ_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/lock_order.h"
#include "common/probe.h"
#include "common/thread_annotations.h"
#include "common/thread_introspect.h"

namespace dj {

class CondVar;

/// The project mutex: std::mutex plus the three layers of the concurrency
/// correctness toolkit.
///
///   1. Static:   carries the Clang `capability` attribute, so fields
///                annotated DJ_GUARDED_BY(mutex_) are proven at compile
///                time (-Wthread-safety under DJ_THREAD_SAFETY=ON).
///   2. Dynamic:  every acquisition reports to the LockOrderRegistry, which
///                flags lock-order inversions (potential deadlocks) even on
///                runs where the deadlock never fires.
///   3. Schedule: acquisition is a DJ_SCHED_POINT named after the mutex, so
///                seeded perturbation (DJ_SCHED) shakes lock handoff
///                interleavings under TSan.
///
/// When a profiler or watchdog is attached (introspect::Enabled()), each
/// acquisition additionally mirrors the lock name into the owning thread's
/// introspection slot, so the watchdog's stall dump can list the dj::Mutex
/// set a wedged thread holds. Unattached, the hook is one relaxed load.
///
/// The name identifies the *lock class*, not the instance: every
/// "ThreadPool.mutex" shares one node in the lock-order graph, which is
/// what lets an inversion observed between two different pool instances
/// still count. Use a stable "Class.member" literal (the registry keeps the
/// pointer, not a copy).
class DJ_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "dj.mutex") : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DJ_ACQUIRE() {
    // srclint-allow(dynamic-name): the sched point is named per lock class
    DJ_SCHED_POINT(name_);
    mu_.lock();
    LockOrderRegistry::Global().OnAcquire(this, name_);
    introspect::OnLockAcquired(name_);
  }

  void Unlock() DJ_RELEASE() {
    introspect::OnLockReleased(name_);
    LockOrderRegistry::Global().OnRelease(this, name_);
    mu_.unlock();
  }

  bool TryLock() DJ_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // A try-lock cannot deadlock by itself, but holding the lock it won
    // while acquiring others can; record it like any acquisition.
    LockOrderRegistry::Global().OnAcquire(this, name_);
    introspect::OnLockAcquired(name_);
    return true;
  }

  /// BasicLockable spelling for std interop (std::scoped_lock etc.).
  void lock() DJ_ACQUIRE() { Lock(); }
  void unlock() DJ_RELEASE() { Unlock(); }
  bool try_lock() DJ_TRY_ACQUIRE(true) { return TryLock(); }

  const char* name() const { return name_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const char* name_;
};

/// RAII guard, the project's std::lock_guard. Scoped-capability annotated,
/// so Clang tracks the critical section it opens.
class DJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DJ_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() DJ_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with dj::Mutex. Wait() keeps the lock-order
/// registry's held-set accurate across the internal release/re-acquire, so
/// a thread blocked in Wait() is correctly modeled as not holding the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu and blocks; re-acquires before returning.
  /// Subject to spurious wakeups — loop on the predicate, or use the
  /// predicate overload.
  void Wait(Mutex* mu) DJ_REQUIRES(mu) {
    introspect::OnLockReleased(mu->name_);
    LockOrderRegistry::Global().OnRelease(mu, mu->name_);
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership returns to the caller's guard
    LockOrderRegistry::Global().OnAcquire(mu, mu->name_);
    introspect::OnLockAcquired(mu->name_);
  }

  template <typename Predicate>
  void Wait(Mutex* mu, Predicate predicate) DJ_REQUIRES(mu) {
    while (!predicate()) Wait(mu);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace dj

#endif  // DJ_COMMON_MUTEX_H_
