#ifndef DJ_COMMON_THREAD_INTROSPECT_H_
#define DJ_COMMON_THREAD_INTROSPECT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

// srclint-allow-file(raw-mutex): the concurrency toolkit runs underneath
// dj::Mutex (which instruments through it); wrapping would recurse.

namespace dj::introspect {

/// Cross-thread introspection substrate for the sampling profiler and the
/// stall watchdog (src/obs/profiler.h, src/obs/watchdog.h). Every
/// participating thread owns one ThreadState slot, registered on first use
/// and kept alive for the whole process (a dead thread's slot is only
/// marked dead, never freed, so samplers can hold bare pointers). The
/// state a thread publishes:
///
///   * a span-path *tag stack* — pushed by obs::Span guards and ThreadPool
///     chunk dispatch, read by the profiler's ticker thread to attribute
///     CPU samples to span paths without libunwind;
///   * a *held-lock mirror* — the names of dj::Mutex instances the thread
///     currently holds, pushed by the mutex acquisition hooks, read by the
///     watchdog's stall dump;
///   * a *heartbeat* + busy flag — beaten at executor unit boundaries,
///     ThreadPool dispatch, and data-plane gather joins; a busy thread
///     whose beat goes stale is what the watchdog calls a stall.
///
/// Concurrency model: all mutable fields are relaxed atomics (including
/// the tag-name bytes, stored as std::atomic<char> so cross-thread reads
/// are TSan-clean), and each multi-word structure is guarded by a seqlock
/// version counter — the owner thread bumps it to odd before mutating and
/// to even after, readers retry until they see a stable even version. The
/// owner never blocks; a reader never blocks the owner.
///
/// Cost model: with no profiler or watchdog running (`Enabled()` false)
/// every probe is one relaxed atomic load, matching the DJ_FAULT /
/// DJ_SCHED_POINT idiom. Enabled, a tag push is a TLS lookup plus a
/// bounded byte copy — still cheap enough to leave on for whole production
/// runs, which is the point: profiling is always-on, not a special mode.
class ThreadState {
 public:
  static constexpr size_t kMaxFrames = 16;
  static constexpr size_t kFrameChars = 64;  ///< including NUL
  static constexpr size_t kMaxHeldLocks = 16;

  ThreadState();

  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;

  // -- owner-thread mutators ------------------------------------------------

  /// Pushes `name` (truncated to kFrameChars-1) onto the tag stack. Frames
  /// beyond kMaxFrames are counted but not stored, so deep recursion
  /// degrades to a truncated path instead of corruption.
  void PushTag(std::string_view name);
  void PopTag();

  void PushHeldLock(const char* name);  ///< `name` must have static storage
  void PopHeldLock(const char* name);   ///< pops the topmost match; no-op if absent

  /// Stamps the heartbeat with NowMicros() and bumps the beat counter.
  void Beat();
  /// Marks the thread busy/idle; both transitions also Beat() so a thread
  /// that just went busy is never instantly "stale".
  void SetBusy(bool busy);
  void SetRole(const char* role);  ///< `role` must have static storage
  void MarkDead();

  // -- cross-thread readers -------------------------------------------------

  /// Copies the tag stack, outermost first. Retries the seqlock a few
  /// times; returns false (and clears `out`) if the stack would not hold
  /// still — the caller just skips this sample.
  bool ReadStack(std::vector<std::string>* out) const;

  /// Copies the held-lock names, oldest first (same retry contract).
  bool ReadHeldLocks(std::vector<const char*>* out) const;

  bool alive() const { return alive_.load(std::memory_order_relaxed); }
  bool busy() const { return busy_.load(std::memory_order_relaxed); }
  uint64_t heartbeat_micros() const {
    return heartbeat_micros_.load(std::memory_order_relaxed);
  }
  uint64_t beats() const { return beats_.load(std::memory_order_relaxed); }
  const char* role() const { return role_.load(std::memory_order_relaxed); }
  uint64_t thread_index() const { return thread_index_; }
  uint32_t tag_depth() const {
    return tag_depth_.load(std::memory_order_relaxed);
  }

 private:
  friend class ThreadRegistry;

  std::atomic<uint32_t> tag_seq_{0};
  std::atomic<uint32_t> tag_depth_{0};  ///< logical depth, may exceed kMaxFrames
  std::atomic<char> frames_[kMaxFrames][kFrameChars];

  std::atomic<uint32_t> lock_seq_{0};
  std::atomic<uint32_t> lock_depth_{0};
  std::atomic<const char*> held_locks_[kMaxHeldLocks];

  std::atomic<uint64_t> heartbeat_micros_{0};
  std::atomic<uint64_t> beats_{0};
  std::atomic<bool> busy_{false};
  std::atomic<const char*> role_;
  std::atomic<bool> alive_{true};
  uint64_t thread_index_ = 0;  ///< set once at registration
};

/// Global list of every ThreadState ever registered. Registration takes a
/// plain std::mutex once per thread (std::mutex on purpose: dj::Mutex
/// calls back into this layer from its acquisition hook); Snapshot()
/// copies the pointer list under the same mutex.
class ThreadRegistry {
 public:
  static ThreadRegistry& Global();

  ThreadRegistry() = default;
  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  /// All registered states, registration order, dead ones included (check
  /// alive()). Pointers stay valid for the process lifetime.
  std::vector<ThreadState*> Snapshot() const;

  size_t size() const;

 private:
  friend ThreadState* CurrentThreadState();
  ThreadState* Register();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadState>> states_;
};

/// The calling thread's state; registers it on first call. Never null.
ThreadState* CurrentThreadState();

/// Microseconds on a process-wide steady clock (first call fixes the
/// epoch). The common timebase for heartbeats and stall ages.
uint64_t NowMicros();

/// True while at least one profiler/watchdog user is attached — the fast
/// path every probe checks first.
bool Enabled();
/// Refcounted enablement, called by Profiler/Watchdog Start/Stop (and by
/// ScopedIntrospection in tests).
void AddUser();
void RemoveUser();

/// RAII enablement for tests.
class ScopedIntrospection {
 public:
  ScopedIntrospection() { AddUser(); }
  ~ScopedIntrospection() { RemoveUser(); }
  ScopedIntrospection(const ScopedIntrospection&) = delete;
  ScopedIntrospection& operator=(const ScopedIntrospection&) = delete;
};

/// Heartbeat probe for gather joins and executor unit boundaries.
inline void Heartbeat() {
  if (!Enabled()) return;
  CurrentThreadState()->Beat();
}

/// RAII tag-stack frame. Pushes only while introspection is enabled and
/// remembers whether it pushed, so an enable/disable flip mid-scope can
/// never unbalance the stack.
class SpanTag {
 public:
  explicit SpanTag(std::string_view name) : pushed_(Enabled()) {
    if (pushed_) CurrentThreadState()->PushTag(name);
  }
  ~SpanTag() {
    if (pushed_) CurrentThreadState()->PopTag();
  }
  SpanTag(const SpanTag&) = delete;
  SpanTag& operator=(const SpanTag&) = delete;

 private:
  bool pushed_;
};

/// RAII busy marker: busy + beat on entry, beat + idle on exit. Used
/// around ThreadPool chunk dispatch and Executor::Run.
class BusyScope {
 public:
  BusyScope() : active_(Enabled()) {
    if (active_) CurrentThreadState()->SetBusy(true);
  }
  ~BusyScope() {
    if (active_) CurrentThreadState()->SetBusy(false);
  }
  BusyScope(const BusyScope&) = delete;
  BusyScope& operator=(const BusyScope&) = delete;

 private:
  bool active_;
};

// Hooks called by dj::Mutex (common/mutex.h). Enabled-gated inside.
inline void OnLockAcquired(const char* name) {
  if (!Enabled()) return;
  CurrentThreadState()->PushHeldLock(name);
}
inline void OnLockReleased(const char* name) {
  if (!Enabled()) return;
  CurrentThreadState()->PopHeldLock(name);
}

}  // namespace dj::introspect

#endif  // DJ_COMMON_THREAD_INTROSPECT_H_
