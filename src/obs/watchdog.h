#ifndef DJ_OBS_WATCHDOG_H_
#define DJ_OBS_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dj::obs {

/// Heartbeat-based stall watchdog: answers "is this run stuck?" without a
/// human attaching a debugger. Worker threads beat a per-thread heartbeat
/// (common/thread_introspect.h) at natural progress points — executor unit
/// boundaries, ThreadPool chunk dispatch, io/compress gather joins — and a
/// watchdog thread polls those beats. A thread that is *busy* but has not
/// beaten for `stall_seconds` triggers a live-state dump to stderr:
///
///   * per-thread role, span path, seconds since last beat;
///   * the dj::Mutex set each thread holds (mirrored from the lock
///     acquisition hooks, i.e. the lock_order instrumentation);
///   * process RSS.
///
/// plus a "watchdog.stalls" counter bump and a "watchdog:stall" trace
/// instant. The run is NOT killed — the dump is diagnosis, not punishment;
/// a legitimately slow OP prints one dump per stall episode and continues.
/// Idle threads (e.g. pool workers waiting for a job) never count as
/// stalled.
///
/// Every poll also emits a "watchdog:beat" trace instant, so a trace file
/// proves the watchdog was alive even when nothing stalled (validated by
/// dj_trace_check --require-profile).
class Watchdog {
 public:
  /// The poller wakes every quarter of `stall_seconds`, clamped to
  /// [2 ms, 1 s], so detection latency stays within ~1.25x the threshold.
  struct Options {
    double stall_seconds = 30.0;
  };

  /// Parses a DJ_WATCHDOG / --watchdog spec:
  ///   "off"                      -> *enabled = false
  ///   "<seconds>"  (e.g. "30")   -> stall threshold
  ///   "stall=S"                  -> the same threshold as a key
  /// Returns InvalidArgument on junk or an unknown key; `out` keeps its
  /// defaults when the spec is "off".
  static Status ParseSpec(std::string_view spec, Options* out, bool* enabled);

  Watchdog();
  explicit Watchdog(Options options);
  ~Watchdog();  ///< stops the poller if still running

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Start();
  void Stop();

  double stall_seconds() const { return options_.stall_seconds; }

  /// Stall episodes reported so far (one per thread per episode).
  uint64_t stall_count() const {
    return stall_count_.load(std::memory_order_relaxed);
  }

  /// The most recent dump text (empty if nothing stalled) — test hook; the
  /// authoritative sink is stderr.
  std::string LastDump() const;

 private:
  void PollLoop();
  /// One poll pass split out for determinism in tests.
  void PollOnce(uint64_t now_micros);

  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> stall_count_{0};
  std::thread poller_;
  mutable Mutex mutex_{"Watchdog.mutex"};
  std::string last_dump_ DJ_GUARDED_BY(mutex_);
  /// thread-index -> beat count at last report, so one stall episode is
  /// reported once instead of on every poll.
  std::map<uint64_t, uint64_t> reported_ DJ_GUARDED_BY(mutex_);
};

}  // namespace dj::obs

#endif  // DJ_OBS_WATCHDOG_H_
