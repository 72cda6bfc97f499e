#ifndef DJ_OBS_PROFILER_H_
#define DJ_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "json/value.h"

namespace dj::obs {

/// Always-on sampling profiler. A ticker thread wakes every
/// `interval_seconds` and samples the *span-path tag stack* of every
/// registered thread (see common/thread_introspect.h): busy threads
/// contribute one sample at their current path ("executor.run;unit:x;..."),
/// aggregated into a collapsed-stack table. Because the stacks are the
/// span names the code already declares (DJ_OBS_SPAN guards, executor
/// units, ThreadPool task roots), the profile needs no libunwind, no
/// frame pointers, and no platform-specific signal handling — it is a
/// statistical "where is the CPU going" answer in the program's own
/// vocabulary, cheap enough to leave running for whole production runs.
///
/// Outputs:
///   * CollapsedText() — flamegraph-compatible collapsed stacks
///     ("frame;frame;frame count" lines, feed to flamegraph.pl or
///     speedscope);
///   * OpCpuShares() — fraction of busy samples attributed to each
///     executor unit (the innermost "unit:<op>" frame), with samples
///     outside any unit pooled under "(other)"; shares sum to 1;
///   * per-tick "profile:tick" trace instants and a "profiler.samples"
///     counter on the globally installed recorder/registry, so traces are
///     self-describing about the sampling that ran alongside them.
class Profiler {
 public:
  struct Options {
    double interval_seconds = 0.002;  ///< 500 Hz; ~0 cost for idle threads
  };

  /// Aggregated profile. `collapsed` maps a span path (frames joined with
  /// ';', outermost first) to the number of samples observed there.
  struct Report {
    uint64_t ticks = 0;
    uint64_t samples = 0;  ///< busy-thread samples (sum of collapsed counts)
    double interval_seconds = 0;

    std::map<std::string, uint64_t> collapsed;

    /// Flamegraph collapsed-stack text, deterministic order.
    std::string CollapsedText() const;

    /// Per-OP CPU attribution: "unit:<op>" frame -> share of busy samples;
    /// busy samples outside any unit land in "(other)". Empty when no
    /// samples were taken. Values sum to ~1.
    std::map<std::string, double> OpCpuShares() const;

    /// {"interval_seconds", "ticks", "samples", "op_cpu": {...}} — the
    /// "profile" section of metrics.json.
    json::Value ToJson() const;
  };

  Profiler();
  explicit Profiler(Options options);
  ~Profiler();  ///< stops the ticker if still running

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void Start();
  void Stop();

  /// Snapshot of the aggregation so far (callable while running).
  Report Snapshot() const;

  /// Writes CollapsedText() to `path` (parent dirs created).
  Status WriteCollapsed(const std::string& path) const;

 private:
  void TickerLoop();

  Options options_;
  std::atomic<bool> running_{false};
  std::thread ticker_;
  mutable Mutex mutex_{"Profiler.mutex"};
  std::map<std::string, uint64_t> collapsed_ DJ_GUARDED_BY(mutex_);
  uint64_t ticks_ DJ_GUARDED_BY(mutex_) = 0;
  uint64_t samples_ DJ_GUARDED_BY(mutex_) = 0;
};

}  // namespace dj::obs

#endif  // DJ_OBS_PROFILER_H_
