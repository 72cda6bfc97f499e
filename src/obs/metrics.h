#ifndef DJ_OBS_METRICS_H_
#define DJ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "json/value.h"

namespace dj::obs {

/// Monotonically increasing event count. Lock-free; safe to bump from any
/// thread.
class Counter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (rows/sec, queue depth). Lock-free.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
/// order; one implicit overflow bucket catches everything above the last
/// bound. Observations are lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// One count per bound plus the trailing overflow bucket.
  std::vector<uint64_t> BucketCounts() const;

  /// Estimated value at quantile `q` in [0, 1], linearly interpolated
  /// within the containing bucket (the classic Prometheus estimate, so
  /// accuracy is bounded by bucket width). Observations in the overflow
  /// bucket report the last bound — the histogram cannot see past it.
  /// Returns -1 when empty or `q` is outside [0, 1].
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Thread-safe registry of named metrics. Get* registers on first use and
/// returns a stable pointer; concurrent callers for the same name get the
/// same instance. Snapshots serialize every registered metric to JSON.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `upper_bounds` is used only when the histogram does not exist yet;
  /// empty means DefaultSecondsBounds().
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> upper_bounds = {});

  /// Lookup without registration; nullptr when absent.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  /// Log-spaced bounds suitable for OP wall times (1ms .. ~100s).
  static std::vector<double> DefaultSecondsBounds();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  json::Value SnapshotJson() const;

  /// Pretty-printed SnapshotJson() to `path` (parent dirs created).
  Status WriteTo(const std::string& path) const;

 private:
  mutable Mutex mutex_{"MetricsRegistry.mutex"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      DJ_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      DJ_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      DJ_GUARDED_BY(mutex_);
};

/// Process-wide registry used by deep layers (the data-plane codecs) that
/// have no natural place to thread a registry pointer through. Returns
/// nullptr when none is installed — callers then skip metric emission at
/// the cost of one relaxed atomic load.
MetricsRegistry* GlobalMetrics();

/// Installs (or, with nullptr, uninstalls) the global registry. The caller
/// keeps ownership and must uninstall before destroying the registry.
void InstallGlobalMetrics(MetricsRegistry* metrics);

/// Bridges fail points (probe::Faults(), below obs in the dependency graph)
/// onto the installed global sinks: each trigger bumps the "fault.triggers"
/// and "fault.<name>.triggers" counters and emits a "fault:<name>" trace
/// instant (category "fault"). Detaches when neither GlobalMetrics() nor
/// GlobalRecorder() is installed. Both installers call it.
void BridgeFailPoints();

}  // namespace dj::obs

#endif  // DJ_OBS_METRICS_H_
