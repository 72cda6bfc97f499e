#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/file_util.h"
#include "common/lock_order.h"
#include "common/probe.h"
#include "json/writer.h"
#include "obs/span.h"

namespace dj::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double v) {
  size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    out.push_back(b.load(std::memory_order_relaxed));
  }
  return out;
}

double Histogram::Quantile(double q) const {
  if (q < 0 || q > 1) return -1;
  std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return -1;
  // Rank of the target observation (1-based, rounded up so p95 of three
  // observations is the third); q=0 maps to the first one.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    if (i >= bounds_.size()) return bounds_.empty() ? -1 : bounds_.back();
    double lower = i == 0 ? 0 : bounds_[i - 1];
    double upper = bounds_[i];
    double within = (static_cast<double>(rank - seen)) /
                    static_cast<double>(counts[i]);
    return lower + (upper - lower) * within;
  }
  return bounds_.empty() ? -1 : bounds_.back();
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(&mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> upper_bounds) {
  MutexLock lock(&mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (upper_bounds.empty()) upper_bounds = DefaultSecondsBounds();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  }
  return it->second.get();
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  MutexLock lock(&mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  MutexLock lock(&mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  MutexLock lock(&mutex_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::vector<double> MetricsRegistry::DefaultSecondsBounds() {
  return {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0};
}

json::Value MetricsRegistry::SnapshotJson() const {
  MutexLock lock(&mutex_);
  json::Object counters;
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, json::Value(counter->value()));
  }
  json::Object gauges;
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, json::Value(gauge->value()));
  }
  json::Object histograms;
  for (const auto& [name, histogram] : histograms_) {
    json::Object h;
    json::Array bounds;
    for (double b : histogram->bounds()) bounds.emplace_back(b);
    json::Array buckets;
    for (uint64_t c : histogram->BucketCounts()) buckets.emplace_back(c);
    h.Set("bounds", json::Value(std::move(bounds)));
    h.Set("buckets", json::Value(std::move(buckets)));
    h.Set("count", json::Value(histogram->count()));
    h.Set("sum", json::Value(histogram->sum()));
    h.Set("p50", json::Value(histogram->Quantile(0.50)));
    h.Set("p95", json::Value(histogram->Quantile(0.95)));
    h.Set("p99", json::Value(histogram->Quantile(0.99)));
    histograms.Set(name, json::Value(std::move(h)));
  }
  json::Object out;
  out.Set("counters", json::Value(std::move(counters)));
  out.Set("gauges", json::Value(std::move(gauges)));
  out.Set("histograms", json::Value(std::move(histograms)));
  return json::Value(std::move(out));
}

Status MetricsRegistry::WriteTo(const std::string& path) const {
  json::WriteOptions options;
  options.pretty = true;
  return WriteStringToFile(path, json::Write(SnapshotJson(), options));
}

namespace {

std::atomic<MetricsRegistry*> g_global_metrics{nullptr};

/// Records a fail-point trigger on whichever global sinks are installed
/// when it fires.
void RecordFaultTrigger(std::string_view name) {
  if (MetricsRegistry* m = GlobalMetrics(); m != nullptr) {
    m->GetCounter("fault.triggers")->Increment();
    m->GetCounter("fault." + std::string(name) + ".triggers")->Increment();
  }
  if (SpanRecorder* r = GlobalRecorder(); r != nullptr) {
    r->EmitInstant("fault:" + std::string(name), "fault", r->NowMicros());
  }
}

}  // namespace

MetricsRegistry* GlobalMetrics() {
  return g_global_metrics.load(std::memory_order_acquire);
}

void InstallGlobalMetrics(MetricsRegistry* metrics) {
  g_global_metrics.store(metrics, std::memory_order_release);
  // Bridge the concurrency toolkit (which lives below obs in the dependency
  // graph and cannot name a MetricsRegistry) onto the installed registry:
  // lock-order inversions and schedule perturbations become counters. The
  // callbacks re-resolve GlobalMetrics() at event time, so a stale registry
  // pointer is never captured; both events are rare, so the name lookup is
  // not a hot path. Re-entrancy is safe: the tracker and the probe
  // registries both suppress their own probes while running a callback.
  if (metrics != nullptr) {
    LockOrderRegistry::Global().SetOnInversion(
        [](const LockOrderRegistry::Inversion&) {
          if (MetricsRegistry* m = GlobalMetrics(); m != nullptr) {
            m->GetCounter("lockorder.inversions")->Increment();
          }
        });
    probe::Sched().SetOnTrigger([](std::string_view) {
      if (MetricsRegistry* m = GlobalMetrics(); m != nullptr) {
        m->GetCounter("sched.perturbations")->Increment();
      }
    });
  } else {
    LockOrderRegistry::Global().SetOnInversion(nullptr);
    probe::Sched().SetOnTrigger(nullptr);
  }
  BridgeFailPoints();
}

void BridgeFailPoints() {
  const bool any_sink =
      GlobalMetrics() != nullptr || GlobalRecorder() != nullptr;
  probe::Faults().SetOnTrigger(any_sink ? RecordFaultTrigger : nullptr);
}

}  // namespace dj::obs
