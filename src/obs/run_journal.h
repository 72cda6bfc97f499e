#ifndef DJ_OBS_RUN_JOURNAL_H_
#define DJ_OBS_RUN_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/resource_monitor.h"
#include "common/status.h"
#include "json/value.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dj::obs {

/// Per-OP execution stats, the obs-side mirror of core::OpReport (obs sits
/// below core in the dependency graph, so callers convert).
struct OpStat {
  std::string name;
  std::string kind;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  double seconds = 0;
  bool cache_hit = false;
};

/// Whole-run totals.
struct RunTotals {
  double total_seconds = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t cache_hits = 0;
  bool resumed_from_checkpoint = false;
};

/// Merges the three observability streams of one run — executor OP reports,
/// the metrics registry (cache/checkpoint counters live there), and
/// resource-monitor samples — into a single machine-readable artifact:
/// WriteMetrics() emits metrics.json, and resource samples are interleaved
/// into the span recorder as Chrome counter events so the trace timeline
/// shows RSS/CPU tracks alongside OP spans. Either stream pointer may be
/// null; the journal then reports what it has.
class RunJournal {
 public:
  RunJournal(const MetricsRegistry* metrics, SpanRecorder* spans)
      : metrics_(metrics), spans_(spans) {}

  void SetRunInfo(std::string recipe, std::string dataset);

  /// Marks the run failed: metrics.json then carries "run.error" with the
  /// stage that failed (e.g. "load", "export") and the status text.
  void SetRunError(std::string stage, std::string status);

  void AddOp(OpStat stat);
  void SetTotals(const RunTotals& totals);
  void SetResources(const ResourceReport& usage);

  /// Attaches a profiler report (obs::Profiler::Report::ToJson()); it
  /// becomes the "profile" key of MetricsJson, so per-OP CPU attribution
  /// ships in the same artifact as per-OP wall times.
  void SetProfile(json::Value profile);

  /// Adds one resource sample. `wall_seconds_offset` is the sample's offset
  /// from `base_ts_micros` on the span recorder's clock; with a recorder
  /// attached, the sample becomes "rss_mib" and "cpu_seconds" counter
  /// events at that timestamp.
  void AddResourceSample(double wall_seconds_offset, uint64_t rss_bytes,
                         double cpu_seconds, uint64_t base_ts_micros = 0);

  /// The merged run report:
  ///   {"schema_version", "run", "ops": [...], "totals", "cache",
  ///    "resources", "profile"?, "metrics": <registry snapshot>}
  /// where "run" is {"recipe", "dataset", "error"?: {"stage", "status"}}.
  json::Value MetricsJson() const;

  /// Pretty-printed MetricsJson() to `path`.
  Status WriteMetrics(const std::string& path) const;

  /// Delegates to the span recorder; InvalidArgument when none is attached.
  Status WriteTrace(const std::string& path) const;

 private:
  const MetricsRegistry* metrics_;
  SpanRecorder* spans_;
  std::string recipe_;
  std::string dataset_;
  std::string error_stage_;
  std::string error_status_;
  std::vector<OpStat> ops_;
  RunTotals totals_;
  ResourceReport resources_;
  size_t resource_samples_ = 0;
  json::Value profile_;
  bool has_profile_ = false;
};

}  // namespace dj::obs

#endif  // DJ_OBS_RUN_JOURNAL_H_
