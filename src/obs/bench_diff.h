#ifndef DJ_OBS_BENCH_DIFF_H_
#define DJ_OBS_BENCH_DIFF_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "json/value.h"

namespace dj::obs {

/// Comparison engine behind tools/dj_bench_diff: diffs two BENCH_*.json
/// reports (bench/bench_util.h JsonReport schema) metric-by-metric and
/// decides whether the current run regressed past a tolerance. This is the
/// machinery that turns the until-now write-only BENCH trajectory into a
/// perf-regression ledger: check.sh runs it as a gate, and the ROADMAP's
/// raw-speed work gets a yes/no answer instead of two JSON files.

/// Which way "better" points for a metric.
enum class MetricDirection {
  kLowerIsBetter,   ///< timings, byte counts
  kHigherIsBetter,  ///< speedups, throughputs, *_ok flags
  kInformational,   ///< environment facts (thread counts); never gates
};

/// Heuristic classification from the key name. Exposed for tests; the CLI
/// lets callers override per metric.
MetricDirection GuessDirection(std::string_view key);

struct BenchDiffOptions {
  /// Allowed relative degradation before a metric counts as a regression
  /// (0.10 = current may be up to 10% worse than baseline).
  double default_tolerance = 0.10;
  std::map<std::string, double> per_metric_tolerance;
  std::map<std::string, MetricDirection> direction_overrides;
};

struct MetricDelta {
  std::string key;
  double baseline = 0;
  double current = 0;
  /// Signed relative change, (current - baseline) / |baseline|: +0.5 means
  /// the value grew by half, whichever way is better. 0 when baseline == 0.
  double change = 0;
  /// Relative change toward "worse": positive means degraded, negative
  /// improved, regardless of direction. 0 when informational or
  /// baseline == 0.
  double degradation = 0;
  double tolerance = 0;
  MetricDirection direction = MetricDirection::kInformational;
  bool regression = false;
};

struct BenchDiffReport {
  std::string bench;
  std::vector<MetricDelta> deltas;  ///< key order, gated metrics and not
  std::vector<std::string> missing_in_current;   ///< metric disappeared
  std::vector<std::string> missing_in_baseline;  ///< new metric (not gated)

  bool has_regression() const;
  /// Human-readable table: the signed change of each metric followed by
  /// "better" or "worse" (per its direction), regressions marked
  /// "REGRESSED".
  std::string ToString() const;
};

/// Diffs two parsed BENCH_*.json documents. Fails with InvalidArgument
/// when either document lacks the {"bench", "metrics"} shape or the bench
/// names differ. A metric present in the baseline but missing from the
/// current run is itself a regression (a silently dropped measurement must
/// not pass the gate).
Result<BenchDiffReport> BenchDiff(const json::Value& baseline,
                                  const json::Value& current,
                                  const BenchDiffOptions& options = {});

/// Ledger support: collapses prior runs of the same bench into a synthetic
/// baseline whose metric values are the per-metric medians. Runs whose
/// "bench" name differs from `bench` are skipped; fails when nothing
/// matches.
Result<json::Value> LedgerBaseline(const std::vector<json::Value>& runs,
                                   std::string_view bench);

}  // namespace dj::obs

#endif  // DJ_OBS_BENCH_DIFF_H_
