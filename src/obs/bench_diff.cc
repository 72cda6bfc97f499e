#include "obs/bench_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dj::obs {
namespace {

bool ContainsToken(std::string_view key, std::string_view token) {
  return key.find(token) != std::string_view::npos;
}

/// Keys that record the shape of the host a bench ran on.
bool IsHostShape(std::string_view key) {
  return ContainsToken(key, "hardware_threads") ||
         ContainsToken(key, "simd_level");
}

Result<const json::Object*> MetricsOf(const json::Value& doc,
                                      const char* which) {
  if (!doc.is_object()) {
    return Status::InvalidArgument(std::string(which) +
                                   ": root is not an object");
  }
  const json::Value* bench = doc.as_object().Find("bench");
  if (bench == nullptr || !bench->is_string()) {
    return Status::InvalidArgument(std::string(which) +
                                   ": missing string 'bench'");
  }
  const json::Value* metrics = doc.as_object().Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Status::InvalidArgument(std::string(which) +
                                   ": missing object 'metrics'");
  }
  return &metrics->as_object();
}

const char* DirectionName(MetricDirection d) {
  switch (d) {
    case MetricDirection::kLowerIsBetter:
      return "lower";
    case MetricDirection::kHigherIsBetter:
      return "higher";
    case MetricDirection::kInformational:
      return "info";
  }
  return "?";
}

/// Which way a delta moved: "better"/"worse" for gated metrics, "same" when
/// unchanged, "-" for informational ones.
const char* ChangeWord(const MetricDelta& d) {
  if (d.direction == MetricDirection::kInformational) return "-";
  if (d.degradation > 0) return "worse";
  if (d.degradation < 0) return "better";
  return "same";
}

}  // namespace

MetricDirection GuessDirection(std::string_view key) {
  // Environment descriptors first: they record *where* the bench ran
  // (thread count, kernel dispatch level, self-check verdicts), not how
  // well, so a host change must never read as a perf regression. The
  // "_ok" rule below would otherwise claim determinism_ok.
  if (IsHostShape(key) || ContainsToken(key, "determinism_ok")) {
    return MetricDirection::kInformational;
  }
  // Higher-is-better tokens first: "speedup_ms" should never exist, but a
  // throughput named "rows_per_sec" contains "_sec" and must not be
  // misread as a timing.
  for (const char* token :
       {"speedup", "per_sec", "throughput", "time_saved", "rows_per",
        "_ok", "win_rate", "accuracy", "f1"}) {
    if (ContainsToken(key, token)) return MetricDirection::kHigherIsBetter;
  }
  for (const char* token :
       {"_ms", "_us", "seconds", "_sec", "_bytes", "rss", "latency"}) {
    if (ContainsToken(key, token)) return MetricDirection::kLowerIsBetter;
  }
  return MetricDirection::kInformational;
}

bool BenchDiffReport::has_regression() const {
  if (!missing_in_current.empty()) return true;
  for (const MetricDelta& d : deltas) {
    if (d.regression) return true;
  }
  return false;
}

std::vector<MetricDelta> BenchDiffReport::HostShapeMismatches() const {
  std::vector<MetricDelta> out;
  for (const MetricDelta& d : deltas) {
    if (IsHostShape(d.key) && d.baseline != d.current) out.push_back(d);
  }
  return out;
}

std::string BenchDiffReport::ToString() const {
  std::string out = "bench: " + bench + "\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-40s %12s %12s %16s %7s %6s  %s\n",
                "metric", "baseline", "current", "change", "tol",
                "better", "verdict");
  out += buf;
  for (const MetricDelta& d : deltas) {
    const char* verdict =
        d.direction == MetricDirection::kInformational
            ? "-"
            : (d.regression ? "REGRESSED" : "ok");
    std::snprintf(buf, sizeof(buf),
                  "%-40s %12.4f %12.4f %+8.1f%% %-6s %6.0f%% %6s  %s\n",
                  d.key.c_str(), d.baseline, d.current, d.change * 100,
                  ChangeWord(d), d.tolerance * 100,
                  DirectionName(d.direction), verdict);
    out += buf;
  }
  for (const std::string& key : missing_in_current) {
    out += "  " + key + ": present in baseline, MISSING in current (REGRESSED)\n";
  }
  for (const std::string& key : missing_in_baseline) {
    out += "  " + key + ": new metric (no baseline, not gated)\n";
  }
  return out;
}

Result<BenchDiffReport> BenchDiff(const json::Value& baseline,
                                  const json::Value& current,
                                  const BenchDiffOptions& options) {
  DJ_ASSIGN_OR_RETURN(const json::Object* base_metrics,
                      MetricsOf(baseline, "baseline"));
  DJ_ASSIGN_OR_RETURN(const json::Object* cur_metrics,
                      MetricsOf(current, "current"));
  const std::string& base_bench =
      baseline.as_object().Find("bench")->as_string();
  const std::string& cur_bench = current.as_object().Find("bench")->as_string();
  if (base_bench != cur_bench) {
    return Status::InvalidArgument("bench mismatch: baseline is '" +
                                   base_bench + "', current is '" +
                                   cur_bench + "'");
  }

  BenchDiffReport report;
  report.bench = cur_bench;
  for (const auto& [key, base_value] : base_metrics->entries()) {
    if (!base_value.is_number()) continue;
    const json::Value* cur_value = cur_metrics->Find(key);
    if (cur_value == nullptr || !cur_value->is_number()) {
      report.missing_in_current.push_back(key);
      continue;
    }
    MetricDelta delta;
    delta.key = key;
    delta.baseline = base_value.as_double();
    delta.current = cur_value->as_double();
    auto dir_it = options.direction_overrides.find(key);
    delta.direction = dir_it != options.direction_overrides.end()
                          ? dir_it->second
                          : GuessDirection(key);
    auto tol_it = options.per_metric_tolerance.find(key);
    delta.tolerance = tol_it != options.per_metric_tolerance.end()
                          ? tol_it->second
                          : options.default_tolerance;
    if (std::abs(delta.baseline) > 0) {
      delta.change =
          (delta.current - delta.baseline) / std::abs(delta.baseline);
      if (delta.direction != MetricDirection::kInformational) {
        delta.degradation = delta.direction == MetricDirection::kLowerIsBetter
                                ? delta.change
                                : -delta.change;
        delta.regression = delta.degradation > delta.tolerance;
      }
    }
    report.deltas.push_back(std::move(delta));
  }
  for (const auto& [key, cur_value] : cur_metrics->entries()) {
    if (!cur_value.is_number()) continue;
    if (base_metrics->Find(key) == nullptr) {
      report.missing_in_baseline.push_back(key);
    }
  }
  return report;
}

Result<json::Value> LedgerBaseline(const std::vector<json::Value>& runs,
                                   std::string_view bench) {
  std::map<std::string, std::vector<double>> values;
  size_t matched = 0;
  for (const json::Value& run : runs) {
    auto metrics = MetricsOf(run, "ledger entry");
    if (!metrics.ok()) continue;
    if (run.as_object().Find("bench")->as_string() != bench) continue;
    ++matched;
    for (const auto& [key, value] : metrics.value()->entries()) {
      if (value.is_number()) values[key].push_back(value.as_double());
    }
  }
  if (matched == 0) {
    return Status::NotFound("ledger has no runs of bench '" +
                            std::string(bench) + "'");
  }
  json::Object metrics;
  for (auto& [key, samples] : values) {
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    double median = n % 2 == 1 ? samples[n / 2]
                               : (samples[n / 2 - 1] + samples[n / 2]) / 2;
    metrics.Set(key, json::Value(median));
  }
  json::Object out;
  out.Set("bench", json::Value(std::string(bench)));
  out.Set("paper_ref", json::Value("ledger median"));
  out.Set("schema_version", json::Value(static_cast<int64_t>(1)));
  out.Set("metrics", json::Value(std::move(metrics)));
  return json::Value(std::move(out));
}

}  // namespace dj::obs
