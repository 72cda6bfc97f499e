// dj_bench_diff: the perf-regression gate. Compares a current BENCH_*.json
// report (bench/bench_util.h schema) against a committed baseline — or
// against the per-metric median of a ledger directory of prior runs — and
// exits non-zero when any gated metric degraded past its tolerance.
//
// Usage:
//   dj_bench_diff [--tolerance F] [--tol metric=F]...
//                 [--metric name=higher|lower|skip]...
//                 [--degrade KEY=FACTOR]
//                 (baseline.json | --ledger DIR) current.json
//
// Direction is inferred from the metric name (timings/bytes are
// lower-is-better, speedups/throughputs higher) and can be overridden per
// metric; "skip" makes a metric informational, never gated. A metric that
// exists in the baseline but not in the current run is a regression — a
// measurement must not silently disappear. New metrics in the current run
// are reported but not gated.
//
// --degrade multiplies one current metric by FACTOR before diffing. It
// exists so check.sh can prove the gate actually fails: a self-compare must
// pass, and the same compare with a hand-degraded metric must not.
//
// A tolerance must be a finite number >= 0 and a degrade factor a finite
// number > 0; any other value (NaN, "5x", "-1", "abc") is a usage error,
// never a gate quietly switched off or one that flags identical reports.
//
// Two reports that both record a host-shape fact (`hardware_threads`,
// `simd_level`, or a key naming one, like `env.simd_level`) with different
// values are not comparable: both values are printed and the tool exits 3
// without gating, since a baseline from another host shape gates nothing.
//
// Exit codes: 0 = no regression, 1 = regression, 2 = usage/parse error,
// 3 = not comparable (different host shapes).

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/string_util.h"
#include "json/parser.h"
#include "json/value.h"
#include "obs/bench_diff.h"

namespace {

using dj::json::Value;
using dj::obs::BenchDiffOptions;
using dj::obs::MetricDirection;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tolerance F] [--tol metric=F]... "
               "[--metric name=higher|lower|skip]... [--degrade KEY=FACTOR] "
               "(baseline.json | --ledger DIR) current.json\n",
               argv0);
  return 2;
}

bool LoadJson(const std::string& path, Value* out) {
  auto content = dj::ReadFileToString(path);
  if (!content.ok()) {
    std::fprintf(stderr, "dj_bench_diff: %s: %s\n", path.c_str(),
                 content.status().ToString().c_str());
    return false;
  }
  auto parsed = dj::json::ParseStrict(content.value());
  if (!parsed.ok()) {
    std::fprintf(stderr, "dj_bench_diff: %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  *out = std::move(parsed).value();
  return true;
}

/// Every parseable BENCH_*.json under `dir` (non-recursive, sorted so the
/// synthesized baseline is stable across filesystems).
bool LoadLedger(const std::string& dir, std::vector<Value>* out) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    std::fprintf(stderr, "dj_bench_diff: cannot open ledger dir %s\n",
                 dir.c_str());
    return false;
  }
  std::vector<std::string> names;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json") {
      names.push_back(name);
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    Value run;
    if (LoadJson(dir + "/" + name, &run)) out->push_back(std::move(run));
  }
  if (out->empty()) {
    std::fprintf(stderr, "dj_bench_diff: no BENCH_*.json in %s\n",
                 dir.c_str());
    return false;
  }
  return true;
}

bool ParseKeyValue(const std::string& arg, std::string* key,
                   std::string* value) {
  size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = arg.substr(0, eq);
  *value = arg.substr(eq + 1);
  return true;
}

/// Parses the number `flag` takes: finite, and > 0 when `positive`, else
/// >= 0. Prints the flag and the value and returns false otherwise.
bool ParseFlagNumber(const std::string& flag, const std::string& value,
                     bool positive, double* out) {
  double v = 0;
  if (dj::ParseDouble(value, &v) && std::isfinite(v) &&
      (positive ? v > 0 : v >= 0)) {
    *out = v;
    return true;
  }
  std::fprintf(stderr,
               "dj_bench_diff: %s takes a finite number %s, got '%s'\n",
               flag.c_str(), positive ? "> 0" : ">= 0", value.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  BenchDiffOptions options;
  std::string ledger_dir;
  std::string degrade_key;
  double degrade_factor = 1.0;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--tolerance") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!ParseFlagNumber(flag, v, false, &options.default_tolerance)) {
        return 2;
      }
    } else if (flag == "--tol") {
      const char* v = next();
      std::string key, value;
      if (v == nullptr || !ParseKeyValue(v, &key, &value)) {
        return Usage(argv[0]);
      }
      if (!ParseFlagNumber(flag, value, false,
                           &options.per_metric_tolerance[key])) {
        return 2;
      }
    } else if (flag == "--metric") {
      const char* v = next();
      std::string key, value;
      if (v == nullptr || !ParseKeyValue(v, &key, &value)) {
        return Usage(argv[0]);
      }
      if (value == "higher") {
        options.direction_overrides[key] = MetricDirection::kHigherIsBetter;
      } else if (value == "lower") {
        options.direction_overrides[key] = MetricDirection::kLowerIsBetter;
      } else if (value == "skip") {
        options.direction_overrides[key] = MetricDirection::kInformational;
      } else {
        std::fprintf(stderr,
                     "dj_bench_diff: --metric wants higher|lower|skip, "
                     "got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (flag == "--degrade") {
      const char* v = next();
      std::string value;
      if (v == nullptr || !ParseKeyValue(v, &degrade_key, &value)) {
        return Usage(argv[0]);
      }
      if (!ParseFlagNumber(flag, value, true, &degrade_factor)) return 2;
    } else if (flag == "--ledger") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      ledger_dir = v;
    } else if (flag.rfind("--", 0) == 0) {
      std::fprintf(stderr, "dj_bench_diff: unknown flag %s\n", flag.c_str());
      return 2;
    } else {
      positional.push_back(flag);
    }
  }

  size_t expected = ledger_dir.empty() ? 2 : 1;
  if (positional.size() != expected) return Usage(argv[0]);

  Value current;
  if (!LoadJson(positional.back(), &current)) return 2;

  Value baseline;
  if (ledger_dir.empty()) {
    if (!LoadJson(positional.front(), &baseline)) return 2;
  } else {
    if (!current.is_object() ||
        current.as_object().Find("bench") == nullptr) {
      std::fprintf(stderr, "dj_bench_diff: current file has no 'bench'\n");
      return 2;
    }
    std::vector<Value> runs;
    if (!LoadLedger(ledger_dir, &runs)) return 2;
    auto synthesized = dj::obs::LedgerBaseline(
        runs, current.as_object().Find("bench")->as_string());
    if (!synthesized.ok()) {
      std::fprintf(stderr, "dj_bench_diff: %s\n",
                   synthesized.status().ToString().c_str());
      return 2;
    }
    baseline = std::move(synthesized).value();
    std::printf("ledger baseline: per-metric median of %zu run(s) in %s\n",
                runs.size(), ledger_dir.c_str());
  }

  if (!degrade_key.empty()) {
    dj::json::Value* metrics =
        current.is_object() ? current.as_object().Find("metrics") : nullptr;
    dj::json::Value* target =
        metrics != nullptr && metrics->is_object()
            ? metrics->as_object().Find(degrade_key)
            : nullptr;
    if (target == nullptr || !target->is_number()) {
      std::fprintf(stderr, "dj_bench_diff: --degrade: no metric '%s'\n",
                   degrade_key.c_str());
      return 2;
    }
    *target = Value(target->as_double() * degrade_factor);
    std::printf("degraded %s by x%.3f (gate self-test)\n",
                degrade_key.c_str(), degrade_factor);
  }

  auto report = dj::obs::BenchDiff(baseline, current, options);
  if (!report.ok()) {
    std::fprintf(stderr, "dj_bench_diff: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  const std::vector<dj::obs::MetricDelta> mismatches =
      report.value().HostShapeMismatches();
  if (!mismatches.empty()) {
    for (const dj::obs::MetricDelta& d : mismatches) {
      std::fprintf(stderr, "dj_bench_diff: %s: baseline %g, current %g\n",
                   d.key.c_str(), d.baseline, d.current);
    }
    std::fprintf(stderr,
                 "dj_bench_diff: not comparable: the reports come from "
                 "different host shapes; not gating\n");
    return 3;
  }
  std::printf("%s", report.value().ToString().c_str());
  if (report.value().has_regression()) {
    std::fprintf(stderr, "dj_bench_diff: REGRESSION detected\n");
    return 1;
  }
  std::printf("dj_bench_diff: ok\n");
  return 0;
}
