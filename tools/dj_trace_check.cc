// dj_trace_check: validates the two observability artifacts dj_process
// emits. Used by tools/check.sh as a smoke-gate: run a shipped recipe with
// --trace-out/--metrics-out, then assert both files parse as JSON and carry
// the keys downstream consumers (Perfetto, BENCH trajectory tooling) rely
// on.
//
// Usage: dj_trace_check [--require-io-spans] [--require-fault-instants]
//                       [--require-profile] [--manifest manifest.json]
//                       trace.json metrics.json
// Exits 0 when both are valid; prints the first violation and exits 1
// otherwise. With --require-io-spans, the trace must also carry at least
// one "io.*" span (parse/serialize/compress from the parallel data plane).
// With --require-fault-instants, the trace must carry at least one
// "fault:<name>" instant event — i.e., a fail point actually fired during
// the run (used by the fault-matrix smoke stage of tools/check.sh).
// With --require-profile, the trace must carry "profile:tick" and
// "watchdog:beat" instants (the sampling profiler and the stall watchdog
// were demonstrably alive during the run) and metrics.json must carry a
// "profile" object with at least one tick.
// With --manifest, every span ('X'), instant ('i'), and counter-track ('C')
// name in the trace and every metric key in metrics.json must be declared
// in the srclint instrumentation manifest (exactly, or via a prefix entry
// like "unit:*") — a typo'd name at an emit site otherwise produces
// silently-unaggregated data.
// A run that failed (metrics.json carries "run.error" with the stage and
// status) may have no complete span and an empty "ops" array: a load that
// fails stops the run before its first unit. Any other run must have both.

#include <cstdio>
#include <string>

#include "data/io.h"
#include "json/parser.h"
#include "json/value.h"
#include "srclint/manifest.h"

namespace {

using dj::json::Value;
using dj::srclint::Manifest;
using dj::srclint::NameCovered;

bool Fail(const char* file, const std::string& why) {
  std::fprintf(stderr, "dj_trace_check: %s: %s\n", file, why.c_str());
  return false;
}

bool CheckTrace(const char* path, bool require_io_spans,
                bool require_fault_instants, bool require_profile,
                const Manifest* manifest, bool failed_run) {
  auto content = dj::data::ReadFile(path);
  if (!content.ok()) return Fail(path, content.status().ToString());
  auto parsed = dj::json::ParseStrict(content.value());
  if (!parsed.ok()) return Fail(path, parsed.status().ToString());
  const Value& root = parsed.value();
  if (!root.is_object()) return Fail(path, "root is not an object");
  const Value* events = root.as_object().Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Fail(path, "missing traceEvents array");
  }
  if (events->as_array().empty()) return Fail(path, "traceEvents is empty");
  size_t complete_events = 0;
  size_t io_spans = 0;
  size_t fault_instants = 0;
  size_t profile_ticks = 0;
  size_t watchdog_beats = 0;
  for (const Value& e : events->as_array()) {
    if (!e.is_object()) return Fail(path, "event is not an object");
    for (const char* key : {"name", "ph", "ts", "pid", "tid"}) {
      if (!e.as_object().Contains(key)) {
        return Fail(path, std::string("event missing key '") + key + "'");
      }
    }
    const std::string& ph = e.as_object().Find("ph")->as_string();
    const std::string& name = e.as_object().Find("name")->as_string();
    if (ph == "X") {
      if (!e.as_object().Contains("dur")) {
        return Fail(path, "complete event missing 'dur'");
      }
      ++complete_events;
      if (name.rfind("io.", 0) == 0) ++io_spans;
      if (manifest != nullptr && !NameCovered(manifest->spans, name)) {
        return Fail(path, "span '" + name +
                              "' is not declared in the instrumentation "
                              "manifest");
      }
    } else if (ph == "i") {
      if (name.rfind("fault:", 0) == 0) ++fault_instants;
      if (name == "profile:tick") ++profile_ticks;
      if (name == "watchdog:beat") ++watchdog_beats;
      if (manifest != nullptr && !NameCovered(manifest->instants, name)) {
        return Fail(path, "instant '" + name +
                              "' is not declared in the instrumentation "
                              "manifest");
      }
    } else if (ph == "C") {
      if (manifest != nullptr &&
          !NameCovered(manifest->counter_series, name)) {
        return Fail(path, "counter track '" + name +
                              "' is not declared in the instrumentation "
                              "manifest");
      }
    }
  }
  if (complete_events == 0 && !failed_run) {
    return Fail(path, "no complete ('X') events — no spans were recorded");
  }
  if (require_io_spans && io_spans == 0) {
    return Fail(path,
                "no 'io.*' spans — the data-plane codecs were not traced");
  }
  if (require_fault_instants && fault_instants == 0) {
    return Fail(path,
                "no 'fault:*' instants — no fail point fired during the run");
  }
  if (require_profile) {
    if (profile_ticks == 0) {
      return Fail(path,
                  "no 'profile:tick' instants — the sampling profiler did "
                  "not run");
    }
    if (watchdog_beats == 0) {
      return Fail(path,
                  "no 'watchdog:beat' instants — the stall watchdog did "
                  "not run");
    }
  }
  std::printf(
      "dj_trace_check: %s ok (%zu events, %zu spans, %zu io spans, "
      "%zu fault instants, %zu profile ticks, %zu watchdog beats)\n",
      path, events->as_array().size(), complete_events, io_spans,
      fault_instants, profile_ticks, watchdog_beats);
  return true;
}

bool CheckMetricNames(const char* path, const Value& metrics,
                      const Manifest& manifest) {
  struct SetPair {
    const char* key;
    const std::vector<std::string>* declared;
  };
  const SetPair pairs[] = {
      {"counters", &manifest.counters},
      {"gauges", &manifest.gauges},
      {"histograms", &manifest.histograms},
  };
  for (const SetPair& p : pairs) {
    const Value* section = metrics.as_object().Find(p.key);
    if (section == nullptr || !section->is_object()) continue;
    for (const auto& [name, unused] : section->as_object().entries()) {
      if (!NameCovered(*p.declared, name)) {
        return Fail(path, std::string(p.key) + " entry '" + name +
                              "' is not declared in the instrumentation "
                              "manifest");
      }
    }
  }
  return true;
}

/// Also reports through `failed_run` whether the file records a failed run.
bool CheckMetrics(const char* path, bool require_profile,
                  const Manifest* manifest, bool* failed_run) {
  auto content = dj::data::ReadFile(path);
  if (!content.ok()) return Fail(path, content.status().ToString());
  auto parsed = dj::json::ParseStrict(content.value());
  if (!parsed.ok()) return Fail(path, parsed.status().ToString());
  const Value& root = parsed.value();
  if (!root.is_object()) return Fail(path, "root is not an object");
  for (const char* key :
       {"schema_version", "run", "ops", "totals", "cache", "resources",
        "metrics"}) {
    if (!root.as_object().Contains(key)) {
      return Fail(path, std::string("missing key '") + key + "'");
    }
  }
  const Value* run = root.as_object().Find("run");
  if (!run->is_object()) return Fail(path, "'run' must be an object");
  std::string failed_stage;
  if (const Value* error = run->as_object().Find("error")) {
    const Value* stage =
        error->is_object() ? error->as_object().Find("stage") : nullptr;
    const Value* status =
        error->is_object() ? error->as_object().Find("status") : nullptr;
    if (stage == nullptr || !stage->is_string() || stage->as_string().empty() ||
        status == nullptr || !status->is_string()) {
      return Fail(path, "'run.error' must carry a stage and a status string");
    }
    failed_stage = stage->as_string();
    *failed_run = true;
  }
  const Value* ops = root.as_object().Find("ops");
  if (!ops->is_array()) return Fail(path, "'ops' must be an array");
  if (ops->as_array().empty() && failed_stage.empty()) {
    return Fail(path, "'ops' must be a non-empty array");
  }
  for (const Value& op : ops->as_array()) {
    if (!op.is_object()) return Fail(path, "op entry is not an object");
    for (const char* key :
         {"name", "kind", "rows_in", "rows_out", "seconds", "rows_per_sec",
          "cache_hit"}) {
      if (!op.as_object().Contains(key)) {
        return Fail(path, std::string("op entry missing key '") + key + "'");
      }
    }
  }
  const Value* cache = root.as_object().Find("cache");
  if (!cache->is_object() || !cache->as_object().Contains("hits") ||
      !cache->as_object().Contains("misses")) {
    return Fail(path, "'cache' must carry hits/misses counters");
  }
  if (manifest != nullptr) {
    const Value* metrics = root.as_object().Find("metrics");
    if (metrics == nullptr || !metrics->is_object()) {
      return Fail(path, "'metrics' must be an object");
    }
    if (!CheckMetricNames(path, *metrics, *manifest)) return false;
  }
  if (require_profile) {
    const Value* profile = root.as_object().Find("profile");
    if (profile == nullptr || !profile->is_object()) {
      return Fail(path, "missing 'profile' object");
    }
    const Value* ticks = profile->as_object().Find("ticks");
    if (ticks == nullptr || !ticks->is_number() || ticks->as_double() < 1) {
      return Fail(path, "'profile.ticks' must be >= 1");
    }
    for (const char* key : {"interval_seconds", "samples", "op_cpu"}) {
      if (!profile->as_object().Contains(key)) {
        return Fail(path, std::string("'profile' missing key '") + key + "'");
      }
    }
  }
  std::printf("dj_trace_check: %s ok (%zu ops%s%s)\n", path,
              ops->as_array().size(),
              failed_stage.empty() ? "" : ", run failed at ",
              failed_stage.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool require_io_spans = false;
  bool require_fault_instants = false;
  bool require_profile = false;
  std::string manifest_path;
  int arg = 1;
  while (arg < argc) {
    std::string flag = argv[arg];
    if (flag == "--require-io-spans") {
      require_io_spans = true;
      ++arg;
    } else if (flag == "--require-fault-instants") {
      require_fault_instants = true;
      ++arg;
    } else if (flag == "--require-profile") {
      require_profile = true;
      ++arg;
    } else if (flag == "--manifest" && arg + 1 < argc) {
      manifest_path = argv[arg + 1];
      arg += 2;
    } else {
      break;
    }
  }
  if (argc - arg != 2) {
    std::fprintf(stderr,
                 "usage: %s [--require-io-spans] [--require-fault-instants] "
                 "[--require-profile] [--manifest manifest.json] "
                 "trace.json metrics.json\n",
                 argv[0]);
    return 2;
  }
  Manifest manifest;
  const Manifest* manifest_ptr = nullptr;
  if (!manifest_path.empty()) {
    auto content = dj::data::ReadFile(manifest_path);
    if (!content.ok()) {
      std::fprintf(stderr, "dj_trace_check: %s: %s\n", manifest_path.c_str(),
                   content.status().ToString().c_str());
      return 2;
    }
    auto parsed = Manifest::FromText(content.value());
    if (!parsed.ok()) {
      std::fprintf(stderr, "dj_trace_check: %s: %s\n", manifest_path.c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    manifest = std::move(parsed).value();
    manifest_ptr = &manifest;
  }
  // metrics.json first: whether the run failed decides what the trace may
  // lack.
  bool failed_run = false;
  bool ok = CheckMetrics(argv[arg + 1], require_profile, manifest_ptr,
                         &failed_run);
  ok = CheckTrace(argv[arg], require_io_spans, require_fault_instants,
                  require_profile, manifest_ptr, failed_run) &&
       ok;
  return ok ? 0 : 1;
}
