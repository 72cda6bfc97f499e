// dj_process: zero-code recipe runner (the paper's "Zero-Code Processing"
// path, Sec. 6.3). Loads a dataset, runs a recipe, exports the result, and
// prints the per-OP report plus an optional trace summary.
//
// Usage:
//   dj_process --recipe recipe.yaml [--input in.jsonl] [--output out.jsonl]
//              [--np N] [--trace] [--cache-dir DIR] [--no-verify]
//              [--trace-out trace.json] [--metrics-out metrics.json]
//              [--checkpoint-dir DIR] [--faults SPEC]
//              [--sched SPEC] [--profile-out profile.txt]
//              [--watchdog SPEC]
//
// --input/--output override the recipe's dataset_path/export_path.
// The recipe is linted before any data is touched; lint errors abort the
// run unless --no-verify is given.
//
// --checkpoint-dir enables per-OP checkpointing. With it or the cache on, a
// run continues from the deepest stored prefix whose key (the input's
// content and the OP configs) matches its plan, re-running only the suffix.
// --faults arms fail points (same syntax as the DJ_FAULTS env var, e.g.
// "seed=7;exec.op_abort=n2;io.write.short=p0.1"); the env var is applied
// first, then the flag. DJ_FAULTS is also read at the first fail-point
// probe, so an io.read.* entry sees the recipe read. On a faulted (failed)
// run the trace/metrics files are still written so the fault instants can
// be inspected.
//
// --sched arms seeded schedule perturbation (same syntax as the DJ_SCHED
// env var, e.g. "seed=3;p=0.05;max_us=200"): DJ_SCHED_POINT probes at lock
// boundaries, pool dispatch, and gather joins yield or micro-sleep with
// probability p, shaking out interleavings deterministically per seed.
//
// --trace-out writes a Chrome trace-event JSON (open in chrome://tracing or
// https://ui.perfetto.dev) with per-OP spans and interleaved RSS/CPU
// counter tracks; --metrics-out writes the machine-readable run report
// (per-OP rows/seconds, cache hit/miss counters, resource aggregates).
// Either flag alone enables instrumentation; with neither, the run pays no
// observability cost beyond null-pointer checks.
//
// --profile-out writes flamegraph-compatible collapsed stacks from the
// sampling profiler (obs::Profiler: the span-path tag stacks of all busy
// threads, sampled at 500 Hz). The profiler also runs whenever trace or
// metrics output is requested, adding per-OP "%cpu" to the report and a
// "profile" section to metrics.json.
//
// --watchdog SPEC (or the DJ_WATCHDOG env var; the flag wins) arms the
// stall watchdog: "30" or "stall=30" = dump live thread state to stderr when
// a busy thread goes 30s without a heartbeat (polled every quarter of that);
// "off" disables. The run is not killed — the dump is for diagnosis.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>

#include "common/probe.h"
#include "common/resource_monitor.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/tracer.h"
#include "data/io.h"
#include "lint/linter.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/run_journal.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "ops/formatters/formatters.h"
#include "ops/registry.h"

namespace {

struct Args {
  std::string recipe_path;
  std::string input;
  std::string output;
  int np = 0;  // 0 = use recipe value
  bool trace = false;
  bool no_verify = false;
  std::string cache_dir;
  std::string trace_out;
  std::string metrics_out;
  std::string checkpoint_dir;
  std::string faults;
  std::string sched;
  std::string profile_out;
  std::string watchdog;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --recipe recipe.yaml [--input in.jsonl] "
               "[--output out.jsonl] [--np N] [--trace] "
               "[--cache-dir DIR] [--no-verify] [--trace-out trace.json] "
               "[--metrics-out metrics.json] [--checkpoint-dir DIR] "
               "[--faults SPEC] [--sched SPEC] "
               "[--profile-out profile.txt] [--watchdog SPEC]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--recipe") {
      const char* v = next();
      if (v == nullptr) return false;
      args->recipe_path = v;
    } else if (flag == "--input") {
      const char* v = next();
      if (v == nullptr) return false;
      args->input = v;
    } else if (flag == "--output") {
      const char* v = next();
      if (v == nullptr) return false;
      args->output = v;
    } else if (flag == "--np") {
      const char* v = next();
      int64_t np = 0;
      if (v == nullptr || !dj::ParseInt64(v, &np) || np < 1 ||
          np > dj::kMaxPoolThreads) {
        std::fprintf(stderr, "--np takes an integer in [1, %lld]\n",
                     static_cast<long long>(dj::kMaxPoolThreads));
        return false;
      }
      args->np = static_cast<int>(np);
    } else if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--no-verify") {
      args->no_verify = true;
    } else if (flag == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      args->cache_dir = v;
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->trace_out = v;
    } else if (flag == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->metrics_out = v;
    } else if (flag == "--checkpoint-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      args->checkpoint_dir = v;
    } else if (flag == "--faults") {
      const char* v = next();
      if (v == nullptr) return false;
      args->faults = v;
    } else if (flag == "--sched") {
      const char* v = next();
      if (v == nullptr) return false;
      args->sched = v;
    } else if (flag == "--profile-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->profile_out = v;
    } else if (flag == "--watchdog") {
      const char* v = next();
      if (v == nullptr) return false;
      args->watchdog = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->recipe_path.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  auto recipe = dj::core::Recipe::FromFile(args.recipe_path);
  if (!recipe.ok()) {
    std::fprintf(stderr, "recipe error: %s\n",
                 recipe.status().ToString().c_str());
    return 1;
  }
  if (!args.input.empty()) recipe.value().dataset_path = args.input;
  if (!args.output.empty()) recipe.value().export_path = args.output;
  if (args.np > 0) recipe.value().num_workers = args.np;
  if (!args.cache_dir.empty()) {
    recipe.value().use_cache = true;
    recipe.value().cache_dir = args.cache_dir;
  }
  if (recipe.value().dataset_path.empty()) {
    std::fprintf(stderr, "no input: set --input or dataset_path\n");
    return 1;
  }

  // Pre-flight static analysis: a typo'd OP or param key should fail here,
  // not minutes into a processing run.
  dj::lint::RecipeLinter linter(dj::ops::OpRegistry::Global());
  dj::lint::LintReport lint_report = linter.Lint(recipe.value());
  if (!lint_report.diagnostics.empty()) {
    std::fprintf(stderr, "lint: %s\n%s", args.recipe_path.c_str(),
                 lint_report.ToString().c_str());
  }
  if (!lint_report.ok()) {
    if (!args.no_verify) {
      std::fprintf(stderr,
                   "aborting: recipe has %zu lint error(s); "
                   "pass --no-verify to run anyway\n",
                   lint_report.errors());
      return 1;
    }
    std::fprintf(stderr, "--no-verify: continuing despite lint errors\n");
  }

  // Stall watchdog: DJ_WATCHDOG env first, then --watchdog overrides.
  dj::obs::Watchdog::Options watchdog_options;
  bool watchdog_enabled = false;
  {
    const char* env = std::getenv("DJ_WATCHDOG");
    std::string spec = args.watchdog.empty()
                           ? (env != nullptr ? env : "")
                           : args.watchdog;
    if (!spec.empty()) {
      if (auto s = dj::obs::Watchdog::ParseSpec(spec, &watchdog_options,
                                                &watchdog_enabled);
          !s.ok()) {
        std::fprintf(stderr, "watchdog spec error: %s\n",
                     s.ToString().c_str());
        return 2;
      }
    }
  }

  // Probe arming, fail points then sched points: the env var first, then
  // the flag, so a flag can override or extend it. Each registry already
  // read its variable at its first probe (for DJ_FAULTS, the recipe read);
  // applying it again here restarts its points' streams and counts, and
  // everything is armed before the dataset loads so io.* points fire on the
  // load path too.
  for (const auto& [registry, flag, spec] :
       {std::tuple(&dj::probe::Faults(), "--faults", &args.faults),
        std::tuple(&dj::probe::Sched(), "--sched", &args.sched)}) {
    dj::Status s = registry->ConfigureFromEnv();
    const char* source = registry->env_var();
    if (s.ok() && !spec->empty()) {
      s = registry->Configure(*spec);
      source = flag;
    }
    if (!s.ok()) {
      std::fprintf(stderr, "%s error: %s\n", source, s.ToString().c_str());
      return 2;
    }
  }

  // Observability: both sinks spin up when either output flag is given so
  // metrics.json can embed the registry snapshot and the trace can carry
  // resource counter tracks. Installed before the dataset loads so the
  // io.* spans and counters of the parallel data plane are captured too.
  const bool observe = !args.trace_out.empty() || !args.metrics_out.empty();
  dj::obs::MetricsRegistry metrics;
  dj::obs::SpanRecorder spans;
  dj::ResourceMonitor monitor(0.02);
  uint64_t monitor_base_ts = 0;
  if (observe) {
    dj::obs::InstallGlobalRecorder(&spans);  // OP- and codec-internal spans
    dj::obs::InstallGlobalMetrics(&metrics);
    monitor_base_ts = spans.NowMicros();
    monitor.Start();
  }

  // Sampling profiler: runs for the whole process whenever any
  // observability output is requested, so the profile covers the load and
  // export phases too.
  const bool profile = observe || !args.profile_out.empty();
  dj::obs::Profiler profiler;
  if (profile) profiler.Start();

  dj::obs::Watchdog watchdog(watchdog_options);
  if (watchdog_enabled) watchdog.Start();

  dj::core::RunReport report;

  // From here on every exit goes through flush_obs: on a failed (possibly
  // fault-injected) run the observability files are still written — the
  // whole point of a crash trace is inspecting it.
  // `failed_stage` names the stage a failed run stopped at, null on success.
  auto flush_obs = [&](const char* failed_stage, const dj::Status& status) {
    const bool run_failed = failed_stage != nullptr;
    // Stop the background samplers before serializing anything they feed.
    dj::obs::Profiler::Report profile_report;
    if (profile) {
      profiler.Stop();
      profile_report = profiler.Snapshot();
    }
    if (watchdog_enabled) {
      watchdog.Stop();
      if (watchdog.stall_count() > 0) {
        std::fprintf(stderr, "watchdog: %llu stall episode(s) reported\n",
                     static_cast<unsigned long long>(watchdog.stall_count()));
      }
    }
    if (!args.profile_out.empty()) {
      if (auto s = profiler.WriteCollapsed(args.profile_out); !s.ok()) {
        std::fprintf(stderr, "profile-out error: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote profile (%llu samples over %llu ticks) to %s%s\n",
                  static_cast<unsigned long long>(profile_report.samples),
                  static_cast<unsigned long long>(profile_report.ticks),
                  args.profile_out.c_str(), run_failed ? " (failed run)" : "");
    }
    if (!observe) return 0;
    dj::obs::InstallGlobalRecorder(nullptr);
    dj::obs::InstallGlobalMetrics(nullptr);
    dj::ResourceReport resources = monitor.Stop();
    dj::obs::RunJournal journal(&metrics, &spans);
    journal.SetRunInfo(args.recipe_path, recipe.value().dataset_path);
    if (run_failed) journal.SetRunError(failed_stage, status.ToString());
    for (const dj::core::OpReport& r : report.op_reports) {
      journal.AddOp({r.name, r.kind, r.rows_in, r.rows_out, r.seconds,
                     r.cache_hit});
    }
    dj::obs::RunTotals totals;
    totals.total_seconds = report.total_seconds;
    totals.rows_in = report.rows_in;
    totals.rows_out = report.rows_out;
    totals.cache_hits = report.cache_hits;
    totals.resumed_from_checkpoint = report.resumed_from_checkpoint;
    journal.SetTotals(totals);
    journal.SetResources(resources);
    journal.SetProfile(profile_report.ToJson());
    for (const dj::ResourceSample& s : monitor.Samples()) {
      journal.AddResourceSample(s.wall_seconds, s.rss_bytes, s.cpu_seconds,
                                monitor_base_ts);
    }
    if (!args.trace_out.empty()) {
      if (auto s = journal.WriteTrace(args.trace_out); !s.ok()) {
        std::fprintf(stderr, "trace-out error: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote trace (%zu events) to %s%s\n", spans.EventCount(),
                  args.trace_out.c_str(),
                  run_failed ? " (failed run)" : "");
    }
    if (!args.metrics_out.empty()) {
      if (auto s = journal.WriteMetrics(args.metrics_out); !s.ok()) {
        std::fprintf(stderr, "metrics-out error: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("wrote metrics to %s%s\n", args.metrics_out.c_str(),
                  run_failed ? " (failed run)" : "");
    }
    return 0;
  };

  auto fail = [&](const char* what, const dj::Status& status) {
    std::fprintf(stderr, "%s error: %s\n", what, status.ToString().c_str());
    flush_obs(what, status);
    return 1;
  };

  dj::core::Tracer tracer(10);
  dj::core::Executor::Options options =
      dj::core::Executor::OptionsFromRecipe(recipe.value());
  if (args.trace) options.tracer = &tracer;
  if (observe) {
    options.metrics = &metrics;
    options.spans = &spans;
  }
  if (!args.checkpoint_dir.empty()) {
    options.checkpoint_dir = args.checkpoint_dir;
  }
  // One pool for the whole run: import, OPs and export. Built after the
  // profiler and watchdog start, so its workers register their role.
  dj::core::Executor executor(options);

  auto dataset =
      dj::ops::LoadDataset(recipe.value().dataset_path, executor.pool());
  if (!dataset.ok()) return fail("load", dataset.status());
  std::printf("loaded %zu samples from %s\n", dataset.value().NumRows(),
              recipe.value().dataset_path.c_str());

  auto ops = dj::core::BuildOps(recipe.value(), dj::ops::OpRegistry::Global());
  if (!ops.ok()) return fail("pipeline", ops.status());

  auto refined =
      executor.Run(std::move(dataset).value(), ops.value(), &report);
  if (!refined.ok()) return fail("run", refined.status());
  // Attribute profiler samples to OPs before printing: the report's %cpu
  // column comes from here, matching OpCpuShares keys against unit names.
  if (profile) {
    auto shares = profiler.Snapshot().OpCpuShares();
    if (!shares.empty()) {
      for (dj::core::OpReport& r : report.op_reports) {
        auto it = shares.find(r.name);
        r.cpu_share = it != shares.end() ? it->second : 0.0;
      }
    }
  }
  std::printf("%s", report.ToString().c_str());
  if (args.trace) std::printf("\n%s", tracer.Summary().c_str());

  // Export before the journal flush so the exporter's io.* spans (parse,
  // serialize, compress) land in the trace file.
  if (!recipe.value().export_path.empty()) {
    if (auto s = dj::data::ExportDataset(refined.value(),
                                         recipe.value().export_path,
                                         executor.pool());
        !s.ok()) {
      return fail("export", s);
    }
    std::printf("exported %zu samples to %s\n", refined.value().NumRows(),
                recipe.value().export_path.c_str());
  }

  return flush_obs(nullptr, dj::Status());
}
