// bench_e2e: end-to-end recipe benchmark (paper Fig. 8: time, memory and
// CPU of whole recipe runs). Every measured run is a fresh process that
// makes the calls dj_process makes, with a stopwatch around each, so the
// run's wall clock breaks into layers that add up to it.
//
// Usage:
//   bench_e2e --workload W [--seed S] [--passes N | --seconds T]
//             [--trace 0|1] [--traced-passes N] [--scale X]
//             [--out DIR] [--root DIR]
//   bench_e2e --gate-flags W [--root DIR]
//
// One invocation runs one workload, single-threaded, in five steps:
//   1. generate: a forked child writes the seeded corpus to DIR/W/in.jsonl
//      (untimed; no measured process ever holds the generator's copy);
//   2. reference: one pass at np=1 whose export bytes every later pass must
//      reproduce, and whose Executor::Run time is core.np1_s;
//   3. warm-up: one pass at np, discarded (the first parallel run after the
//      host sits idle runs up to 2x slow);
//   4. timed passes: N passes (default 40), or passes until T seconds have
//      gone by; these give the end-to-end metrics and most layer metrics;
//   5. traced passes (--trace 1, the default): N more passes (default 5)
//      with an obs::SpanRecorder and obs::MetricsRegistry attached and a
//      counting operator new armed; the last one writes DIR/W/trace.json.
// np = min(4, hardware threads). A pass of a cache workload is two
// processes, a cold leg on empty cache/checkpoint directories and a warm
// leg that re-runs over them; its times and CPU sum over both legs.
//
// The metric table is BENCHMARK.json at the repository root: bench_e2e
// emits only the metrics it declares, in the units it declares, and refuses
// to start when it declares one bench_e2e does not measure. Output: a table
// of every metric, DIR/BENCH_e2e_W.json (bench/bench_util.h JsonReport
// schema, for tools/dj_bench_diff), and as the last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// A pass fails on a nonzero exit or on export bytes that differ from the
// reference; any failure makes the exit code 1.
//
// --gate-flags W prints the dj_bench_diff flags that gate W's report on the
// declared directions and bounds (bench/e2e/compare.sh uses them).
//
// Internal: bench_e2e --pass ... is one measured process (see RunPass).

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "bench_util.h"
#include "common/string_util.h"
#include "common/swar.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "core/checkpoint.h"
#include "core/executor.h"
#include "core/recipe.h"
#include "data/io.h"
#include "json/parser.h"
#include "json/writer.h"
#include "lint/linter.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ops/registry.h"
#include "workload/generator.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using dj::json::Array;
using dj::json::Object;
using dj::json::Value;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  dj::workload::CorpusOptions corpus;  ///< seed is set per invocation
  const char* recipe;                  ///< relative to the repository root
  const char* output;  ///< export file name; its suffix picks the format
  /// Cache + checkpoint on: a pass is a cold leg on empty directories, then
  /// a warm leg in a new process over what the cold leg stored.
  bool cache = false;
};

// Each workload stresses different layers and bypasses others, so a change
// to one layer shows on one workload and should not move the rest (see
// README.md for the measured shares).
const std::vector<Workload>& Workloads() {
  using dj::workload::Style;
  static const std::vector<Workload> kWorkloads = {
      // Row-local OP plane: mapper and filter units are ~94% of a pass.
      {"web_en",
       {.style = Style::kWeb, .num_docs = 3000, .mean_words = 250,
        .exact_dup_rate = 0.05, .near_dup_rate = 0.05,
        .boilerplate_rate = 0.2, .spam_rate = 0.05, .noise_rate = 0.05,
        .foreign_rate = 0.05, .short_doc_rate = 0.05},
       "configs/recipes/pretrain_general_en.yaml", "out.jsonl"},
      // Dataset-level units: three dedups and nothing else.
      {"near_dup",
       {.style = Style::kBooks, .num_docs = 8000, .mean_words = 300,
        .exact_dup_rate = 0.15, .near_dup_rate = 0.25,
        .boilerplate_rate = 0.3},
       "configs/recipes/minimal_dedup.yaml", "out.jsonl"},
      // Data plane: JSONL import and DJDS + djlz export dominate.
      {"ingest_export",
       {.style = Style::kStackExchange, .num_docs = 20000},
       "bench/e2e/recipes/ingest_export.yaml", "out.djds.djlz"},
      // Cache/checkpoint write path (cold leg) beside its read path (warm).
      {"arxiv_cache",
       {.style = Style::kArxiv, .num_docs = 1250, .mean_words = 400,
        .exact_dup_rate = 0.1},
       "configs/recipes/pretrain_arxiv.yaml", "out.jsonl", /*cache=*/true},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// ------------------------------------------------------------ one pass leg

// Clock stamps of one pass, in call order. A JSONL export has no compress
// step, so its kEncode and kExport stamps are one clock read.
enum Stamp {
  kMain,    // first line of main(); spawn -> here is process start
  kRecipe,  // core::Recipe::FromFile
  kLint,    // lint::RecipeLinter::Lint
  kReady,   // core::BuildOps (+ executor and io-pool set-up)
  kRead,    // data::ReadFile
  kParse,   // data::ParseJsonl
  kRun,     // core::Executor::Run
  kEncode,  // data::ToJsonl or data::SerializeDataset
  kExport,  // compress::CompressFrame
  kWrite,   // data::WriteFile
  kNumStamps,
};

struct PassArgs {
  std::string workload;
  std::string root = ".";
  std::string work;
  std::string trace_out;
  int np = 1;
  int report_fd = -1;
  bool traced = false;
};

double SumSpans(const Value& trace, const std::string& name) {
  double micros = 0;
  const Value* events = trace.as_object().Find("traceEvents");
  if (events == nullptr || !events->is_array()) return 0;
  for (const Value& e : events->as_array()) {
    if (e.GetString("ph", "") == "X" && e.GetString("name", "") == name) {
      micros += e.GetDouble("dur", 0);
    }
  }
  return micros * 1e-6;
}

bool WriteAll(int fd, const std::string& text) {
  size_t done = 0;
  while (done < text.size()) {
    ssize_t n = write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

// One measured process: the dj_process call sequence on the workload's
// recipe, input and output, with a clock read between calls. Reports its
// stamps and RunReport as one JSON object on `report_fd`.
int RunPass(const PassArgs& args, int64_t main_ns) {
  if (args.traced) dj::bench::alloc::Arm();
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr || args.work.empty() || args.report_fd < 0) {
    std::fprintf(stderr, "bench_e2e --pass: bad arguments\n");
    return 2;
  }
  auto fail = [&](const char* step, const dj::Status& s) {
    std::fprintf(stderr, "bench_e2e %s pass: %s: %s\n", w->name, step,
                 s.ToString().c_str());
    return 1;
  };
  int64_t t[kNumStamps] = {};
  uint64_t allocs[kNumStamps] = {};
  auto mark = [&](Stamp s) {
    t[s] = NowNs();
    if (args.traced) allocs[s] = dj::bench::alloc::Count();
  };
  t[kMain] = main_ns;
  std::optional<dj::obs::MetricsRegistry> metrics;
  std::optional<dj::obs::SpanRecorder> spans;
  if (args.traced) {
    metrics.emplace();
    spans.emplace();
  }

  const std::string input = args.work + "/in.jsonl";
  const std::string output = args.work + "/" + w->output;
  auto recipe = dj::core::Recipe::FromFile(args.root + "/" + w->recipe);
  if (!recipe.ok()) return fail("recipe", recipe.status());
  dj::core::Recipe& r = recipe.value();
  r.dataset_path = input;
  r.export_path = output;
  r.num_workers = args.np;
  if (w->cache) {
    r.use_cache = true;
    r.cache_dir = args.work + "/cache";
    r.cache_compression = true;
    r.use_checkpoint = true;
    r.checkpoint_dir = args.work + "/ckpt";
  }
  mark(kRecipe);

  const dj::ops::OpRegistry& registry = dj::ops::OpRegistry::Global();
  dj::lint::LintReport lint = dj::lint::RecipeLinter(registry).Lint(r);
  if (!lint.ok()) {
    return fail("lint", dj::Status::InvalidArgument(lint.ToString()));
  }
  mark(kLint);

  auto ops = dj::core::BuildOps(r, registry);
  if (!ops.ok()) return fail("BuildOps", ops.status());
  dj::core::Executor::Options options =
      dj::core::Executor::OptionsFromRecipe(r);
  if (args.traced) {
    options.metrics = &*metrics;
    options.spans = &*spans;
    dj::obs::InstallGlobalRecorder(&*spans);
    dj::obs::InstallGlobalMetrics(&*metrics);
  }
  // As dj_process does for a run without --resume: a fresh checkpointed
  // run never continues from an older run's state.
  if (r.use_checkpoint) dj::core::CheckpointManager(r.checkpoint_dir).Clear();
  std::optional<dj::ThreadPool> io_pool;
  if (r.num_workers > 1) io_pool.emplace(static_cast<size_t>(r.num_workers));
  dj::ThreadPool* pool = io_pool ? &*io_pool : nullptr;
  mark(kReady);

  // data::ReadJsonl, split in two; the file buffer dies after the parse.
  std::optional<dj::data::Dataset> dataset;
  {
    auto content = dj::data::ReadFile(input);
    if (!content.ok()) return fail("ReadFile", content.status());
    mark(kRead);
    auto parsed = dj::data::ParseJsonl(content.value(), pool);
    if (!parsed.ok()) return fail("ParseJsonl", parsed.status());
    dataset.emplace(std::move(parsed).value());
  }
  mark(kParse);

  dj::core::Executor executor(options);
  dj::core::RunReport report;
  const double cpu_before = CpuSeconds();
  auto refined = executor.Run(std::move(*dataset), ops.value(), &report);
  const double cpu_run = CpuSeconds() - cpu_before;
  mark(kRun);
  if (!refined.ok()) return fail("Executor::Run", refined.status());

  // data::ExportDataset, split so each call is timed. The serialized blob
  // stays alive through the write, as in ExportDataset's full-expression.
  std::string encoded;
  std::string written;
  if (dj::EndsWith(output, ".djds.djlz")) {
    encoded = dj::data::SerializeDataset(refined.value(), pool);
    mark(kEncode);
    written = dj::compress::CompressFrame(encoded, pool);
    mark(kExport);
  } else {
    written = dj::data::ToJsonl(refined.value(), pool);
    mark(kEncode);
    t[kExport] = t[kEncode];
    allocs[kExport] = allocs[kEncode];
  }
  if (auto s = dj::data::WriteFile(output, written); !s.ok()) {
    return fail("WriteFile", s);
  }
  mark(kWrite);

  Object rep;
  Array stamps;
  for (int64_t stamp : t) stamps.emplace_back(stamp);
  rep.Set("stamps", Value(std::move(stamps)));
  rep.Set("cpu_run", Value(cpu_run));
  rep.Set("rows_in", Value(static_cast<uint64_t>(report.rows_in)));
  rep.Set("rows_out", Value(static_cast<uint64_t>(report.rows_out)));
  rep.Set("plan_swaps", Value(static_cast<uint64_t>(report.plan_swaps)));
  rep.Set("encoded_bytes",
          Value(static_cast<uint64_t>(encoded.empty() ? written.size()
                                                      : encoded.size())));
  rep.Set("written_bytes", Value(static_cast<uint64_t>(written.size())));
  Array units;
  for (const dj::core::OpReport& op : report.op_reports) {
    Object u;
    u.Set("name", Value(op.name));
    u.Set("kind", Value(op.kind));
    u.Set("rows_in", Value(static_cast<uint64_t>(op.rows_in)));
    u.Set("rows_out", Value(static_cast<uint64_t>(op.rows_out)));
    u.Set("seconds", Value(op.seconds));
    u.Set("cache_hit", Value(op.cache_hit));
    units.emplace_back(std::move(u));
  }
  rep.Set("units", Value(std::move(units)));

  if (args.traced) {
    dj::obs::InstallGlobalRecorder(nullptr);
    dj::obs::InstallGlobalMetrics(nullptr);
    rep.Set("allocs_total", Value(allocs[kWrite]));
    rep.Set("allocs_parse", Value(allocs[kParse] - allocs[kRead]));
    rep.Set("allocs_run", Value(allocs[kRun] - allocs[kParse]));
    rep.Set("allocs_export", Value(allocs[kExport] - allocs[kRun]));
    const dj::obs::Counter* stored =
        metrics->FindCounter("cache.store_bytes");
    rep.Set("cache_store_bytes", Value(stored ? stored->value() : 0));
    // The bench's own spans, one per timed call, beside the program's.
    const int64_t epoch_ns =
        NowNs() - static_cast<int64_t>(spans->NowMicros()) * 1000;
    static const char* const kLayerSpans[kNumStamps] = {
        "", "bench.recipe", "bench.lint", "bench.build_ops",
        "bench.read", "bench.parse", "bench.run", "bench.encode",
        "bench.compress", "bench.write"};
    for (int s = kRecipe; s < kNumStamps; ++s) {
      // The recorder starts just after kMain, so the first span is clipped.
      const int64_t begin = std::max(t[s - 1], epoch_ns);
      if (t[s] <= begin) continue;
      spans->EmitComplete(kLayerSpans[s], "bench",
                          static_cast<uint64_t>(begin - epoch_ns) / 1000,
                          static_cast<uint64_t>(t[s] - begin) / 1000);
    }
    Value trace = spans->ToJson();
    rep.Set("cache_store_s", Value(SumSpans(trace, "cache.store")));
    rep.Set("ckpt_save_s", Value(SumSpans(trace, "checkpoint.save")));
    rep.Set("cache_scan_s", Value(SumSpans(trace, "cache.scan")));
    if (!args.trace_out.empty()) {
      if (auto s = spans->WriteTo(args.trace_out); !s.ok()) {
        return fail("trace", s);
      }
    }
  }
  if (!WriteAll(args.report_fd, dj::json::Write(Value(std::move(rep))))) {
    std::fprintf(stderr, "bench_e2e %s pass: report write failed\n", w->name);
    return 1;
  }
  return 0;
}

// ------------------------------------------------------- metric declaration

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;
  double bound = 0;
  bool end_to_end = false;
};

// Every metric bench_e2e can measure, with its unit. `traced` metrics come
// from the traced passes; the rest from the timed passes (or the reference
// pass, for the exact counts).
struct KnownMetric {
  const char* name;
  const char* unit;
  bool traced;
};

constexpr KnownMetric kKnown[] = {
    {"throughput_mib_s", "MiB/s", false},
    {"wall_p75_s", "s", false},
    {"cpu_s_per_mib", "s/MiB", false},
    {"peak_rss_mib", "MiB", false},
    {"setup_s", "s", false},
    {"proc.start_s", "s", false},
    {"yaml.recipe_s", "s", false},
    {"lint.lint_s", "s", false},
    {"ops.build_s", "s", false},
    {"data.read_s", "s", false},
    {"data.parse_s", "s", false},
    {"core.run_s", "s", false},
    {"core.units_s", "s", false},
    {"core.other_s", "s", false},
    {"data.export_s", "s", false},
    {"data.write_s", "s", false},
    {"proc.residual_s", "s", false},
    {"core.mapper_docs_s", "docs/s", false},
    {"core.filter_docs_s", "docs/s", false},
    {"core.dedup_docs_s", "docs/s", false},
    {"compress.mib_s", "MiB/s", false},
    {"compress.ratio", "ratio", false},
    {"core.cpu_util", "ratio", false},
    {"core.np1_s", "s", false},
    {"core.speedup", "ratio", false},
    {"core.keep_ratio", "ratio", false},
    {"core.plan_swaps", "count", false},
    {"core.cache_store_docs_s", "docs/s", true},
    {"core.ckpt_save_docs_s", "docs/s", true},
    {"core.cache_load_docs_s", "docs/s", true},
    {"core.cache_bytes", "bytes", true},
    {"mem.allocs_per_doc", "allocs/doc", true},
    {"mem.parse_allocs_per_doc", "allocs/doc", true},
    {"mem.run_allocs_per_doc", "allocs/doc", true},
    {"mem.export_allocs_per_doc", "allocs/doc", true},
    {"obs.trace_overhead", "ratio", true},
};

// Plan units get one rate metric each: ops.<op_name>_docs_s, or
// ops.fused<k>_docs_s for the k-th fused filter group of the plan.
bool IsUnitMetric(const std::string& name) {
  return dj::StartsWith(name, "ops.") && dj::EndsWith(name, "_docs_s");
}

const KnownMetric* FindKnown(const std::string& name) {
  for (const KnownMetric& k : kKnown) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

// Host shape and run facts recorded beside the metrics in BENCH_e2e_W.json;
// never gated (compare.sh refuses to compare reports from different host
// shapes). WorkloadRun::Run fills them in this order.
constexpr const char* kEnvKeys[] = {
    "env.np",   "env.hardware_threads", "env.simd_level", "env.seed",
    "env.docs", "env.input_mib",        "env.passes"};

bool LoadSpec(const std::string& path, std::vector<MetricSpec>* out) {
  auto text = dj::data::ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", text.status().ToString().c_str());
    return false;
  }
  auto root = dj::json::ParseStrict(text.value());
  if (!root.ok() || !root.value().is_object()) {
    std::fprintf(stderr, "bench_e2e: %s: not a JSON object\n", path.c_str());
    return false;
  }
  for (const char* section : {"end_to_end", "per_layer"}) {
    const Value* list = root.value().as_object().Find(section);
    if (list == nullptr || !list->is_array()) {
      std::fprintf(stderr, "bench_e2e: %s: no %s list\n", path.c_str(),
                   section);
      return false;
    }
    for (const Value& m : list->as_array()) {
      MetricSpec spec;
      spec.name = m.GetString("name", "");
      spec.unit = m.GetString("unit", "");
      spec.better = m.GetString("better", "");
      spec.bound = m.GetDouble("bound", 0);
      spec.end_to_end = std::string(section) == "end_to_end";
      const KnownMetric* known = FindKnown(spec.name);
      const char* unit = known != nullptr           ? known->unit
                         : IsUnitMetric(spec.name) ? "docs/s"
                                                   : nullptr;
      if (unit == nullptr) {
        std::fprintf(stderr,
                     "bench_e2e: %s declares '%s', which bench_e2e does not "
                     "measure\n",
                     path.c_str(), spec.name.c_str());
        return false;
      }
      if (spec.unit != unit) {
        std::fprintf(stderr,
                     "bench_e2e: %s declares '%s' in %s; it is measured in "
                     "%s\n",
                     path.c_str(), spec.name.c_str(), spec.unit.c_str(),
                     unit);
        return false;
      }
      out->push_back(std::move(spec));
    }
  }
  return true;
}

// ------------------------------------------------------------- workload run

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int passes = 40;
  double seconds = 0;  ///< > 0: run passes until this much time has gone by
  bool trace = true;
  int traced_passes = 5;
  double scale = 1.0;
  std::string out = "bench_e2e_out";
  std::string root = ".";  ///< repository root; holds BENCHMARK.json
};

/// One process of a pass: wall (spawn -> reaped), CPU and peak RSS from
/// wait4, and the report the process wrote.
struct Leg {
  bool ok = false;
  int64_t spawn_ns = 0;
  int64_t exit_ns = 0;
  double cpu = 0;
  double rss_mib = 0;
  Value report;
};

std::string SelfExe() {
  std::error_code ec;
  fs::path p = fs::read_symlink("/proc/self/exe", ec);
  return ec ? std::string() : p.string();
}

Leg SpawnLeg(const std::string& exe, const std::vector<std::string>& args) {
  Leg leg;
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return leg;
  // The child finds the report pipe at fd 3. Moving the write end above 3
  // first guarantees the dup2 really happens and drops O_CLOEXEC.
  int write_fd = fcntl(fds[1], F_DUPFD_CLOEXEC, 10);
  close(fds[1]);
  if (write_fd < 0) {
    close(fds[0]);
    return leg;
  }
  std::vector<std::string> full = {exe, "--pass", "--report-fd", "3"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, write_fd, 3);
  pid_t pid = 0;
  leg.spawn_ns = NowNs();
  int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  close(write_fd);
  if (rc != 0) {
    close(fds[0]);
    std::fprintf(stderr, "bench_e2e: spawn failed: %s\n", std::strerror(rc));
    return leg;
  }
  std::string text;
  char buf[4096];
  for (;;) {
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  leg.exit_ns = NowNs();
  leg.cpu = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
            (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  leg.rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return leg;
  auto parsed = dj::json::ParseStrict(text);
  if (!parsed.ok() || !parsed.value().is_object()) return leg;
  leg.report = std::move(parsed).value();
  leg.ok = true;
  return leg;
}

/// Per-pass values keyed by metric name (times and CPU summed over legs).
using Sample = std::map<std::string, double>;

double At(const Leg& leg, Stamp s) {
  return leg.report.as_object().Find("stamps")->as_array()[s].as_double();
}

Sample Summarize(const std::vector<Leg>& legs, double docs, int np) {
  Sample m;
  std::map<std::string, double> unit_rows;
  std::map<std::string, double> unit_secs;
  double rows_stored = 0;
  double rows_loaded = 0;
  auto add = [&m](const char* key, double v) { m[key] += v; };
  auto span = [](const Leg& leg, Stamp from, Stamp to) {
    return (At(leg, to) - At(leg, from)) * 1e-9;
  };
  for (const Leg& leg : legs) {
    const Value& r = leg.report;
    const double wall = (leg.exit_ns - leg.spawn_ns) * 1e-9;
    add("wall", wall);
    add("cpu", leg.cpu);
    m["rss"] = std::max(m["rss"], leg.rss_mib);
    add("proc.start_s", (At(leg, kMain) - leg.spawn_ns) * 1e-9);
    add("setup_s", (At(leg, kReady) - leg.spawn_ns) * 1e-9);
    add("yaml.recipe_s", span(leg, kMain, kRecipe));
    add("lint.lint_s", span(leg, kRecipe, kLint));
    add("ops.build_s", span(leg, kLint, kReady));
    add("data.read_s", span(leg, kReady, kRead));
    add("data.parse_s", span(leg, kRead, kParse));
    add("core.run_s", span(leg, kParse, kRun));
    add("data.export_s", span(leg, kRun, kExport));
    add("compress_s", span(leg, kEncode, kExport));
    add("data.write_s", span(leg, kExport, kWrite));
    add("proc.residual_s", (leg.exit_ns - At(leg, kWrite)) * 1e-9);
    add("cpu_run", r.GetDouble("cpu_run", 0));
    add("encoded_bytes", r.GetDouble("encoded_bytes", 0));
    add("written_bytes", r.GetDouble("written_bytes", 0));
    size_t fused = 0;
    for (const Value& u : r.as_object().Find("units")->as_array()) {
      const std::string kind = u.GetString("kind", "");
      std::string unit = u.GetString("name", "");
      if (kind == "fused_filter") unit = "fused" + std::to_string(++fused);
      if (u.GetBool("cache_hit", false)) {
        rows_loaded = u.GetDouble("rows_out", 0);
        continue;
      }
      const double rows = u.GetDouble("rows_in", 0);
      const double secs = u.GetDouble("seconds", 0);
      rows_stored += u.GetDouble("rows_out", 0);
      add("core.units_s", secs);
      const std::string family = kind == "mapper"         ? "mapper"
                                 : kind == "deduplicator" ? "dedup"
                                                          : "filter";
      unit_rows["core." + family] += rows;
      unit_secs["core." + family] += secs;
      unit_rows["ops." + unit] += rows;
      unit_secs["ops." + unit] += secs;
    }
    if (r.as_object().Contains("allocs_total")) {
      add("allocs_total", r.GetDouble("allocs_total", 0));
      add("allocs_parse", r.GetDouble("allocs_parse", 0));
      add("allocs_run", r.GetDouble("allocs_run", 0));
      add("allocs_export", r.GetDouble("allocs_export", 0));
      add("cache_store_s", r.GetDouble("cache_store_s", 0));
      add("ckpt_save_s", r.GetDouble("ckpt_save_s", 0));
      add("cache_scan_s", r.GetDouble("cache_scan_s", 0));
      add("core.cache_bytes", r.GetDouble("cache_store_bytes", 0));
    }
  }
  auto rate = [](double work, double secs) {
    return secs > 0 ? work / secs : 0.0;
  };
  for (const auto& [unit, rows] : unit_rows) {
    m[unit + "_docs_s"] = rate(rows, unit_secs[unit]);
  }
  m["core.other_s"] = m["core.run_s"] - m["core.units_s"];
  m["core.cpu_util"] = rate(m["cpu_run"], m["core.run_s"] * np);
  m["compress.mib_s"] = rate(m["encoded_bytes"] / (1 << 20), m["compress_s"]);
  m["core.cache_store_docs_s"] = rate(rows_stored, m["cache_store_s"]);
  m["core.ckpt_save_docs_s"] = rate(rows_stored, m["ckpt_save_s"]);
  m["core.cache_load_docs_s"] = rate(rows_loaded, m["cache_scan_s"]);
  m["mem.allocs_per_doc"] = m["allocs_total"] / docs;
  m["mem.parse_allocs_per_doc"] = m["allocs_parse"] / docs;
  m["mem.run_allocs_per_doc"] = m["allocs_run"] / docs;
  m["mem.export_allocs_per_doc"] = m["allocs_export"] / docs;
  return m;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<Sample>& samples, const std::string& key) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    auto it = s.find(key);
    v.push_back(it == s.end() ? 0.0 : it->second);
  }
  return Quantile(std::move(v), 0.5);
}

struct Digest {
  uint64_t hash = 0;
  uint64_t size = 0;
  bool operator==(const Digest&) const = default;
};

std::optional<Digest> FileDigest(const std::string& path) {
  auto content = dj::data::ReadFile(path);
  if (!content.ok()) return std::nullopt;
  return Digest{dj::swar::Hash64(content.value()), content.value().size()};
}

int HardwareThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

// Writes the corpus from a forked child, so this process (and the passes it
// spawns) never hold the generator's copy.
bool GenerateCorpus(const Workload& w, const Options& opts,
                    const std::string& path) {
  dj::workload::CorpusOptions corpus = w.corpus;
  corpus.seed = opts.seed;
  corpus.num_docs = std::max<size_t>(
      1, static_cast<size_t>(std::llround(corpus.num_docs * opts.scale)));
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    dj::data::Dataset ds = dj::workload::CorpusGenerator(corpus).Generate();
    dj::Status s = dj::data::WriteFile(path, dj::data::ToJsonl(ds));
    if (!s.ok()) std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
    std::fflush(nullptr);
    _exit(s.ok() ? 0 : 1);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

class WorkloadRun {
 public:
  WorkloadRun(const Workload& w, const Options& opts, std::string exe)
      : w_(w), opts_(opts), exe_(std::move(exe)),
        work_(opts.out + "/" + w.name),
        output_(work_ + "/" + w.output),
        np_(std::min(4, HardwareThreads())) {}

  int Run(const std::vector<MetricSpec>& spec);

 private:
  /// Runs one pass (both legs for a cache workload) and checks every leg's
  /// export against the reference. Returns the legs, or nothing on failure.
  std::optional<std::vector<Leg>> Pass(const std::string& label, int np,
                                       bool traced, bool write_trace = false);

  const Workload& w_;
  const Options& opts_;
  const std::string exe_;
  const std::string work_;
  const std::string output_;
  const int np_;
  std::optional<Digest> reference_;
  int attempted_ = 0;
  int failed_ = 0;
};

std::optional<std::vector<Leg>> WorkloadRun::Pass(const std::string& label,
                                                  int np, bool traced,
                                                  bool write_trace) {
  std::error_code ec;
  if (w_.cache) {
    fs::remove_all(work_ + "/cache", ec);
    fs::remove_all(work_ + "/ckpt", ec);
  }
  std::vector<Leg> legs;
  const char* const kLegNames[] = {"cold", "warm"};
  for (int i = 0; i < (w_.cache ? 2 : 1); ++i) {
    const std::string leg_name = w_.cache ? kLegNames[i] : "only";
    std::vector<std::string> args = {"--workload", w_.name, "--root",
                                     opts_.root,  "--work", work_,
                                     "--np",      std::to_string(np)};
    if (traced) args.push_back("--traced");
    if (write_trace) {
      args.push_back("--trace-out");
      args.push_back(work_ + (w_.cache ? "/trace_" + leg_name : "/trace") +
                     ".json");
    }
    fs::remove(output_, ec);
    Leg leg = SpawnLeg(exe_, args);
    std::optional<Digest> digest =
        leg.ok ? FileDigest(output_) : std::nullopt;
    if (!reference_ && digest) reference_ = digest;
    if (!leg.ok || !digest || !(*digest == *reference_)) {
      std::fprintf(stderr,
                   "bench_e2e: %s %s pass, %s leg: %s\n", w_.name,
                   label.c_str(), leg_name.c_str(),
                   !leg.ok ? "process failed"
                           : !digest ? "no export written"
                                     : "export bytes differ from the np=1 "
                                       "reference");
      return std::nullopt;
    }
    legs.push_back(std::move(leg));
  }
  return legs;
}

int WorkloadRun::Run(const std::vector<MetricSpec>& spec) {
  std::error_code ec;
  fs::remove_all(work_, ec);
  fs::create_directories(work_, ec);
  const std::string input = work_ + "/in.jsonl";
  if (ec || !GenerateCorpus(w_, opts_, input)) {
    std::fprintf(stderr, "bench_e2e: %s: corpus generation failed\n",
                 w_.name);
    return 1;
  }
  const double input_mib =
      static_cast<double>(fs::file_size(input, ec)) / (1 << 20);

  auto reference = Pass("reference (np=1)", 1, false);
  if (!reference) return 1;
  const Sample ref = Summarize(*reference, 1, 1);
  const Value& ref_report = reference->front().report;
  const double docs = ref_report.GetDouble("rows_in", 0);
  if (docs <= 0) {
    std::fprintf(stderr, "bench_e2e: %s: empty corpus\n", w_.name);
    return 1;
  }

  std::vector<Sample> timed;
  std::vector<Sample> traced;
  auto record = [&](std::optional<std::vector<Leg>> legs,
                    std::vector<Sample>* into) {
    ++attempted_;
    if (!legs) {
      ++failed_;
      return;
    }
    if (into != nullptr) into->push_back(Summarize(*legs, docs, np_));
  };
  record(Pass("warm-up", np_, false), nullptr);
  const int64_t start = NowNs();
  for (int i = 0;; ++i) {
    if (opts_.seconds > 0) {
      constexpr int kMinPasses = 5;
      if (i >= kMinPasses && (NowNs() - start) * 1e-9 >= opts_.seconds) break;
    } else if (i >= opts_.passes) {
      break;
    }
    record(Pass("timed #" + std::to_string(i + 1), np_, false), &timed);
  }
  const int traced_passes = opts_.trace ? opts_.traced_passes : 0;
  for (int i = 0; i < traced_passes; ++i) {
    record(Pass("traced #" + std::to_string(i + 1), np_, true,
                /*write_trace=*/i + 1 == traced_passes),
           &traced);
  }
  if (timed.empty()) {
    std::fprintf(stderr, "bench_e2e: %s: no timed pass succeeded\n", w_.name);
    return 1;
  }

  // Every measurable value, by metric name.
  std::map<std::string, double> values;
  std::vector<double> walls;
  for (const Sample& s : timed) walls.push_back(s.at("wall"));
  const double wall = Quantile(walls, 0.5);
  values["throughput_mib_s"] = input_mib / wall;
  values["wall_p75_s"] = Quantile(walls, 0.75);
  values["cpu_s_per_mib"] = Median(timed, "cpu") / input_mib;
  values["peak_rss_mib"] = Median(timed, "rss");
  values["core.np1_s"] = ref.at("core.run_s");
  values["core.keep_ratio"] = ref_report.GetDouble("rows_out", 0) / docs;
  values["core.plan_swaps"] = ref_report.GetDouble("plan_swaps", 0);
  values["compress.ratio"] =
      ref.at("written_bytes") > 0
          ? ref.at("encoded_bytes") / ref.at("written_bytes")
          : 0;
  values["core.speedup"] = ref.at("core.run_s") / Median(timed, "core.run_s");
  if (!traced.empty()) {
    values["obs.trace_overhead"] = Median(traced, "wall") / wall - 1;
  }
  for (const MetricSpec& m : spec) {
    if (values.count(m.name)) continue;
    const KnownMetric* known = FindKnown(m.name);
    const bool from_traced = known != nullptr && known->traced;
    if (from_traced && traced.empty()) continue;
    values[m.name] = Median(from_traced ? traced : timed, m.name);
  }
  for (const auto& [key, value] : timed.front()) {
    if (IsUnitMetric(key) && !values.count(key)) {
      std::fprintf(stderr, "bench_e2e: %s: plan unit metric %s is not "
                   "declared in BENCHMARK.json; not reported\n",
                   w_.name, key.c_str());
    }
  }

  const double env[] = {
      static_cast<double>(np_),
      static_cast<double>(HardwareThreads()),
      static_cast<double>(dj::swar::ActiveLevel()),
      static_cast<double>(opts_.seed),
      docs,
      input_mib,
      static_cast<double>(timed.size()),
  };
  static_assert(std::size(env) == std::size(kEnvKeys));

  std::printf("\nbench_e2e %s: %.0f docs, %.2f MiB, np=%d, %zu timed + %zu "
              "traced passes, seed %llu\n",
              w_.name, docs, input_mib, np_, timed.size(), traced.size(),
              static_cast<unsigned long long>(opts_.seed));
  dj::bench::Table table({"metric", "value", "unit", "from"});
  dj::bench::JsonReport json(std::string("e2e_") + w_.name, "Fig. 8");
  std::string line;
  char buf[256];
  for (const MetricSpec& m : spec) {
    auto it = values.find(m.name);
    if (it == values.end()) continue;  // traced-only, and no traced passes
    const KnownMetric* known = FindKnown(m.name);
    table.Row({m.name, dj::bench::Fmt(it->second, 6), m.unit,
               m.end_to_end ? "end-to-end"
               : known != nullptr && known->traced ? "layer (traced)"
                                                   : "layer"});
    json.Add(m.name, it->second);
    if (m.end_to_end == !opts_.trace) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                    line.empty() ? "" : ", ", m.name.c_str(), it->second,
                    m.unit.c_str());
      line += buf;
    }
  }
  for (size_t i = 0; i < std::size(env); ++i) {
    table.Row({kEnvKeys[i], dj::bench::Fmt(env[i], 4), "", "env"});
    json.Add(kEnvKeys[i], env[i]);
  }
  table.Print();
  setenv("DJ_BENCH_JSON_DIR", opts_.out.c_str(), 1);
  json.Write();
  const bool correct = failed_ == 0;
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted_, failed_, line.c_str());
  return correct ? 0 : 1;
}

int PrintGateFlags(const std::vector<MetricSpec>& spec) {
  std::string flags;
  char buf[256];
  for (const MetricSpec& m : spec) {
    if (m.end_to_end) {
      std::snprintf(buf, sizeof(buf), " --metric %s=%s --tol %s=%g",
                    m.name.c_str(), m.better.c_str(), m.name.c_str(), m.bound);
    } else {
      std::snprintf(buf, sizeof(buf), " --metric %s=skip", m.name.c_str());
    }
    flags += buf;
  }
  for (const char* key : kEnvKeys) {
    flags += std::string(" --metric ") + key + "=skip";
  }
  std::printf("%s\n", flags.c_str() + 1);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload W [--seed S] "
               "[--passes N | --seconds T] [--trace 0|1] "
               "[--traced-passes N] [--scale X] [--out DIR] [--root DIR]\n"
               "       bench_e2e --gate-flags W [--root DIR]\n"
               "workloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t main_ns = NowNs();
  const bool pass = argc > 1 && std::string(argv[1]) == "--pass";
  PassArgs pass_args;
  Options opts;
  std::string gate_workload;
  for (int i = pass ? 2 : 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (pass && flag == "--traced") {
      pass_args.traced = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      opts.workload = pass_args.workload = value;
    } else if (flag == "--root") {
      opts.root = pass_args.root = value;
    } else if (pass && flag == "--work") {
      pass_args.work = value;
    } else if (pass && flag == "--np") {
      pass_args.np = std::max(1, std::atoi(value));
    } else if (pass && flag == "--report-fd") {
      pass_args.report_fd = std::atoi(value);
    } else if (pass && flag == "--trace-out") {
      pass_args.trace_out = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--passes") {
      opts.passes = std::max(1, std::atoi(value));
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opts.trace = std::atoi(value) != 0;
    } else if (flag == "--traced-passes") {
      opts.traced_passes = std::max(0, std::atoi(value));
    } else if (flag == "--scale") {
      opts.scale = std::atof(value);
    } else if (flag == "--out") {
      opts.out = value;
    } else if (flag == "--gate-flags") {
      gate_workload = value;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown flag %s\n", flag.c_str());
      return Usage();
    }
  }
  if (pass) return RunPass(pass_args, main_ns);

  const Workload* w =
      FindWorkload(gate_workload.empty() ? opts.workload : gate_workload);
  if (w == nullptr || opts.scale <= 0) return Usage();
  std::vector<MetricSpec> spec;
  if (!LoadSpec(opts.root + "/BENCHMARK.json", &spec)) return 2;
  if (!gate_workload.empty()) return PrintGateFlags(spec);
  const std::string exe = SelfExe();
  if (exe.empty()) {
    std::fprintf(stderr, "bench_e2e: cannot resolve /proc/self/exe\n");
    return 1;
  }
  return WorkloadRun(*w, opts, exe).Run(spec);
}
