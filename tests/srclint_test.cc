// srclint subsystem tests: the token scanner, the manifest model, the
// layering checks, and the full analyzer over in-memory fixture trees —
// plus a self-test that the analyzer parses (and passes) the real tree.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "srclint/analyzer.h"
#include "srclint/layering.h"
#include "srclint/manifest.h"
#include "srclint/source_scan.h"

namespace dj::srclint {
namespace {

// ------------------------------------------------------------- scanner --

TEST(SourceScanTest, ExtractsLiteralNamesByContext) {
  FileScan scan = ScanSource("src/x/a.cc", R"cc(
#include "common/mutex.h"
namespace dj {
void F(obs::SpanRecorder* rec, obs::MetricsRegistry* m) {
  if (DJ_FAULT("io.read.fail")) return;
  DJ_SCHED_POINT("pool.drain");
  DJ_OBS_SPAN("phase.compute");
  obs::Span span(rec, "executor.run", "executor");
  rec->EmitInstant("watchdog:stall", "watchdog", 1);
  rec->EmitCounter("rss_mib", 1.0, 2);
  m->GetCounter("executor.runs")->Increment();
  m->GetGauge("simd.kernel")->Set(1);
  m->GetHistogram("executor.unit_seconds")->Observe(0.5);
}
class T {
  Mutex mutex_{"T.mutex"};
};
}  // namespace dj
)cc");
  ASSERT_TRUE(scan.issues.empty()) << scan.issues.front().message;
  auto find = [&](RefKind kind) -> std::vector<std::string> {
    std::vector<std::string> out;
    for (const NameRef& n : scan.names) {
      if (n.kind == kind) out.push_back(n.name + (n.is_prefix ? "*" : ""));
    }
    return out;
  };
  EXPECT_EQ(find(RefKind::kFault), std::vector<std::string>{"io.read.fail"});
  EXPECT_EQ(find(RefKind::kSched), std::vector<std::string>{"pool.drain"});
  EXPECT_EQ(find(RefKind::kSpan),
            (std::vector<std::string>{"phase.compute", "executor.run"}));
  EXPECT_EQ(find(RefKind::kInstant),
            std::vector<std::string>{"watchdog:stall"});
  EXPECT_EQ(find(RefKind::kSeries), std::vector<std::string>{"rss_mib"});
  EXPECT_EQ(find(RefKind::kCounter),
            std::vector<std::string>{"executor.runs"});
  EXPECT_EQ(find(RefKind::kGauge), std::vector<std::string>{"simd.kernel"});
  EXPECT_EQ(find(RefKind::kHistogram),
            std::vector<std::string>{"executor.unit_seconds"});
  EXPECT_EQ(find(RefKind::kLock), std::vector<std::string>{"T.mutex"});
  ASSERT_EQ(scan.includes.size(), 1u);
  EXPECT_EQ(scan.includes[0].path, "common/mutex.h");
}

TEST(SourceScanTest, LiteralPlusExpressionIsAPrefix) {
  FileScan scan = ScanSource("src/x/a.cc", R"cc(
void F(obs::SpanRecorder* rec, const std::string& op) {
  obs::Span span(rec, "batch:" + op, "batch");
  rec->EmitInstant("fault:" + op, "fault", 1);
}
)cc");
  ASSERT_EQ(scan.names.size(), 2u);
  EXPECT_EQ(scan.names[0].name, "batch:");
  EXPECT_TRUE(scan.names[0].is_prefix);
  EXPECT_EQ(scan.names[1].name, "fault:");
  EXPECT_TRUE(scan.names[1].is_prefix);
}

TEST(SourceScanTest, DynamicHeadIsReportedNotGuessed) {
  FileScan scan = ScanSource("src/x/a.cc", R"cc(
void F(obs::MetricsRegistry* m, const std::string& prefix) {
  m->GetCounter(prefix + ".rows")->Add(1);
}
)cc");
  EXPECT_TRUE(scan.names.empty());
  ASSERT_EQ(scan.dynamic_names.size(), 1u);
  EXPECT_EQ(scan.dynamic_names[0].kind, RefKind::kCounter);
}

TEST(SourceScanTest, CommentsStringsAndPreprocessorAreInert) {
  FileScan scan = ScanSource("src/x/a.cc", R"cc(
// std::mutex in a comment is fine; DJ_FAULT("not.a.fault") too.
/* block comment: rand() */
#define HELPER(x) std::mutex x  // macro bodies are skipped
const char* kDoc = "uses std::mutex and time(nullptr) in a string";
)cc");
  EXPECT_TRUE(scan.banned.empty());
  EXPECT_TRUE(scan.names.empty());
  ASSERT_TRUE(scan.issues.empty());
}

TEST(SourceScanTest, BannedTokensAreFound) {
  FileScan scan = ScanSource("src/x/a.cc", R"cc(
#include <mutex>
void F() {
  std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  srand(time(nullptr));
  int r = rand();
  std::cerr << r;
  printf("%d", r);
}
)cc");
  std::vector<std::string> tokens;
  for (const BannedUse& b : scan.banned) tokens.push_back(b.token);
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "std::mutex"),
            tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "std::lock_guard"),
            tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "srand()"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "time(nullptr)"),
            tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "rand()"), tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "std::cerr"),
            tokens.end());
  EXPECT_NE(std::find(tokens.begin(), tokens.end(), "printf"), tokens.end());
}

TEST(SourceScanTest, MemberDefinitionsAreNotCallSites) {
  // Declaring EmitInstant / GetCounter / Register (or defining them with a
  // qualified name) must not count as instrumentation call sites.
  FileScan scan = ScanSource("src/obs/span.h", R"cc(
class SpanRecorder {
 public:
  void EmitInstant(std::string_view name, std::string_view cat, uint64_t ts);
};
void SpanRecorder::EmitInstant(std::string_view name, std::string_view cat,
                               uint64_t ts) {}
Counter* MetricsRegistry::GetCounter(std::string_view name) { return 0; }
void OpRegistry::Register(std::string name, OpFactory f) {}
OpSchema::OpSchema(std::string op_name, OpKind kind) {}
)cc");
  EXPECT_TRUE(scan.names.empty());
  EXPECT_TRUE(scan.dynamic_names.empty());
}

TEST(SourceScanTest, AnnotationsParse) {
  FileScan scan = ScanSource("src/x/a.cc", R"cc(
// srclint-allow-file(raw-mutex): bootstraps beneath dj::Mutex
// srclint-allow(raw-output until 2099-12-31): abort path
// srclint-declare(counter): io.*
// srclint-declare(span): executor.run
// srclint-allow(): missing check id
)cc");
  ASSERT_EQ(scan.allows.size(), 2u);
  EXPECT_TRUE(scan.allows[0].file_scope);
  EXPECT_EQ(scan.allows[0].check, "raw-mutex");
  EXPECT_FALSE(scan.allows[1].file_scope);
  EXPECT_EQ(scan.allows[1].check, "raw-output");
  EXPECT_EQ(scan.allows[1].expires, "2099-12-31");
  ASSERT_EQ(scan.declares.size(), 2u);
  EXPECT_EQ(scan.declares[0].kind, RefKind::kCounter);
  EXPECT_EQ(scan.declares[0].name, "io.");
  EXPECT_TRUE(scan.declares[0].is_prefix);
  EXPECT_EQ(scan.declares[1].name, "executor.run");
  EXPECT_FALSE(scan.declares[1].is_prefix);
  ASSERT_EQ(scan.issues.size(), 1u);  // the empty check id
}

TEST(SourceScanTest, OpSchemaLiteralsNameOps) {
  FileScan scan = ScanSource("src/ops/x.cc", R"cc(
const OpDeclaration& A::Declaration() {
  static const OpDeclaration d{
      OpSchema("alpha_op", OpKind::kFilter).Int("n", 1, 0, 9, "doc"),
      OpEffects().Reads("@text_key")};
  return d;
}
OpDeclaration b = Declare(OpSchema("beta_op", OpKind::kMapper));
OpSchema dynamic = OpSchema(name, OpKind::kMapper);
const char* NotAnOp() { return "gamma_op"; }
)cc");
  std::vector<std::string> ops;
  for (const NameRef& n : scan.names) {
    if (n.kind == RefKind::kOp) ops.push_back(n.name);
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"alpha_op", "beta_op"}));
  ASSERT_EQ(scan.dynamic_names.size(), 1u);
  EXPECT_EQ(scan.dynamic_names[0].kind, RefKind::kOp);
}

TEST(SourceScanTest, UnterminatedConstructsBecomeIssues) {
  EXPECT_FALSE(
      ScanSource("a.cc", "const char* x = \"oops\n").issues.empty());
  EXPECT_FALSE(ScanSource("a.cc", "/* never closed").issues.empty());
  EXPECT_FALSE(ScanSource("a.cc", "void f() {").issues.empty());
  EXPECT_FALSE(ScanSource("a.cc", "void f() }").issues.empty());
}

// ------------------------------------------------------------ manifest --

Manifest SampleManifest() {
  Manifest m;
  m.fault_points = {"io.write.fail", "io.read.fail"};
  m.sched_points = {"pool.drain"};
  m.lock_classes = {"T.mutex"};
  m.counters = {"executor.runs", "io.*"};
  m.gauges = {"simd.kernel"};
  m.histograms = {"io.*"};
  m.spans = {"unit:*", "executor.run"};
  m.instants = {"fault:*"};
  m.counter_series = {"rss_mib"};
  m.ops = {"beta_op", "alpha_op"};
  m.Normalize();
  return m;
}

TEST(ManifestTest, RoundTripIsByteIdentical) {
  Manifest m = SampleManifest();
  std::string text = m.ToText();
  Result<Manifest> parsed = Manifest::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToText(), text);
}

TEST(ManifestTest, NormalizeMakesInputOrderIrrelevant) {
  Manifest a = SampleManifest();
  Manifest b;
  b.fault_points = {"io.read.fail", "io.write.fail", "io.read.fail"};
  b.sched_points = {"pool.drain"};
  b.lock_classes = {"T.mutex"};
  b.counters = {"io.*", "executor.runs"};
  b.gauges = {"simd.kernel"};
  b.histograms = {"io.*"};
  b.spans = {"executor.run", "unit:*"};
  b.instants = {"fault:*"};
  b.counter_series = {"rss_mib"};
  b.ops = {"alpha_op", "beta_op", "alpha_op"};
  b.Normalize();
  EXPECT_EQ(a.ToText(), b.ToText());
}

TEST(ManifestTest, DiffReportsBothDirections) {
  Manifest tree = SampleManifest();
  Manifest committed = SampleManifest();
  committed.fault_points = {"io.read.fail"};        // write.fail missing
  committed.spans.push_back("cache.scan");          // extra committed span
  committed.ops = {"alpha_op"};                     // beta_op missing
  committed.Normalize();
  std::vector<std::string> diffs = tree.DiffAgainst(committed);
  auto has = [&](std::string_view needle) {
    for (const std::string& d : diffs) {
      if (d.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("'io.write.fail' is in the tree"));
  EXPECT_TRUE(has("'cache.scan' is in the committed manifest"));
  EXPECT_TRUE(has("op 'beta_op' is in the tree"));
}

TEST(ManifestTest, UnknownKeysAreRejected) {
  Manifest m = SampleManifest();
  std::string text = m.ToText();
  text.insert(text.rfind('}'), ", \"surprise\": []\n");
  EXPECT_FALSE(Manifest::FromText(text).ok());
}

TEST(ManifestTest, NameCoveredHonorsPrefixes) {
  std::vector<std::string> set = {"executor.run", "unit:*"};
  EXPECT_TRUE(NameCovered(set, "executor.run"));
  EXPECT_TRUE(NameCovered(set, "unit:text_length_filter"));
  EXPECT_FALSE(NameCovered(set, "executor.runs"));
  EXPECT_FALSE(NameCovered(set, "units"));
}

// ------------------------------------------------------------ layering --

TEST(LayeringTest, PolicyEdges) {
  const LayerPolicy& p = LayerPolicy::Default();
  EXPECT_TRUE(p.Allowed("core", "ops"));
  EXPECT_TRUE(p.Allowed("obs", "json"));
  EXPECT_TRUE(p.Allowed("obs", "obs"));
  EXPECT_FALSE(p.Allowed("obs", "ops"));
  EXPECT_FALSE(p.Allowed("common", "json"));
  EXPECT_FALSE(p.Allowed("json", "nonexistent"));
  EXPECT_TRUE(p.Knows("srclint"));
  EXPECT_FALSE(p.Knows("attic"));
}

TEST(LayeringTest, LayerExtraction) {
  EXPECT_EQ(LayerOfPath("src/obs/span.h"), "obs");
  EXPECT_EQ(LayerOfPath("src/ops/mappers/clean.cc"), "ops");
  EXPECT_EQ(LayerOfPath("tools/dj_lint.cc"), "");
  EXPECT_EQ(LayerOfInclude("obs/span.h"), "obs");
  EXPECT_EQ(LayerOfInclude("span.h"), "");
}

TEST(LayeringTest, CycleDetection) {
  std::vector<LayerEdge> edges = {
      {"a", "b", "src/a/x.h", 1, "b/y.h"},
      {"b", "c", "src/b/y.h", 1, "c/z.h"},
      {"c", "a", "src/c/z.h", 1, "a/x.h"},
      {"c", "d", "src/c/z.h", 2, "d/w.h"},
  };
  std::vector<std::string> cycles = FindLayerCycles(edges);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0].find("a -> b -> c -> a"), std::string::npos);
  edges.pop_back();
  edges.pop_back();  // drop c->a: now a DAG
  EXPECT_TRUE(FindLayerCycles(edges).empty());
}

// ------------------------------------------------------------ analyzer --

SourceTree TreeOf(std::vector<SourceFile> files) {
  SourceTree tree;
  tree.files = std::move(files);
  std::sort(tree.files.begin(), tree.files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  // Docs that cover nothing; tests that exercise doc coverage override.
  tree.has_robustness = true;
  tree.has_observability = true;
  return tree;
}

AnalyzeOptions NoManifestNoDocs() {
  AnalyzeOptions o;
  o.check_manifest = false;
  o.check_docs = false;
  return o;
}

std::vector<const Finding*> FindingsOf(const Report& report,
                                       std::string_view check) {
  std::vector<const Finding*> out;
  for (const Finding& f : report.findings) {
    if (f.check == check) out.push_back(&f);
  }
  return out;
}

TEST(AnalyzerTest, CleanTreeIsClean) {
  SourceTree tree = TreeOf({{"src/json/value.h",
                             "#include \"common/status.h\"\nint x;\n"}});
  Report report = Analyze(tree, NoManifestNoDocs());
  EXPECT_EQ(report.errors, 0) << report.findings.front().ToString();
  EXPECT_TRUE(report.Clean(true));
}

TEST(AnalyzerTest, IllegalEdgeAndCycleAreReported) {
  SourceTree tree = TreeOf({
      {"src/common/a.h", "#include \"json/b.h\"\n"},
      {"src/json/b.h", "#include \"common/a.h\"\n"},
  });
  Report report = Analyze(tree, NoManifestNoDocs());
  auto layering = FindingsOf(report, "layering");
  ASSERT_EQ(layering.size(), 1u);  // common->json; json->common is legal
  EXPECT_EQ(layering[0]->file, "src/common/a.h");
  EXPECT_EQ(layering[0]->line, 1);
  EXPECT_EQ(FindingsOf(report, "include-cycle").size(), 1u);
}

TEST(AnalyzerTest, BannedApiWithBuiltinAndInlineAllows) {
  const char* violating = "void F() { std::mutex mu; }\n";
  SourceTree tree = TreeOf({
      {"src/common/mutex.h", violating},    // built-in allowlist
      {"src/core/bad.cc", violating},       // plain violation
      {"src/core/waived.cc",
       "// srclint-allow(raw-mutex): interop with external pool\n"
       "void F() { std::mutex mu; }\n"},    // line allow covers next line
  });
  Report report = Analyze(tree, NoManifestNoDocs());
  auto raw = FindingsOf(report, "raw-mutex");
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0]->file, "src/core/bad.cc");
  EXPECT_TRUE(FindingsOf(report, "allow-unused").empty());
}

TEST(AnalyzerTest, AllowExpiryAndUnused) {
  SourceTree tree = TreeOf({
      {"src/core/expired.cc",
       "// srclint-allow(raw-mutex until 2020-01-01): lapsed\n"
       "void F() { std::mutex mu; }\n"},
      {"src/core/unused.cc",
       "// srclint-allow(raw-output): nothing here violates it\n"
       "int x;\n"},
  });
  AnalyzeOptions options = NoManifestNoDocs();
  options.today = "2021-06-01";
  Report report = Analyze(tree, options);
  EXPECT_EQ(FindingsOf(report, "allow-expired").size(), 1u);
  EXPECT_EQ(FindingsOf(report, "raw-mutex").size(), 1u);  // fires again
  auto unused = FindingsOf(report, "allow-unused");
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0]->file, "src/core/unused.cc");

  // Before the expiry date the same allow still suppresses.
  options.today = "2019-01-01";
  Report earlier = Analyze(tree, options);
  EXPECT_TRUE(FindingsOf(earlier, "allow-expired").empty());
  EXPECT_TRUE(FindingsOf(earlier, "raw-mutex").empty());
}

TEST(AnalyzerTest, DynamicNameNeedsADeclare) {
  const char* body =
      "void F(obs::MetricsRegistry* m, std::string p) {\n"
      "  m->GetCounter(p + \".rows\")->Add(1);\n"
      "}\n";
  SourceTree undeclared = TreeOf({{"src/data/io.cc", body}});
  Report bad = Analyze(undeclared, NoManifestNoDocs());
  EXPECT_EQ(FindingsOf(bad, "dynamic-name").size(), 1u);

  SourceTree declared = TreeOf({{"src/data/io.cc",
                                 std::string("// srclint-declare(counter): "
                                             "io.*\n") +
                                     body}});
  Report good = Analyze(declared, NoManifestNoDocs());
  EXPECT_TRUE(FindingsOf(good, "dynamic-name").empty());
  EXPECT_EQ(good.manifest.counters, std::vector<std::string>{"io.*"});
}

TEST(AnalyzerTest, OpSchemaNamesFillTheManifest) {
  SourceTree tree = TreeOf({
      {"src/ops/a.cc",
       "OpDeclaration a{OpSchema(\"zeta_op\", OpKind::kMapper), {}};\n"
       "OpDeclaration b{OpSchema(\"alpha_op\", OpKind::kFilter), {}};\n"},
      {"src/ops/b.cc",
       "OpSchema Make(std::string n) { return OpSchema(n, k); }\n"},
  });
  Report report = Analyze(tree, NoManifestNoDocs());
  EXPECT_EQ(report.manifest.ops,
            (std::vector<std::string>{"alpha_op", "zeta_op"}));
  auto dynamic = FindingsOf(report, "dynamic-name");
  ASSERT_EQ(dynamic.size(), 1u);
  EXPECT_EQ(dynamic[0]->file, "src/ops/b.cc");
}

TEST(AnalyzerTest, ManifestDriftAndRoundTrip) {
  SourceTree tree = TreeOf(
      {{"src/core/a.cc", "void F() { if (DJ_FAULT(\"exec.x\")) return; }\n"}});
  AnalyzeOptions options;
  options.check_docs = false;
  options.check_manifest = true;

  // No committed manifest at all.
  Report missing = Analyze(tree, options);
  EXPECT_FALSE(FindingsOf(missing, "manifest-drift").empty());

  // Committing exactly what the tree computes makes the drift check pass —
  // and proves regeneration is deterministic.
  tree.has_manifest = true;
  tree.manifest_text = missing.manifest.ToText();
  Report clean = Analyze(tree, options);
  EXPECT_TRUE(FindingsOf(clean, "manifest-drift").empty())
      << FindingsOf(clean, "manifest-drift").front()->ToString();
  EXPECT_EQ(clean.manifest.ToText(), tree.manifest_text);

  // A stale manifest drifts with a per-entry message.
  Manifest stale = missing.manifest;
  stale.fault_points = {"exec.retired"};
  tree.manifest_text = stale.ToText();
  Report drifted = Analyze(tree, options);
  auto drift = FindingsOf(drifted, "manifest-drift");
  ASSERT_EQ(drift.size(), 2u);  // exec.x missing + exec.retired stale
}

TEST(AnalyzerTest, DocCoverage) {
  SourceTree tree = TreeOf(
      {{"src/core/a.cc",
        "void F(obs::MetricsRegistry* m) {\n"
        "  if (DJ_FAULT(\"exec.documented\")) return;\n"
        "  if (DJ_FAULT(\"exec.undocumented\")) return;\n"
        "  m->GetCounter(\"covered.hits\")->Increment();\n"
        "  m->GetGauge(\"orphan.level\")->Set(1);\n"
        "}\n"}});
  tree.robustness_doc = "| `exec.documented` | core | boom |\n";
  tree.observability_doc = "| `covered.hits` | counter | hits |\n";
  AnalyzeOptions options;
  options.check_manifest = false;
  Report report = Analyze(tree, options);
  auto fault = FindingsOf(report, "doc-fault");
  auto metric = FindingsOf(report, "doc-metric");
  ASSERT_EQ(fault.size(), 1u);
  EXPECT_NE(fault[0]->message.find("exec.undocumented"), std::string::npos);
  ASSERT_EQ(metric.size(), 1u);
  EXPECT_NE(metric[0]->message.find("orphan"), std::string::npos);
}

TEST(AnalyzerTest, ReportJsonShape) {
  SourceTree tree =
      TreeOf({{"src/core/bad.cc", "void F() { std::mutex mu; }\n"}});
  Report report = Analyze(tree, NoManifestNoDocs());
  json::Value body = report.ToJson();
  ASSERT_TRUE(body.is_object());
  const json::Value* findings = body.as_object().Find("findings");
  ASSERT_TRUE(findings != nullptr && findings->is_array());
  ASSERT_EQ(findings->as_array().size(), 1u);
  const json::Value& f = findings->as_array()[0];
  EXPECT_EQ(f.GetString("check", ""), "raw-mutex");
  EXPECT_EQ(f.GetString("severity", ""), "error");
  EXPECT_EQ(f.GetString("file", ""), "src/core/bad.cc");
  EXPECT_EQ(body.GetInt("errors", -1), 1);
}

// ------------------------------------------------- real-tree self-test --

#ifdef DJ_REPO_DIR
TEST(RealTreeTest, EverySourceFileParses) {
  Result<SourceTree> tree = LoadSourceTree(DJ_REPO_DIR);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_GT(tree.value().files.size(), 100u);
  for (const SourceFile& file : tree.value().files) {
    FileScan scan = ScanSource(file.path, file.content);
    EXPECT_TRUE(scan.issues.empty())
        << file.path << ":" << scan.issues.front().line << ": "
        << scan.issues.front().message;
  }
}

TEST(RealTreeTest, TreeIsCleanAndManifestIsCurrent) {
  Result<SourceTree> tree = LoadSourceTree(DJ_REPO_DIR);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  AnalyzeOptions options;  // expiry off: results don't depend on the clock
  Report report = Analyze(tree.value(), options);
  for (const Finding& f : report.findings) {
    EXPECT_NE(f.severity, Severity::kError) << f.ToString();
  }
  // Regeneration determinism: analyzing the same tree twice yields the
  // same bytes, and those bytes are what is committed.
  Report again = Analyze(tree.value(), options);
  EXPECT_EQ(report.manifest.ToText(), again.manifest.ToText());
  ASSERT_TRUE(tree.value().has_manifest);
  EXPECT_EQ(report.manifest.ToText(), tree.value().manifest_text);
}
#endif  // DJ_REPO_DIR

}  // namespace
}  // namespace dj::srclint
