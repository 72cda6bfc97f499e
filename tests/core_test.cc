#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/swar.h"
#include "compress/djlz.h"
#include "core/cache_manager.h"
#include "core/checkpoint.h"
#include "core/executor.h"
#include "core/fusion.h"
#include "core/plan_verify.h"
#include "core/recipe.h"
#include "core/space_model.h"
#include "core/tracer.h"
#include "data/io.h"
#include "fault/fault.h"
#include "json/parser.h"
#include "json/writer.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ops/registry.h"
#include "workload/generator.h"

namespace dj::core {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/dj_core_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Recipe MustRecipe(std::string_view text) {
  auto r = Recipe::FromString(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : Recipe{};
}

std::vector<std::unique_ptr<ops::Op>> MustBuildOps(const Recipe& recipe) {
  auto ops = BuildOps(recipe, ops::OpRegistry::Global());
  EXPECT_TRUE(ops.ok()) << ops.status().ToString();
  return ops.ok() ? std::move(ops).value()
                  : std::vector<std::unique_ptr<ops::Op>>{};
}

constexpr std::string_view kBasicRecipe = R"(
project_name: test-recipe
np: 1
process:
  - whitespace_normalization_mapper:
  - text_length_filter:
      min: 10
  - document_exact_deduplicator:
)";

// ------------------------------------------------------------- recipe ----

TEST(RecipeTest, ParsesYaml) {
  Recipe r = MustRecipe(kBasicRecipe);
  EXPECT_EQ(r.project_name, "test-recipe");
  EXPECT_EQ(r.num_workers, 1);
  ASSERT_EQ(r.process.size(), 3u);
  EXPECT_EQ(r.process[0].name, "whitespace_normalization_mapper");
  EXPECT_EQ(r.process[1].params.GetInt("min", 0), 10);
}

TEST(RecipeTest, ParsesJson) {
  Recipe r = MustRecipe(
      R"({"project_name": "j", "np": 2,
          "process": [{"text_length_filter": {"min": 5}}]})");
  EXPECT_EQ(r.project_name, "j");
  EXPECT_EQ(r.num_workers, 2);
  EXPECT_EQ(r.process[0].name, "text_length_filter");
}

TEST(RecipeTest, BareOpNamesAllowed) {
  Recipe r = MustRecipe(
      R"({"process": ["lower_case_mapper", {"text_length_filter": {}}]})");
  EXPECT_EQ(r.process[0].name, "lower_case_mapper");
}

TEST(RecipeTest, RejectsBadShapes) {
  EXPECT_FALSE(Recipe::FromString("process: 7\n").ok());
  EXPECT_FALSE(
      Recipe::FromString(R"({"process": [{"a": {}, "b": {}}]})").ok());
  EXPECT_FALSE(Recipe::FromString(R"({"np": 0})").ok());
  EXPECT_FALSE(Recipe::FromString("- top level list\n").ok());
}

TEST(RecipeTest, ExtrasPreserved) {
  Recipe r = MustRecipe("custom_key: 42\n");
  EXPECT_EQ(r.extras.GetInt("custom_key", 0), 42);
  EXPECT_EQ(r.ToJson().GetInt("custom_key", 0), 42);
}

TEST(RecipeTest, RoundTripThroughJson) {
  Recipe r = MustRecipe(kBasicRecipe);
  auto back = Recipe::FromJson(r.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().process.size(), r.process.size());
  EXPECT_EQ(back.value().project_name, r.project_name);
}

TEST(RecipeTest, FromFileYamlAndJson) {
  std::string dir = TempDir("recipe");
  ASSERT_TRUE(data::WriteFile(dir + "/r.yaml", std::string(kBasicRecipe)).ok());
  auto r = Recipe::FromFile(dir + "/r.yaml");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().process.size(), 3u);
  EXPECT_FALSE(Recipe::FromFile(dir + "/missing.yaml").ok());
}

TEST(RecipeTest, OpReorderDefaultsToFusionFlag) {
  EXPECT_TRUE(MustRecipe("op_fusion: true\n").op_reorder);
  EXPECT_FALSE(MustRecipe("op_fusion: false\n").op_reorder);
}

// ----------------------------------------------------------- BuildOps ----

TEST(BuildOpsTest, RejectsUnknownAndFormatterOps) {
  Recipe bad = MustRecipe(R"({"process": [{"mystery_op": {}}]})");
  EXPECT_FALSE(BuildOps(bad, ops::OpRegistry::Global()).ok());
  Recipe fmt = MustRecipe(R"({"process": [{"jsonl_formatter": {}}]})");
  EXPECT_FALSE(BuildOps(fmt, ops::OpRegistry::Global()).ok());
}

// ------------------------------------------------------------- fusion ----

std::vector<std::unique_ptr<ops::Op>> FourteenOpPipeline() {
  // The Fig. 9 recipe shape: 5 Mappers, 8 Filters, 1 Deduplicator.
  Recipe r = MustRecipe(R"(
process:
  - whitespace_normalization_mapper:
  - fix_unicode_mapper:
  - punctuation_normalization_mapper:
  - remove_long_words_mapper:
  - clean_links_mapper:
  - text_length_filter:
      min: 1
  - word_num_filter:
      min: 1
  - stopwords_filter:
      min: 0.01
  - flagged_words_filter:
      max: 0.2
  - word_repetition_filter:
      max: 0.9
  - alphanumeric_filter:
      min: 0.1
  - average_line_length_filter:
      min: 1
  - special_characters_filter:
      max: 0.6
  - document_exact_deduplicator:
)");
  return MustBuildOps(r);
}

TEST(FusionTest, DisabledPlanIsOneUnitPerOp) {
  auto ops = FourteenOpPipeline();
  auto plan = PlanFusion(ops, {false, false});
  EXPECT_EQ(plan.size(), ops.size());
  for (const auto& unit : plan) EXPECT_FALSE(unit.is_fused());
}

TEST(FusionTest, FusesContextSharingFilters) {
  auto ops = FourteenOpPipeline();
  auto plan = PlanFusion(ops, {true, true});
  // 5 context-using filters (word_num, stopwords, flagged_words,
  // word_repetition, average_line_length) fuse into one unit.
  size_t fused_units = 0, fused_members = 0;
  for (const auto& unit : plan) {
    if (unit.is_fused()) {
      ++fused_units;
      fused_members += unit.fused.size();
    }
  }
  EXPECT_EQ(fused_units, 1u);
  EXPECT_EQ(fused_members, 5u);
  EXPECT_EQ(plan.size(), ops.size() - fused_members + fused_units);
}

TEST(FusionTest, FusedUnitPlacedLastInFilterRun) {
  auto ops = FourteenOpPipeline();
  auto plan = PlanFusion(ops, {true, true});
  // Between the last mapper and the dedup, the fused unit must be last.
  size_t fused_index = 0, dedup_index = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].is_fused()) fused_index = i;
    if (!plan[i].is_fused() &&
        plan[i].op->kind() == ops::OpKind::kDeduplicator) {
      dedup_index = i;
    }
  }
  EXPECT_EQ(fused_index + 1, dedup_index);
}

TEST(FusionTest, ReorderSortsByCost) {
  Recipe r = MustRecipe(R"(
process:
  - perplexity_filter:
      max_ppl: 100000
  - text_length_filter:
      min: 1
)");
  auto ops = MustBuildOps(r);
  auto plan = PlanFusion(ops, {false, true});
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].op->name(), "text_length_filter");  // cheap first
  EXPECT_EQ(plan[1].op->name(), "perplexity_filter");
}

TEST(FusionTest, MapperBreaksFilterGroup) {
  Recipe r = MustRecipe(R"(
process:
  - word_num_filter:
      min: 1
  - lower_case_mapper:
  - stopwords_filter:
      min: 0.0
)");
  auto ops = MustBuildOps(r);
  auto plan = PlanFusion(ops, {true, true});
  EXPECT_EQ(plan.size(), 3u);  // nothing fuses across the mapper barrier
}

TEST(FusionTest, DifferentTextKeysDoNotFuse) {
  Recipe r = MustRecipe(R"(
process:
  - word_num_filter:
      min: 1
      text_key: text.a
  - stopwords_filter:
      min: 0.0
      text_key: text.b
)");
  auto ops = MustBuildOps(r);
  auto plan = PlanFusion(ops, {true, true});
  EXPECT_EQ(plan.size(), 2u);
}

TEST(FusionTest, DisplayNameAndCost) {
  auto ops = FourteenOpPipeline();
  auto plan = PlanFusion(ops, {true, true});
  for (const auto& unit : plan) {
    if (unit.is_fused()) {
      EXPECT_NE(unit.DisplayName().find("fused("), std::string::npos);
      EXPECT_GT(unit.CostEstimate(), 1.0);
    }
  }
}

// ------------------------------------------------------------- tracer ----

TEST(TracerTest, RecordsAndLimits) {
  Tracer tracer(2);
  for (size_t i = 0; i < 5; ++i) {
    tracer.RecordEdit("m", i, "before", "after");
    tracer.RecordFiltered("f", i, "text", "{}");
    tracer.RecordDuplicate("d", "kept", "removed", 1.0);
  }
  EXPECT_EQ(tracer.edits().size(), 2u);
  EXPECT_EQ(tracer.filtered().size(), 2u);
  EXPECT_EQ(tracer.duplicates().size(), 2u);
  auto totals = tracer.Totals();
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0].edited, 5u);
  EXPECT_EQ(totals[1].filtered, 5u);
  EXPECT_EQ(totals[2].duplicates, 5u);
  EXPECT_NE(tracer.Summary().find("m"), std::string::npos);
}

TEST(TracerTest, WritesJsonlFiles) {
  Tracer tracer(10);
  tracer.RecordEdit("m", 0, "a", "b");
  std::string dir = TempDir("tracer");
  ASSERT_TRUE(tracer.WriteTo(dir).ok());
  auto content = data::ReadFile(dir + "/trace-mapper.jsonl");
  ASSERT_TRUE(content.ok());
  EXPECT_NE(content.value().find("\"before\":\"a\""), std::string::npos);
}

// ----------------------------------------------------------- executor ----

data::Dataset NoisyCorpus(size_t docs = 60) {
  workload::CorpusOptions options;
  options.style = workload::Style::kCrawl;
  options.num_docs = docs;
  options.exact_dup_rate = 0.2;
  options.spam_rate = 0.4;
  options.short_doc_rate = 0.15;  // short docs exercise the filters
  options.seed = 21;
  return workload::CorpusGenerator(options).Generate();
}

TEST(ExecutorTest, EndToEndPipelineShrinksNoisyData) {
  auto ops = FourteenOpPipeline();
  Executor executor(Executor::Options{});
  RunReport report;
  auto result = executor.Run(NoisyCorpus(), ops, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result.value().NumRows(), report.rows_in);
  EXPECT_GT(result.value().NumRows(), 0u);
  EXPECT_EQ(report.rows_out, result.value().NumRows());
  EXPECT_EQ(report.op_reports.size(), ops.size());
  EXPECT_NE(report.ToString().find("total:"), std::string::npos);
  // Neither cache nor checkpoints: nothing persisted, no persist line.
  EXPECT_EQ(report.persist_seconds, 0.0);
  EXPECT_EQ(report.ToString().find("persist:"), std::string::npos);
}

TEST(ExecutorTest, FusionPreservesResults) {
  auto ops1 = FourteenOpPipeline();
  auto ops2 = FourteenOpPipeline();
  Executor plain(Executor::Options{});
  Executor::Options fused_options;
  fused_options.op_fusion = true;
  fused_options.op_reorder = true;
  Executor fused(fused_options);
  auto r1 = plain.Run(NoisyCorpus(), ops1, nullptr);
  auto r2 = fused.Run(NoisyCorpus(), ops2, nullptr);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1.value().NumRows(), r2.value().NumRows());
  for (size_t i = 0; i < r1.value().NumRows(); ++i) {
    EXPECT_EQ(r1.value().GetTextAt(i), r2.value().GetTextAt(i));
  }
}

TEST(ExecutorTest, FusionReducesContextComputations) {
  auto run = [](bool fusion) {
    auto ops = FourteenOpPipeline();
    Executor::Options options;
    options.op_fusion = fusion;
    options.op_reorder = fusion;
    Executor executor(options);
    ops::SampleContext::Counters::Reset();
    auto r = executor.Run(NoisyCorpus(), ops, nullptr);
    EXPECT_TRUE(r.ok());
    return ops::SampleContext::Counters::Total();
  };
  uint64_t without = run(false);
  uint64_t with = run(true);
  EXPECT_LT(with, without);
}

TEST(ExecutorTest, ParallelWorkersSameResult) {
  auto ops1 = FourteenOpPipeline();
  auto ops2 = FourteenOpPipeline();
  Executor seq(Executor::Options{});
  Executor::Options par_options;
  par_options.num_workers = 4;
  Executor par(par_options);
  auto r1 = seq.Run(NoisyCorpus(), ops1, nullptr);
  auto r2 = par.Run(NoisyCorpus(), ops2, nullptr);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().NumRows(), r2.value().NumRows());
}

TEST(ExecutorTest, TracerSeesAllThreeKinds) {
  auto ops = FourteenOpPipeline();
  Tracer tracer(5);
  Executor::Options options;
  options.tracer = &tracer;
  Executor executor(options);
  ASSERT_TRUE(executor.Run(NoisyCorpus(), ops, nullptr).ok());
  EXPECT_FALSE(tracer.edits().empty());
  EXPECT_FALSE(tracer.filtered().empty());
  EXPECT_FALSE(tracer.duplicates().empty());
}

TEST(ExecutorTest, MetricsAndSpansRecorded) {
  auto ops = FourteenOpPipeline();
  obs::MetricsRegistry metrics;
  obs::SpanRecorder spans;
  Executor::Options options;
  options.metrics = &metrics;
  options.spans = &spans;
  Executor executor(options);
  RunReport report;
  ASSERT_TRUE(executor.Run(NoisyCorpus(), ops, &report).ok());

  EXPECT_EQ(metrics.FindCounter("executor.runs")->value(), 1u);
  EXPECT_EQ(metrics.FindCounter("executor.rows_in")->value(), report.rows_in);
  EXPECT_EQ(metrics.FindCounter("executor.rows_out")->value(),
            report.rows_out);
  // Every OP reported its row counters and unit time.
  for (const OpReport& r : report.op_reports) {
    const obs::Counter* rows_in =
        metrics.FindCounter("op." + r.name + ".rows_in");
    ASSERT_NE(rows_in, nullptr) << r.name;
    EXPECT_EQ(rows_in->value(), r.rows_in);
  }
  const obs::Histogram* unit_seconds =
      metrics.FindHistogram("executor.unit_seconds");
  ASSERT_NE(unit_seconds, nullptr);
  EXPECT_EQ(unit_seconds->count(), report.op_reports.size());
  // The trace covers the run plus one span per unit (and batch sections).
  EXPECT_GE(spans.EventCount(), 1 + report.op_reports.size());
  std::string trace = json::Write(spans.ToJson());
  EXPECT_NE(trace.find("executor.run"), std::string::npos);
  EXPECT_NE(trace.find("unit:"), std::string::npos);
}

TEST(ExecutorTest, CacheCountersPopulated) {
  std::string dir = TempDir("cache_metrics");
  auto run = [&](obs::MetricsRegistry* metrics) {
    auto ops = FourteenOpPipeline();
    Executor::Options options;
    options.use_cache = true;
    options.cache_dir = dir;
    options.dataset_source_id = "corpus-v1";
    options.metrics = metrics;
    Executor executor(options);
    RunReport report;
    auto r = executor.Run(NoisyCorpus(), ops, &report);
    ASSERT_TRUE(r.ok());
  };
  obs::MetricsRegistry cold, warm;
  run(&cold);
  EXPECT_GT(cold.FindCounter("cache.miss")->value(), 0u);
  EXPECT_GT(cold.FindCounter("cache.stores")->value(), 0u);
  EXPECT_EQ(cold.FindCounter("cache.hit"), nullptr);
  run(&warm);
  EXPECT_GT(warm.FindCounter("cache.hit")->value(), 0u);
  EXPECT_GT(warm.FindCounter("cache.load_bytes")->value(), 0u);
}

TEST(ExecutorTest, OptionsFromRecipe) {
  Recipe r = MustRecipe(
      "np: 3\nop_fusion: true\nuse_cache: true\ncache_dir: /tmp/x\n"
      "dataset_path: data.jsonl\n");
  Executor::Options options = Executor::OptionsFromRecipe(r);
  EXPECT_EQ(options.num_workers, 3);
  EXPECT_TRUE(options.op_fusion);
  EXPECT_TRUE(options.use_cache);
  EXPECT_EQ(options.dataset_source_id, "data.jsonl");
}

// -------------------------------------------------------------- cache ----

TEST(CacheManagerTest, StoreLoadEvict) {
  CacheManager cache(TempDir("cache1"), /*compression=*/false);
  data::Dataset ds = data::Dataset::FromTexts({"cached row"});
  uint64_t key = CacheManager::InitialKey("src");
  EXPECT_FALSE(cache.Contains(key));
  ASSERT_TRUE(cache.Store(key, data::SerializeDataset(ds)).ok());
  EXPECT_TRUE(cache.Contains(key));
  auto loaded = cache.Load(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().GetTextAt(0), "cached row");
  cache.Evict(key);
  EXPECT_FALSE(cache.Contains(key));
}

TEST(CacheManagerTest, CompressionShrinksFiles) {
  std::string dir_raw = TempDir("cache_raw");
  std::string dir_zip = TempDir("cache_zip");
  CacheManager raw(dir_raw, false);
  CacheManager zip(dir_zip, true);
  std::vector<std::string> texts;
  for (int i = 0; i < 50; ++i) {
    texts.push_back("the same repetitive cached content line number " +
                    std::to_string(i));
  }
  data::Dataset ds = data::Dataset::FromTexts(texts);
  uint64_t key = 42;
  const std::string djds = data::SerializeDataset(ds);
  ASSERT_TRUE(raw.Store(key, djds).ok());
  ASSERT_TRUE(zip.Store(key, djds).ok());
  EXPECT_LT(zip.TotalBytes(), raw.TotalBytes());
  auto loaded = zip.Load(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().NumRows(), 50u);
}

TEST(CacheManagerTest, KeyChangesWithConfig) {
  json::Value c1 = json::Parse(R"({"min": 1})").value();
  json::Value c2 = json::Parse(R"({"min": 2})").value();
  uint64_t base = CacheManager::InitialKey("src");
  EXPECT_NE(CacheManager::ExtendKey(base, "f", c1),
            CacheManager::ExtendKey(base, "f", c2));
  EXPECT_NE(CacheManager::ExtendKey(base, "f", c1),
            CacheManager::ExtendKey(base, "g", c1));
  EXPECT_EQ(CacheManager::ExtendKey(base, "f", c1),
            CacheManager::ExtendKey(base, "f", c1));
}

TEST(ExecutorTest, CacheHitSkipsWork) {
  std::string dir = TempDir("cache_exec");
  auto make_options = [&] {
    Executor::Options options;
    options.use_cache = true;
    options.cache_dir = dir;
    options.dataset_source_id = "corpus-v1";
    return options;
  };
  auto ops1 = FourteenOpPipeline();
  Executor first(make_options());
  RunReport report1;
  auto r1 = first.Run(NoisyCorpus(), ops1, &report1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(report1.cache_hits, 0u);

  auto ops2 = FourteenOpPipeline();
  Executor second(make_options());
  RunReport report2;
  auto r2 = second.Run(NoisyCorpus(), ops2, &report2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(report2.cache_hits, ops2.size());
  EXPECT_EQ(r1.value().NumRows(), r2.value().NumRows());
}

TEST(ExecutorTest, ConfigChangeInvalidatesSuffixOnly) {
  std::string dir = TempDir("cache_invalidate");
  auto options = [&] {
    Executor::Options o;
    o.use_cache = true;
    o.cache_dir = dir;
    o.dataset_source_id = "corpus-v1";
    return o;
  };
  Recipe r1 = MustRecipe(R"(
process:
  - whitespace_normalization_mapper:
  - text_length_filter:
      min: 10
)");
  auto ops1 = MustBuildOps(r1);
  Executor e1(options());
  ASSERT_TRUE(e1.Run(NoisyCorpus(), ops1, nullptr).ok());

  // Change only the filter's threshold: the mapper's cache entry stays hot.
  Recipe r2 = MustRecipe(R"(
process:
  - whitespace_normalization_mapper:
  - text_length_filter:
      min: 20
)");
  auto ops2 = MustBuildOps(r2);
  Executor e2(options());
  RunReport report;
  ASSERT_TRUE(e2.Run(NoisyCorpus(), ops2, &report).ok());
  EXPECT_EQ(report.cache_hits, 1u);  // mapper hit, filter recomputed
}

// --------------------------------------------------------- checkpoint ----

TEST(CheckpointTest, SaveLoadRoundTrip) {
  CheckpointManager mgr(TempDir("ckpt1"));
  data::Dataset ds = data::Dataset::FromTexts({"saved"});
  ASSERT_TRUE(mgr.Save(2, 777, ds.NumRows(), data::SerializeDataset(ds)).ok());
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().next_op_index, 2u);
  EXPECT_EQ(loaded.value().pipeline_key, 777u);
  EXPECT_EQ(loaded.value().dataset.GetTextAt(0), "saved");
  EXPECT_TRUE(mgr.LoadIfCompatible(777).ok());
  EXPECT_FALSE(mgr.LoadIfCompatible(778).ok());
  mgr.Clear();
  EXPECT_FALSE(mgr.LoadLatest().ok());
}

TEST(ExecutorTest, ResumesAfterInjectedFailure) {
  std::string dir = TempDir("ckpt_exec");
  Executor::Options options;
  options.use_checkpoint = true;
  options.checkpoint_dir = dir;
  options.dataset_source_id = "corpus-v1";
  {
    // exec.op_abort is probed once per unit, so its 8th probe aborts the
    // run before unit 7.
    fault::ScopedFaults faults("exec.op_abort=n8");
    ASSERT_TRUE(faults.status().ok());
    auto ops1 = FourteenOpPipeline();
    Executor failing(options);
    auto failed = failing.Run(NoisyCorpus(), ops1, nullptr);
    EXPECT_FALSE(failed.ok());
  }

  // Re-run without injection: resumes from the checkpoint after unit 6.
  auto ops2 = FourteenOpPipeline();
  Executor resuming(options);
  RunReport report;
  auto result = resuming.Run(NoisyCorpus(), ops2, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.op_reports.size(), ops2.size() - 7);

  // The resumed result matches a clean run end-to-end.
  auto ops3 = FourteenOpPipeline();
  Executor clean(Executor::Options{});
  auto expected = clean.Run(NoisyCorpus(), ops3, nullptr);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(result.value().NumRows(), expected.value().NumRows());
}

TEST(ExecutorTest, RecipeChangeIgnoresIncompatibleCheckpoint) {
  std::string dir = TempDir("ckpt_incompat");
  Executor::Options o;
  o.use_checkpoint = true;
  o.checkpoint_dir = dir;
  o.dataset_source_id = "corpus-v1";
  auto ops1 = FourteenOpPipeline();
  Executor first(o);
  ASSERT_TRUE(first.Run(NoisyCorpus(), ops1, nullptr).ok());

  Recipe different = MustRecipe(R"(
process:
  - lower_case_mapper:
)");
  auto ops2 = MustBuildOps(different);
  Executor second(o);
  RunReport report;
  ASSERT_TRUE(second.Run(NoisyCorpus(), ops2, &report).ok());
  EXPECT_FALSE(report.resumed_from_checkpoint);
}

TEST(ExecutorTest, AllFeaturesCombinedUnderParallelism) {
  // Stress: fusion + reordering + caching (compressed) + checkpoints +
  // tracer, 4 workers — results must match a plain sequential run.
  std::string dir = TempDir("combined");
  auto ops_full = FourteenOpPipeline();
  Tracer tracer(3);
  Executor::Options options;
  options.num_workers = 4;
  options.op_fusion = true;
  options.op_reorder = true;
  options.use_cache = true;
  options.cache_dir = dir + "/cache";
  options.cache_compression = true;
  options.use_checkpoint = true;
  options.checkpoint_dir = dir + "/ckpt";
  options.dataset_source_id = "combined-corpus";
  options.tracer = &tracer;
  Executor executor(options);
  RunReport report;
  auto result = executor.Run(NoisyCorpus(120), ops_full, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto ops_plain = FourteenOpPipeline();
  Executor plain(Executor::Options{});
  auto expected = plain.Run(NoisyCorpus(120), ops_plain, nullptr);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(result.value().NumRows(), expected.value().NumRows());
  for (size_t i = 0; i < result.value().NumRows(); ++i) {
    EXPECT_EQ(result.value().GetTextAt(i), expected.value().GetTextAt(i));
  }
  // Cache and checkpoint artifacts materialized.
  CacheManager cache(dir + "/cache", true);
  EXPECT_GT(cache.TotalBytes(), 0u);
  CheckpointManager checkpoints(dir + "/ckpt");
  EXPECT_TRUE(checkpoints.LoadLatest().ok());

  // A re-run with the same options skips all the work: the checkpoint
  // (saved after the final unit) takes precedence over the cache scan.
  auto ops_again = FourteenOpPipeline();
  Executor again(options);
  RunReport rerun;
  auto rerun_result = again.Run(NoisyCorpus(120), ops_again, &rerun);
  ASSERT_TRUE(rerun_result.ok());
  EXPECT_TRUE(rerun.resumed_from_checkpoint);
  EXPECT_TRUE(rerun.op_reports.empty());  // nothing re-executed
  EXPECT_EQ(rerun_result.value().NumRows(), result.value().NumRows());
}

TEST(ExecutorTest, CheckpointFrequencyCoarsensResumePoint) {
  // checkpoint_every_n_units = 4: after a failure at unit 7, the surviving
  // checkpoint is the one from unit 4, so the resumed run re-executes
  // units 4..13 (10 units) instead of 7.
  std::string dir = TempDir("ckpt_freq");
  Executor::Options options;
  options.use_checkpoint = true;
  options.checkpoint_dir = dir;
  options.checkpoint_every_n_units = 4;
  options.dataset_source_id = "corpus-v1";
  {
    fault::ScopedFaults faults("exec.op_abort=n8");  // aborts before unit 7
    ASSERT_TRUE(faults.status().ok());
    auto ops1 = FourteenOpPipeline();
    Executor failing(options);
    EXPECT_FALSE(failing.Run(NoisyCorpus(), ops1, nullptr).ok());
  }

  auto ops2 = FourteenOpPipeline();
  Executor resuming(options);
  RunReport report;
  auto result = resuming.Run(NoisyCorpus(), ops2, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.op_reports.size(), ops2.size() - 4);
}

TEST(ExecutorTest, BoundaryBlobFeedsCacheAndCheckpointUnchanged) {
  // Each unit boundary serializes once and hands the same DJDS bytes to
  // both consumers. After the last unit, the checkpoint blob is exactly
  // the result's DJDS bytes and the deepest cache entry is those bytes
  // djlz-framed, as when each consumer serialized the dataset itself.
  std::string dir = TempDir("shared_blob");
  auto ops = FourteenOpPipeline();
  Executor::Options options;
  options.num_workers = 4;
  options.use_cache = true;
  options.cache_dir = dir + "/cache";
  options.cache_compression = true;
  options.use_checkpoint = true;
  options.checkpoint_dir = dir + "/ckpt";
  options.dataset_source_id = "shared-blob";
  Executor executor(options);
  RunReport report;
  auto result = executor.Run(NoisyCorpus(120), ops, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string djds = data::SerializeDataset(result.value());

  auto manifest_text = data::ReadFile(dir + "/ckpt/checkpoint.json");
  ASSERT_TRUE(manifest_text.ok());
  auto manifest = json::Parse(manifest_text.value());
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value().GetInt("schema", 0), 3);
  EXPECT_EQ(static_cast<uint64_t>(manifest.value().GetInt("blob_checksum", 0)),
            swar::Hash64(djds));
  auto blob = data::ReadFile(dir + "/ckpt/" +
                             manifest.value().GetString("blob_file", ""));
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_TRUE(blob.value() == djds) << "checkpoint blob differs";

  uint64_t key = CacheManager::InitialKey("shared-blob");
  for (const auto& op : ops) {
    key = CacheManager::ExtendKey(key, op->name(), op->config());
  }
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.djds.djlz",
                static_cast<unsigned long long>(key));
  auto entry = data::ReadFile(dir + "/cache/" + name);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_TRUE(entry.value() == compress::CompressFrame(djds))
      << "deepest cache entry differs";

  EXPECT_EQ(report.cache_stores, ops.size());
  EXPECT_EQ(report.checkpoint_saves, ops.size());
  EXPECT_GT(report.persist_seconds, 0.0);
  EXPECT_NE(report.ToString().find("persist:"), std::string::npos);
}

TEST(ExecutorTest, PersistLineWithCacheOrCheckpointAlone) {
  for (bool use_cache : {true, false}) {
    SCOPED_TRACE(use_cache ? "cache only" : "checkpoint only");
    std::string dir = TempDir(use_cache ? "persist_cache" : "persist_ckpt");
    Executor::Options options;
    options.use_cache = use_cache;
    options.cache_dir = dir;
    options.use_checkpoint = !use_cache;
    options.checkpoint_dir = dir;
    options.checkpoint_every_n_units = 2;
    auto ops = MustBuildOps(MustRecipe(kBasicRecipe));
    Executor executor(options);
    RunReport report;
    ASSERT_TRUE(executor.Run(NoisyCorpus(), ops, &report).ok());
    EXPECT_GT(report.persist_seconds, 0.0);
    // Three units: a cache store after each, a checkpoint after units 2
    // and 3 (every second unit, and always the last).
    EXPECT_EQ(report.cache_stores, use_cache ? 3u : 0u);
    EXPECT_EQ(report.checkpoint_saves, use_cache ? 0u : 2u);
    EXPECT_NE(report.ToString().find("persist:"), std::string::npos);
  }
}

TEST(ExecutorTest, EmptyDatasetAndEmptyPipeline) {
  std::vector<std::unique_ptr<ops::Op>> no_ops;
  Executor executor(Executor::Options{});
  auto empty_both = executor.Run(data::Dataset(), no_ops, nullptr);
  ASSERT_TRUE(empty_both.ok());
  EXPECT_EQ(empty_both.value().NumRows(), 0u);

  auto ops = FourteenOpPipeline();
  auto empty_data = executor.Run(data::Dataset(), ops, nullptr);
  ASSERT_TRUE(empty_data.ok());
  EXPECT_EQ(empty_data.value().NumRows(), 0u);

  RunReport report;
  auto no_pipeline = executor.Run(NoisyCorpus(10), no_ops, &report);
  ASSERT_TRUE(no_pipeline.ok());
  EXPECT_EQ(no_pipeline.value().NumRows(), report.rows_in);
}

// -------------------------------------------------------- space model ----

TEST(SpaceModelTest, CacheModeFormula) {
  PipelineShape shape{5, 8, 1};
  // (1 + M + F + 1{F>0} + D) * S = (1+5+8+1+1) * S = 16 S.
  EXPECT_EQ(CacheModeSpaceBytes(shape, 100), 1600u);
  PipelineShape no_filters{3, 0, 1};
  EXPECT_EQ(CacheModeSpaceBytes(no_filters, 100), 500u);
}

TEST(SpaceModelTest, CheckpointModeIsThreeS) {
  EXPECT_EQ(CheckpointModeSpaceBytes(100), 300u);
}

TEST(SpaceModelTest, ShapeOfCountsKinds) {
  auto ops = FourteenOpPipeline();
  PipelineShape shape = ShapeOf(ops);
  EXPECT_EQ(shape.num_mappers, 5u);
  EXPECT_EQ(shape.num_filters, 8u);
  EXPECT_EQ(shape.num_deduplicators, 1u);
}

TEST(SpaceModelTest, PlanSpaceDegradesGracefully) {
  PipelineShape shape{5, 8, 1};
  SpacePlan rich = PlanSpace(shape, 100, 10000);
  EXPECT_TRUE(rich.enable_cache);
  SpacePlan mid = PlanSpace(shape, 100, 400);
  EXPECT_FALSE(mid.enable_cache);
  EXPECT_TRUE(mid.enable_checkpoint);
  SpacePlan poor = PlanSpace(shape, 100, 100);
  EXPECT_FALSE(poor.enable_cache);
  EXPECT_FALSE(poor.enable_checkpoint);
}

// ------------------------------------------------------ plan verifier ----

TEST(FusionTest, ReorderTiesKeepRecipeOrder) {
  // All three filters cost 0.1: the sort must be stable on ties so the
  // plan (and --explain-plan output) is deterministic across platforms.
  Recipe r = MustRecipe(R"(
process:
  - specified_field_filter:
      field: meta.a
  - field_exists_filter:
      field: meta.b
  - suffix_filter:
      field: meta.c
)");
  auto ops = MustBuildOps(r);
  auto plan = PlanFusion(ops, {true, true});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].op->name(), "specified_field_filter");
  EXPECT_EQ(plan[1].op->name(), "field_exists_filter");
  EXPECT_EQ(plan[2].op->name(), "suffix_filter");
}

TEST(PlanVerifyTest, IdentityPlanIsLicensed) {
  auto ops = FourteenOpPipeline();
  auto plan = PlanFusion(ops, {false, false});
  PlanVerdict v = VerifyPlan(ops, plan, ops::OpRegistry::Global());
  EXPECT_TRUE(v.ok) << v.ToString();
  EXPECT_TRUE(v.swaps.empty());
}

TEST(PlanVerifyTest, LicensesEffectDisjointReorder) {
  auto ops = FourteenOpPipeline();
  auto plan = PlanFusion(ops, {true, true});
  PlanVerdict v = VerifyPlan(ops, plan, ops::OpRegistry::Global());
  EXPECT_TRUE(v.ok) << v.ToString();
  EXPECT_FALSE(v.swaps.empty());
  for (const SwapRecord& s : v.swaps) {
    EXPECT_TRUE(s.allowed);
    EXPECT_FALSE(s.justification.empty());
  }
  EXPECT_NE(v.ToString().find("licensed"), std::string::npos);
}

TEST(PlanVerifyTest, RejectsStatReadBeforeProducer) {
  // The cheap field filter consumes the stat the expensive word counter
  // produces; cost-based reordering would move the read before the write.
  Recipe r = MustRecipe(R"(
process:
  - word_num_filter:
      min: 1
  - specified_numeric_field_filter:
      field: stats.num_words
      min: 5
)");
  auto ops = MustBuildOps(r);
  auto plan = PlanFusion(ops, {true, true});
  ASSERT_EQ(plan.size(), 2u);
  ASSERT_EQ(plan[0].op->name(), "specified_numeric_field_filter");
  PlanVerdict v = VerifyPlan(ops, plan, ops::OpRegistry::Global());
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.violations.empty());
  EXPECT_NE(v.ToString().find("REFUSED"), std::string::npos);
  EXPECT_NE(v.violations.front().find("stats.num_words"), std::string::npos);
}

TEST(PlanVerifyTest, RejectsDroppedOp) {
  auto ops = FourteenOpPipeline();
  auto plan = PlanFusion(ops, {false, false});
  plan.pop_back();
  PlanVerdict v = VerifyPlan(ops, plan, ops::OpRegistry::Global());
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.violations.empty());
}

TEST(PlanVerifyTest, MissingEffectsAreConservative) {
  Recipe r = MustRecipe(R"(
process:
  - text_length_filter:
      min: 1
  - word_num_filter:
      min: 1
)");
  auto ops = MustBuildOps(r);
  ops::OpRegistry no_effects;  // nothing registered

  // Identity plans always pass, signatures or not.
  auto identity = PlanFusion(ops, {false, false});
  EXPECT_TRUE(VerifyPlan(ops, identity, no_effects).ok);

  // An inversion involving an unknown-effect OP is refused...
  std::vector<PlanUnit> swapped(2);
  swapped[0].op = ops[1].get();
  swapped[1].op = ops[0].get();
  EXPECT_FALSE(VerifyPlan(ops, swapped, no_effects).ok);
  // ...but licensed once the signatures prove the fields disjoint.
  EXPECT_TRUE(VerifyPlan(ops, swapped, ops::OpRegistry::Global()).ok);
}

TEST(ExecutorTest, RefusesUnlicensedReorderAndFallsBack) {
  Recipe r = MustRecipe(R"(
process:
  - word_num_filter:
      min: 2
  - specified_numeric_field_filter:
      field: stats.num_words
      min: 3
)");
  auto naive_ops = MustBuildOps(r);
  auto opt_ops = MustBuildOps(r);
  Executor naive(Executor::Options{});
  Executor::Options opt_options;
  opt_options.op_fusion = true;
  opt_options.op_reorder = true;
  obs::MetricsRegistry metrics;
  opt_options.metrics = &metrics;
  Executor optimized(opt_options);
  RunReport naive_report, opt_report;
  auto r1 = naive.Run(NoisyCorpus(), naive_ops, &naive_report);
  auto r2 = optimized.Run(NoisyCorpus(), opt_ops, &opt_report);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_FALSE(naive_report.plan_rejected);
  EXPECT_TRUE(opt_report.plan_rejected);
  EXPECT_EQ(opt_report.plan_swaps, 0u);
  // The refused plan fell back to recipe order: results are identical.
  ASSERT_EQ(r1.value().NumRows(), r2.value().NumRows());
  for (size_t i = 0; i < r1.value().NumRows(); ++i) {
    EXPECT_EQ(r1.value().GetTextAt(i), r2.value().GetTextAt(i));
  }
  const obs::Counter* rejected = metrics.FindCounter("executor.plan_rejected");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->value(), 1u);
  EXPECT_NE(opt_report.ToString().find("refused"), std::string::npos);
}

TEST(ExecutorTest, ReportsLicensedSwapCount) {
  auto ops = FourteenOpPipeline();
  Executor::Options options;
  options.op_fusion = true;
  options.op_reorder = true;
  Executor executor(options);
  RunReport report;
  ASSERT_TRUE(executor.Run(NoisyCorpus(), ops, &report).ok());
  EXPECT_FALSE(report.plan_rejected);
  EXPECT_GT(report.plan_swaps, 0u);
  EXPECT_NE(report.ToString().find("effect-licensed swap"),
            std::string::npos);
}

}  // namespace
}  // namespace dj::core
