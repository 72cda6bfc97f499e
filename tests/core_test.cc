#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/probe.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "core/cache_manager.h"
#include "core/checkpoint.h"
#include "core/executor.h"
#include "core/fusion.h"
#include "core/recipe.h"
#include "core/space_model.h"
#include "core/tracer.h"
#include "data/io.h"
#include "json/parser.h"
#include "json/writer.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ops/registry.h"
#include "per_op_reference.h"
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

// The names of the files in `dir`, sorted; none when it does not exist.
std::vector<std::string> FilesIn(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    out.push_back(entry.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
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

// `np` is the pool width, so an out-of-range value must fail at parse time:
// 4294967297 would wrap to 1 through an int cast, and 100000 would start
// that many threads.
TEST(RecipeTest, NpIsBoundedBeforeTheCast) {
  for (const char* np : {"0", "-1", "257", "100000", "4294967297"}) {
    auto r = Recipe::FromString(std::string("np: ") + np + "\n");
    ASSERT_FALSE(r.ok()) << np;
    EXPECT_NE(r.status().message().find("np must be in [1, 256]"),
              std::string::npos)
        << r.status().ToString();
  }
  auto r = Recipe::FromString("np: 256\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_workers, kMaxPoolThreads);
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

TEST(FusionTest, FilterRunIsOneStageInRecipeOrder) {
  auto ops = FourteenOpPipeline();
  auto plan = PlanFusion(ops);
  // The 8 consecutive filters form one stage, in recipe order, between the
  // last mapper and the dedup.
  ASSERT_EQ(plan.size(), ops.size() - 8 + 1);
  const PlanUnit& stage = plan[5];
  ASSERT_TRUE(stage.is_fused());
  ASSERT_EQ(stage.fused.size(), 8u);
  for (size_t i = 0; i < stage.fused.size(); ++i) {
    EXPECT_EQ(stage.fused[i], ops[5 + i].get()) << i;
  }
  EXPECT_EQ(stage.DisplayName().rfind("fused(text_length_filter,", 0), 0u);
  EXPECT_EQ(plan[6].op->kind(), ops::OpKind::kDeduplicator);
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
  auto plan = PlanFusion(ops);
  ASSERT_EQ(plan.size(), 3u);  // nothing fuses across the mapper barrier
  // Each lone filter is a unit of its own, under its own OP name.
  for (size_t i : {0, 2}) {
    EXPECT_FALSE(plan[i].is_fused()) << i;
    EXPECT_EQ(plan[i].op, ops[i].get()) << i;
    EXPECT_EQ(plan[i].DisplayName(), ops[i]->name()) << i;
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
  EXPECT_EQ(report.op_reports.size(), PlanFusion(ops).size());
  EXPECT_NE(report.ToString().find("total:"), std::string::npos);
  // Neither cache nor checkpoints: nothing persisted, no persist line.
  EXPECT_EQ(report.persist_seconds, 0.0);
  EXPECT_EQ(report.ToString().find("persist:"), std::string::npos);
}

TEST(ExecutorTest, FusionPreservesResults) {
  auto per_op_ops = FourteenOpPipeline();
  auto staged_ops = FourteenOpPipeline();
  auto expected = RunPerOp(NoisyCorpus(), per_op_ops);
  auto staged = Executor(Executor::Options{}).Run(NoisyCorpus(), staged_ops);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  EXPECT_LT(staged.value().NumRows(), NoisyCorpus().NumRows());
  EXPECT_EQ(data::ToJsonl(staged.value()), data::ToJsonl(expected.value()));
}

TEST(ExecutorTest, BorrowedConstOpsPlanAndRunLikeOwnedOnes) {
  // The engine only reads its OPs: a borrowed list of const pointers plans
  // the same units and exports the same rows as the owning list.
  auto owned = FourteenOpPipeline();
  std::vector<const ops::Op*> borrowed;
  for (const auto& op : owned) borrowed.push_back(op.get());
  const std::vector<PlanUnit> owned_plan = PlanFusion(owned);
  const std::vector<PlanUnit> borrowed_plan = PlanFusion(borrowed);
  ASSERT_EQ(borrowed_plan.size(), owned_plan.size());
  for (size_t i = 0; i < owned_plan.size(); ++i) {
    EXPECT_EQ(borrowed_plan[i].DisplayName(), owned_plan[i].DisplayName());
  }
  auto from_borrowed =
      Executor(Executor::Options{}).Run(NoisyCorpus(), borrowed);
  auto from_owned = Executor(Executor::Options{}).Run(NoisyCorpus(), owned);
  ASSERT_TRUE(from_borrowed.ok()) << from_borrowed.status().ToString();
  ASSERT_TRUE(from_owned.ok()) << from_owned.status().ToString();
  EXPECT_EQ(data::ToJsonl(from_borrowed.value()),
            data::ToJsonl(from_owned.value()));
}

TEST(ExecutorTest, FusionReducesContextComputations) {
  auto per_op_ops = FourteenOpPipeline();
  ops::SampleContext::Counters::Reset();
  ASSERT_TRUE(RunPerOp(NoisyCorpus(), per_op_ops).ok());
  uint64_t without = ops::SampleContext::Counters::Total();

  auto staged_ops = FourteenOpPipeline();
  ops::SampleContext::Counters::Reset();
  ASSERT_TRUE(
      Executor(Executor::Options{}).Run(NoisyCorpus(), staged_ops).ok());
  uint64_t with = ops::SampleContext::Counters::Total();
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

// Everything a Tracer holds after a run, one line per record.
std::string TracerState(const Tracer& tracer) {
  std::string out;
  for (const Tracer::OpTotals& t : tracer.Totals()) {
    out += t.op_name + " edited=" + std::to_string(t.edited) +
           " filtered=" + std::to_string(t.filtered) +
           " duplicates=" + std::to_string(t.duplicates) + "\n";
  }
  for (const Tracer::FilteredSample& f : tracer.filtered()) {
    out += f.op_name + " row=" + std::to_string(f.row) + " " + f.text + " " +
           f.stats_json + "\n";
  }
  return out;
}

TEST(ExecutorTest, TracerRecordsTheSameFilteredRowsAtEveryWidth) {
  // Row 120 fails the first member and row 125 the second. At width 4 the
  // rows fall in different chunks, so the member seen first, and with it
  // the order of the totals, must not depend on which chunk ran first.
  Recipe r = MustRecipe(R"(
process:
  - text_length_filter:
      min: 5
  - word_num_filter:
      min: 3
)");
  std::vector<std::string> texts(
      2000, "the quick brown fox jumps over the lazy dog every morning");
  texts[120] = "x";
  texts[125] = std::string(44, 'w');
  auto ops = MustBuildOps(r);
  std::string reference;
  for (int workers : {1, 2, 4, 8}) {
    Executor::Options options;
    options.num_workers = workers;
    for (int rep = 0; rep < 50; ++rep) {
      Tracer tracer(10);
      options.tracer = &tracer;
      auto result =
          Executor(options).Run(data::Dataset::FromTexts(texts), ops);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result.value().NumRows(), 1998u);
      std::vector<Tracer::FilteredSample> filtered = tracer.filtered();
      ASSERT_EQ(filtered.size(), 2u);
      EXPECT_LT(filtered[0].row, filtered[1].row);
      if (reference.empty()) reference = TracerState(tracer);
      ASSERT_EQ(TracerState(tracer), reference)
          << "np " << workers << " rep " << rep;
    }
  }
  EXPECT_EQ(reference.rfind("text_length_filter ", 0), 0u) << reference;
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
    options.cache_dir = dir;
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
  // A directory turns its feature on only with its use_* key.
  Recipe r = MustRecipe(
      "np: 3\nuse_cache: true\ncache_dir: /tmp/x\n"
      "checkpoint_dir: /tmp/y\n");
  Executor::Options options = Executor::OptionsFromRecipe(r);
  EXPECT_EQ(options.num_workers, 3);
  EXPECT_EQ(options.cache_dir, "/tmp/x");
  EXPECT_EQ(options.checkpoint_dir, "");
}

// -------------------------------------------------------------- cache ----

TEST(CacheManagerTest, StoreLoadEvict) {
  CacheManager cache(TempDir("cache1"), /*compression=*/false);
  data::Dataset ds = data::Dataset::FromTexts({"cached row"});
  uint64_t key = CacheManager::InitialKey(ds);
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

TEST(CacheManagerTest, ClearRemovesLeftoverTempFilesAndTotalBytesSkipsThem) {
  std::string dir = TempDir("cache_leftover_tmp");
  CacheManager cache(dir, /*compression=*/true);
  ASSERT_TRUE(cache
                  .Store(7, data::SerializeDataset(
                                data::Dataset::FromTexts({"cached row"})))
                  .ok());
  const std::string entry = dir + "/0000000000000007.djds.djlz";
  const uint64_t entry_bytes = cache.TotalBytes();
  ASSERT_EQ(entry_bytes, fs::file_size(entry));

  // What an interrupted atomic Store leaves: a torn "<entry>.tmp", here for
  // this entry and for one whose rename never happened. A file that is not
  // the cache's stays.
  const std::string beside = entry + ".tmp";
  const std::string orphan = dir + "/00000000000000ab.djds.djlz.tmp";
  const std::string foreign = dir + "/notes.txt";
  ASSERT_TRUE(data::WriteFile(beside, "torn entry bytes").ok());
  ASSERT_TRUE(data::WriteFile(orphan, "torn").ok());
  ASSERT_TRUE(data::WriteFile(foreign, "not a cache file").ok());
  EXPECT_EQ(cache.TotalBytes(), entry_bytes);
  EXPECT_FALSE(cache.Contains(0xab));
  auto loaded = cache.Load(7);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().GetTextAt(0), "cached row");

  cache.Clear();
  EXPECT_FALSE(fs::exists(entry));
  EXPECT_FALSE(fs::exists(beside));
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(foreign));
  EXPECT_EQ(cache.TotalBytes(), 0u);
}

TEST(CacheManagerTest, KeyChangesWithConfig) {
  json::Value c1 = json::Parse(R"({"min": 1})").value();
  json::Value c2 = json::Parse(R"({"min": 2})").value();
  uint64_t base = CacheManager::InitialKey(data::Dataset::FromTexts({"src"}));
  EXPECT_NE(CacheManager::ExtendKey(base, "f", c1),
            CacheManager::ExtendKey(base, "f", c2));
  EXPECT_NE(CacheManager::ExtendKey(base, "f", c1),
            CacheManager::ExtendKey(base, "g", c1));
  EXPECT_EQ(CacheManager::ExtendKey(base, "f", c1),
            CacheManager::ExtendKey(base, "f", c1));
}

// `rows` rows of a string, an object and a double column, enough rows to
// span several of the digest's row ranges.
data::Dataset KeyedCorpus(size_t rows) {
  std::vector<data::Sample> samples(rows);
  for (size_t i = 0; i < rows; ++i) {
    json::Object meta;
    meta.Set("id", json::Value(static_cast<int64_t>(i)));
    meta.Set("tags", json::Value(json::Array{json::Value("a"),
                                             json::Value(i % 2 == 0)}));
    samples[i].Set("text", json::Value("row " + std::to_string(i)));
    samples[i].Set("meta", json::Value(std::move(meta)));
    samples[i].Set("score", json::Value(static_cast<double>(i) / 4));
  }
  return data::Dataset::FromSamples(std::move(samples));
}

TEST(CacheManagerTest, InitialKeyIsTheSameWithNoPoolAndAtEveryWidth) {
  const data::Dataset ds = KeyedCorpus(5000);
  const uint64_t key = CacheManager::InitialKey(ds);
  for (size_t width : {1, 2, 3, 4, 8}) {
    ThreadPool pool(width);
    EXPECT_EQ(CacheManager::InitialKey(ds, &pool), key) << "width " << width;
  }
  // The same cells built another way key the same.
  auto rebuilt = data::Dataset::FromColumns(
      {"text", "meta", "score"},
      {*ds.Column("text"), *ds.Column("meta"), *ds.Column("score")});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(CacheManager::InitialKey(rebuilt.value()), key);
}

TEST(CacheManagerTest, InitialKeyChangesWithTheContent) {
  const data::Dataset ds = KeyedCorpus(5000);
  const uint64_t key = CacheManager::InitialKey(ds);

  data::Dataset byte = ds;
  byte.MutableCell("text", 4321)->as_string()[4] = '5';  // "row 5321"
  EXPECT_NE(CacheManager::InitialKey(byte), key) << "one byte of one cell";

  data::Dataset as_int = ds;
  ASSERT_TRUE(ds.Cell("score", 4) == json::Value(1.0));
  *as_int.MutableCell("score", 4) = json::Value(1);
  EXPECT_NE(CacheManager::InitialKey(as_int), key) << "1 instead of 1.0";

  data::Dataset renamed = ds;
  ASSERT_TRUE(renamed.RenameColumn("score", "scores").ok());
  EXPECT_NE(CacheManager::InitialKey(renamed), key) << "a renamed column";

  auto swapped = data::Dataset::FromColumns(
      {"meta", "text", "score"},
      {*ds.Column("meta"), *ds.Column("text"), *ds.Column("score")});
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_NE(CacheManager::InitialKey(swapped.value()), key)
      << "two columns swapped";

  data::Dataset reordered = ds;
  json::Object& meta = reordered.MutableCell("meta", 7)->as_object();
  std::reverse(meta.entries().begin(), meta.entries().end());
  EXPECT_NE(CacheManager::InitialKey(reordered), key)
      << "the keys of one object in another order";

  EXPECT_NE(CacheManager::InitialKey(ds.Slice(0, 4999)), key)
      << "one row fewer";
}

TEST(ExecutorTest, CacheHitSkipsWork) {
  std::string dir = TempDir("cache_exec");
  auto make_options = [&] {
    Executor::Options options;
    options.cache_dir = dir;
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
  EXPECT_EQ(report2.cache_hits, PlanFusion(ops2).size());
  EXPECT_EQ(r1.value().NumRows(), r2.value().NumRows());
}

TEST(ExecutorTest, ConfigChangeInvalidatesSuffixOnly) {
  std::string dir = TempDir("cache_invalidate");
  auto options = [&] {
    Executor::Options o;
    o.cache_dir = dir;
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

// Runs kBasicRecipe over `input` with `options` and returns the JSONL export.
std::string RunBasic(const Executor::Options& options,
                     const data::Dataset& input, RunReport* report) {
  auto ops = MustBuildOps(MustRecipe(kBasicRecipe));
  auto result = Executor(options).Run(input, ops, report);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? data::ToJsonl(result.value()) : "";
}

TEST(ExecutorTest, EditedInputMissesTheCache) {
  Executor::Options options;
  options.cache_dir = TempDir("cache_edited_input");
  const size_t units = MustBuildOps(MustRecipe(kBasicRecipe)).size();
  const data::Dataset input = NoisyCorpus();
  RunReport first;
  const std::string before = RunBasic(options, input, &first);
  EXPECT_EQ(first.cache_hits, 0u);

  // One cell changes. Row 0 comes first, so exact dedup keeps it, and its
  // longer text passes the length filter: the export changes too.
  data::Dataset edited = input;
  edited.MutableCell("text", 0)->as_string() += " (edited)";
  const std::string want = RunBasic(Executor::Options{}, edited, nullptr);
  ASSERT_NE(want, before);

  RunReport second;
  EXPECT_EQ(RunBasic(options, edited, &second), want);
  EXPECT_EQ(second.cache_hits, 0u);
  RunReport third;
  EXPECT_EQ(RunBasic(options, edited, &third), want);
  EXPECT_EQ(third.cache_hits, units);
}

TEST(ExecutorTest, InMemoryInputsShareACacheWithoutColliding) {
  Executor::Options options;
  options.cache_dir = TempDir("cache_in_memory");
  const size_t units = MustBuildOps(MustRecipe(kBasicRecipe)).size();
  const data::Dataset a = NoisyCorpus(60);
  const data::Dataset b = NoisyCorpus(30);
  const std::string want_a = RunBasic(Executor::Options{}, a, nullptr);
  const std::string want_b = RunBasic(Executor::Options{}, b, nullptr);
  ASSERT_NE(want_a, want_b);

  for (size_t pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    RunReport report_a, report_b;
    EXPECT_EQ(RunBasic(options, a, &report_a), want_a);
    EXPECT_EQ(RunBasic(options, b, &report_b), want_b);
    EXPECT_EQ(report_a.cache_hits, pass == 0 ? 0u : units);
    EXPECT_EQ(report_b.cache_hits, pass == 0 ? 0u : units);
  }
}

// --------------------------------------------------------- checkpoint ----

TEST(CheckpointTest, SaveLoadRoundTripKeepsOnlyTheNewestEntry) {
  // The trailing slash must not make the sweep delete the entry it keeps.
  CheckpointManager mgr(TempDir("ckpt1") + "/");
  auto save = [&](uint64_t key, std::string text) {
    return mgr.Save(key, data::SerializeDataset(
                             data::Dataset::FromTexts({std::move(text)})));
  };
  ASSERT_TRUE(save(777, "saved").ok());
  auto loaded = mgr.Load(777);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().GetTextAt(0), "saved");
  EXPECT_EQ(mgr.Load(778).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(save(778, "newer").ok());
  EXPECT_EQ(mgr.Load(777).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(mgr.Load(778).ok());
  EXPECT_EQ(mgr.Load(778).value().GetTextAt(0), "newer");
  mgr.Clear();
  EXPECT_EQ(mgr.Load(778).status().code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, ResumesAfterInjectedFailure) {
  std::string dir = TempDir("ckpt_exec");
  Executor::Options options;
  options.checkpoint_dir = dir;
  {
    // exec.op_abort is probed once per unit, so its 6th probe aborts the
    // run before unit 5, the filter stage.
    probe::Scoped faults(probe::Faults(), "exec.op_abort=n6");
    ASSERT_TRUE(faults.status().ok());
    auto ops1 = FourteenOpPipeline();
    Executor failing(options);
    auto failed = failing.Run(NoisyCorpus(), ops1, nullptr);
    EXPECT_FALSE(failed.ok());
  }

  // Re-run without injection: resumes from the checkpoint after unit 4.
  auto ops2 = FourteenOpPipeline();
  Executor resuming(options);
  RunReport report;
  auto result = resuming.Run(NoisyCorpus(), ops2, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.op_reports.size(), PlanFusion(ops2).size() - 5);

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
  o.checkpoint_dir = dir;
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
  // Stress: a filter stage + caching (compressed) + checkpoints +
  // tracer, 4 workers — results must match one sequential run per OP.
  std::string dir = TempDir("combined");
  auto ops_full = FourteenOpPipeline();
  Tracer tracer(3);
  Executor::Options options;
  options.num_workers = 4;
  options.cache_dir = dir + "/cache";
  options.cache_compression = true;
  options.checkpoint_dir = dir + "/ckpt";
  options.tracer = &tracer;
  Executor executor(options);
  RunReport report;
  auto result = executor.Run(NoisyCorpus(120), ops_full, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto ops_plain = FourteenOpPipeline();
  auto expected = RunPerOp(NoisyCorpus(120), ops_plain);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(data::ToJsonl(result.value()), data::ToJsonl(expected.value()));
  // Every boundary went to the cache; none needed a checkpoint entry.
  CacheManager cache(dir + "/cache", true);
  EXPECT_GT(cache.TotalBytes(), 0u);
  EXPECT_EQ(report.checkpoint_saves, 0u);
  EXPECT_TRUE(FilesIn(dir + "/ckpt").empty());

  // A re-run with the same options skips all the work: the scan restores
  // the deepest cache entry, so every unit is a cache hit.
  auto ops_again = FourteenOpPipeline();
  Executor again(options);
  RunReport rerun;
  auto rerun_result = again.Run(NoisyCorpus(120), ops_again, &rerun);
  ASSERT_TRUE(rerun_result.ok());
  EXPECT_TRUE(rerun.resumed_from_checkpoint);
  EXPECT_EQ(rerun.cache_hits, PlanFusion(ops_again).size());
  ASSERT_EQ(rerun.op_reports.size(), PlanFusion(ops_again).size());
  for (const OpReport& r : rerun.op_reports) EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(data::ToJsonl(rerun_result.value()),
            data::ToJsonl(result.value()));
}

TEST(ExecutorTest, BoundaryBlobFeedsCacheAndCheckpointUnchanged) {
  // Each unit boundary serializes once and writes one file, named by the
  // boundary's key. With the cache on it is the cache entry, and the
  // checkpoint directory stays empty: the deepest entry is the result's
  // DJDS bytes djlz-framed. With the cache off it is the checkpoint entry,
  // exactly the result's DJDS bytes and the only file in its directory.
  for (bool use_cache : {true, false}) {
    SCOPED_TRACE(use_cache ? "cache on" : "cache off");
    std::string dir = TempDir(use_cache ? "shared_blob_cache" : "shared_blob");
    auto ops = FourteenOpPipeline();
    Executor::Options options;
    options.num_workers = 4;
    if (use_cache) options.cache_dir = dir + "/cache";
    options.cache_compression = true;
    options.checkpoint_dir = dir + "/ckpt";
    Executor executor(options);
    RunReport report;
    auto result = executor.Run(NoisyCorpus(120), ops, &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string djds = data::SerializeDataset(result.value());

    uint64_t key = CacheManager::InitialKey(NoisyCorpus(120));
    for (const auto& op : ops) {
      key = CacheManager::ExtendKey(key, op->name(), op->config());
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key));
    if (use_cache) {
      auto entry = data::ReadFile(dir + "/cache/" + hex + ".djds.djlz");
      ASSERT_TRUE(entry.ok()) << entry.status().ToString();
      EXPECT_TRUE(entry.value() == compress::CompressFrame(djds))
          << "deepest cache entry differs";
      EXPECT_TRUE(FilesIn(dir + "/ckpt").empty());
    } else {
      const std::string name = std::string("checkpoint-") + hex + ".djds";
      EXPECT_EQ(FilesIn(dir + "/ckpt"), std::vector<std::string>{name});
      auto entry = data::ReadFile(dir + "/ckpt/" + name);
      ASSERT_TRUE(entry.ok()) << entry.status().ToString();
      EXPECT_TRUE(entry.value() == djds) << "checkpoint entry differs";
    }

    const size_t units = PlanFusion(ops).size();
    EXPECT_EQ(report.cache_stores, use_cache ? units : 0u);
    EXPECT_EQ(report.checkpoint_saves, use_cache ? 0u : units);
    EXPECT_GT(report.persist_seconds, 0.0);
    EXPECT_NE(report.ToString().find("persist:"), std::string::npos);
  }
}

TEST(ExecutorTest, OlderCacheFrameIsEvictedAndRecomputed) {
  // A cache entry whose djlz frame says version 2 no longer decodes: the
  // cache scan evicts it, falls back to the next shallower entry, and
  // recomputes the last unit, byte-identical to a clean run.
  std::string dir = TempDir("old_frame");
  Executor::Options options;
  options.cache_dir = dir;
  options.cache_compression = true;
  auto ops = MustBuildOps(MustRecipe(kBasicRecipe));
  ASSERT_TRUE(Executor(options).Run(NoisyCorpus(), ops, nullptr).ok());

  uint64_t key = CacheManager::InitialKey(NoisyCorpus());
  for (const auto& op : ops) {
    key = CacheManager::ExtendKey(key, op->name(), op->config());
  }
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.djds.djlz",
                static_cast<unsigned long long>(key));
  const std::string path = dir + "/" + name;
  auto entry = data::ReadFile(path);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  std::string old_entry = entry.value();
  old_entry[4] = 2;  // the frame version byte
  ASSERT_TRUE(data::WriteFile(path, old_entry).ok());

  RunReport report;
  auto rerun_ops = MustBuildOps(MustRecipe(kBasicRecipe));
  auto result = [&] {
    // Writes fail during the re-run, so the recomputed unit cannot store
    // its entry again: a missing file afterwards means the scan evicted it.
    probe::Scoped faults(probe::Faults(), "io.write.fail=always");
    EXPECT_TRUE(faults.status().ok());
    return Executor(options).Run(NoisyCorpus(), rerun_ops, &report);
  }();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(report.cache_hits, ops.size() - 1);
  ASSERT_EQ(report.op_reports.size(), ops.size());
  EXPECT_FALSE(report.op_reports.back().cache_hit);

  auto clean_ops = MustBuildOps(MustRecipe(kBasicRecipe));
  auto clean = Executor(Executor::Options{}).Run(NoisyCorpus(), clean_ops,
                                                 nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(data::SerializeDataset(result.value()) ==
              data::SerializeDataset(clean.value()))
      << "recomputed output differs from a clean run";
}

TEST(ExecutorTest, PersistLineWithCacheOrCheckpointAlone) {
  for (bool use_cache : {true, false}) {
    SCOPED_TRACE(use_cache ? "cache only" : "checkpoint only");
    std::string dir = TempDir(use_cache ? "persist_cache" : "persist_ckpt");
    Executor::Options options;
    (use_cache ? options.cache_dir : options.checkpoint_dir) = dir;
    auto ops = MustBuildOps(MustRecipe(kBasicRecipe));
    Executor executor(options);
    RunReport report;
    ASSERT_TRUE(executor.Run(NoisyCorpus(), ops, &report).ok());
    EXPECT_GT(report.persist_seconds, 0.0);
    // Three units, each boundary a cache store or a checkpoint save.
    EXPECT_EQ(report.cache_stores, use_cache ? 3u : 0u);
    EXPECT_EQ(report.checkpoint_saves, use_cache ? 0u : 3u);
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

// --------------------------------------------------------- filter stage ----

// Runs `ops` and returns the report of the run.
RunReport RunStage(const std::vector<std::unique_ptr<ops::Op>>& ops,
                   data::Dataset input, int workers = 1) {
  Executor::Options options;
  options.num_workers = workers;
  Executor executor(options);
  RunReport report;
  auto result = executor.Run(std::move(input), ops, &report);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return report;
}

const OpReport* StageReport(const RunReport& report) {
  for (const OpReport& r : report.op_reports) {
    if (r.kind == "fused_filter") return &r;
  }
  return nullptr;
}

std::vector<std::string> StageLines(const RunReport& report) {
  std::vector<std::string> lines;
  std::string text = report.ToString();
  for (size_t at = 0; (at = text.find("\nstage ", at)) != std::string::npos;
       ++at) {
    lines.push_back(text.substr(at + 1, text.find('\n', at + 1) - at - 1));
  }
  return lines;
}

TEST(FilterStageTest, OrderLineIsTheSameAtNp1AndNp4) {
  // The per-member counts come from one pass in row order at any width.
  auto ops1 = FourteenOpPipeline();
  auto ops4 = FourteenOpPipeline();
  RunReport np1 = RunStage(ops1, NoisyCorpus(300), 1);
  RunReport np4 = RunStage(ops4, NoisyCorpus(300), 4);
  std::vector<std::string> lines = StageLines(np1);
  ASSERT_EQ(lines.size(), 1u) << np1.ToString();
  EXPECT_EQ(lines.front().rfind("stage 1 order: ", 0), 0u) << lines.front();
  EXPECT_EQ(lines, StageLines(np4));
  EXPECT_EQ(np1.rows_out, np4.rows_out);
}

TEST(FilterStageTest, RejectedRowsSumToRowsDropped) {
  auto ops = FourteenOpPipeline();
  RunReport report = RunStage(ops, NoisyCorpus(300));
  const OpReport* stage = StageReport(report);
  ASSERT_NE(stage, nullptr);
  ASSERT_EQ(stage->stage.size(), 8u);
  size_t rejected = 0;
  for (const StageMember& m : stage->stage) rejected += m.rejected;
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(rejected, stage->rows_in - stage->rows_out);
}

TEST(FilterStageTest, RunsInRecipeOrder) {
  // The language filter, listed last, drops every row: the two keep-all
  // filters before it still see every row.
  Recipe r = MustRecipe(R"(
process:
  - word_num_filter:
      min: 0
  - text_length_filter:
      min: 0
  - language_id_score_filter:
      lang: zh
      min_score: 0.5
)");
  auto ops = MustBuildOps(r);
  RunReport report = RunStage(ops, NoisyCorpus(200));
  const OpReport* stage = StageReport(report);
  ASSERT_NE(stage, nullptr);
  ASSERT_EQ(stage->stage.size(), 3u);
  EXPECT_EQ(stage->stage[0].name, "word_num_filter");
  EXPECT_EQ(stage->stage[1].name, "text_length_filter");
  EXPECT_EQ(stage->stage[2].name, "language_id_score_filter");
  EXPECT_EQ(stage->stage[2].rejected, stage->rows_in);
}

TEST(FilterStageTest, StatReadingMemberRunsInTheStage) {
  // specified_numeric_field_filter reads the stat word_num_filter writes.
  // The stage takes each row through word_num_filter first, so the second
  // member sees the stat exactly as a unit of its own would.
  Recipe r = MustRecipe(R"(
process:
  - word_num_filter:
      min: 20
  - specified_numeric_field_filter:
      field: stats.num_words
      max: 200
)");
  for (int workers : {1, 4}) {
    SCOPED_TRACE("np " + std::to_string(workers));
    Executor::Options options;
    options.num_workers = workers;
    auto per_op_ops = MustBuildOps(r);
    auto expected = RunPerOp(NoisyCorpus(300), per_op_ops, options);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    auto ops = MustBuildOps(r);
    RunReport report;
    auto result = Executor(options).Run(NoisyCorpus(300), ops, &report);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(report.op_reports.size(), 1u);
    const OpReport& stage = report.op_reports.front();
    EXPECT_EQ(stage.kind, "fused_filter");
    ASSERT_EQ(stage.stage.size(), 2u);
    EXPECT_GT(stage.stage[0].rejected, 0u);
    EXPECT_GT(stage.stage[1].rejected, 0u);
    EXPECT_EQ(stage.stage[0].rejected + stage.stage[1].rejected,
              stage.rows_in - stage.rows_out);
    EXPECT_EQ(StageLines(report),
              std::vector<std::string>{
                  "stage 1 order: word_num_filter (" +
                  std::to_string(stage.stage[0].rejected) +
                  " rejected), specified_numeric_field_filter (" +
                  std::to_string(stage.stage[1].rejected) + " rejected)"});
    EXPECT_EQ(data::ToJsonl(result.value()), data::ToJsonl(expected.value()));
  }
}

TEST(FilterStageTest, TwoTextKeysGetOneContextEach) {
  // Two members per field, every row kept: a context shared per text_key
  // splits words once per row on text.a and lines once per row on text.b.
  Recipe r = MustRecipe(R"(
process:
  - word_num_filter:
      min: 1
      text_key: text.a
  - average_line_length_filter:
      min: 1
      text_key: text.b
  - stopwords_filter:
      min: 0.0
      text_key: text.a
  - maximum_line_length_filter:
      min: 1
      text_key: text.b
)");
  auto corpus = [] {
    std::vector<data::Sample> samples;
    for (int i = 0; i < 100; ++i) {
      data::Sample sample;
      sample.Set("text.a",
                 json::Value("the cat sat on the mat " + std::to_string(i)));
      sample.Set("text.b", json::Value("first line\nsecond line here"));
      samples.push_back(std::move(sample));
    }
    return data::Dataset::FromSamples(std::move(samples));
  };
  auto per_op_ops = MustBuildOps(r);
  auto expected = RunPerOp(corpus(), per_op_ops);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto ops = MustBuildOps(r);
  ASSERT_EQ(PlanFusion(ops).size(), 1u);
  Executor staged(Executor::Options{});
  ops::SampleContext::Counters::Reset();
  auto result = staged.Run(corpus(), ops, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ops::SampleContext::Counters::words.load(), 100u);
  EXPECT_EQ(ops::SampleContext::Counters::lines.load(), 100u);
  // Each member read its own field: the stats match the per-OP runs.
  EXPECT_EQ(data::SerializeDataset(expected.value()),
            data::SerializeDataset(result.value()));
}

// --------------------------------------------------------- run report ----

TEST(RunReportTest, LongUnitNameKeepsEveryColumnAndLine) {
  RunReport report;
  OpReport r;
  r.name = std::string(300, 'x');
  r.kind = "fused_filter";
  r.rows_in = 10;
  r.rows_out = 4;
  r.seconds = 0.5;
  r.cpu_share = 0.25;
  report.op_reports.push_back(r);
  report.rows_in = 10;
  report.rows_out = 4;
  std::string text = report.ToString();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  // The long row keeps its name whole and every column after it.
  size_t row = text.find(r.name);
  ASSERT_NE(row, std::string::npos);
  std::string line = text.substr(row, text.find('\n', row) - row);
  EXPECT_NE(line.find(" fused_filter "), std::string::npos) << line;
  EXPECT_NE(line.find(" 100.0% "), std::string::npos) << line;
  EXPECT_NE(line.find(" 25.0% "), std::string::npos) << line;
  EXPECT_EQ(line.back(), '-') << line;  // the cache column ends the row
  EXPECT_NE(text.find("\ntotal: "), std::string::npos) << text;
}

}  // namespace
}  // namespace dj::core
