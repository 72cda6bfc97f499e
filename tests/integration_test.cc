#include <gtest/gtest.h>

#include <filesystem>

#include "analysis/analyzer.h"
#include "analysis/sampler.h"
#include "core/executor.h"
#include "data/io.h"
#include "eval/benchmarks.h"
#include "eval/trainer.h"
#include "ops/formatters/formatters.h"
#include "ops/registry.h"
#include "workload/generator.h"

namespace dj {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/dj_integration_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// End-to-end: generate noisy corpus -> write jsonl -> recipe file ->
// formatter load -> executor (filter stages + cache + trace) -> export -> reload ->
// analyze. This is the paper's Fig. 5 loop minus the human.
TEST(IntegrationTest, FullRecipeRunFromDisk) {
  std::string dir = TempDir("full");

  // 1. Raw dataset on disk.
  workload::CorpusOptions corpus_options;
  corpus_options.style = workload::Style::kCrawl;
  corpus_options.num_docs = 80;
  corpus_options.exact_dup_rate = 0.2;
  corpus_options.spam_rate = 0.3;
  corpus_options.noise_rate = 0.3;
  corpus_options.seed = 99;
  data::Dataset raw = workload::CorpusGenerator(corpus_options).Generate();
  ASSERT_TRUE(data::WriteJsonl(raw, dir + "/raw.jsonl").ok());

  // 2. Recipe on disk.
  std::string recipe_yaml =
      "project_name: integration\n"
      "dataset_path: " + dir + "/raw.jsonl\n"
      "export_path: " + dir + "/refined.jsonl\n"
      "np: 2\n"
      "use_cache: true\n"
      "cache_dir: " + dir + "/cache\n"
      "cache_compression: true\n"
      "process:\n"
      "  - fix_unicode_mapper:\n"
      "  - whitespace_normalization_mapper:\n"
      "  - clean_links_mapper:\n"
      "  - remove_long_words_mapper:\n"
      "      max_len: 40\n"
      "  - text_length_filter:\n"
      "      min: 40\n"
      "  - word_num_filter:\n"
      "      min: 10\n"
      "  - flagged_words_filter:\n"
      "      max: 0.05\n"
      "  - word_repetition_filter:\n"
      "      max: 0.7\n"
      "  - document_exact_deduplicator:\n";
  ASSERT_TRUE(data::WriteFile(dir + "/recipe.yaml", recipe_yaml).ok());

  // 3. Load everything back and run.
  auto recipe = core::Recipe::FromFile(dir + "/recipe.yaml");
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto dataset = ops::LoadDataset(recipe.value().dataset_path);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset.value().NumRows(), 80u);

  auto pipeline_ops =
      core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(pipeline_ops.ok());

  core::Tracer tracer(5);
  core::Executor::Options exec_options =
      core::Executor::OptionsFromRecipe(recipe.value());
  exec_options.tracer = &tracer;
  core::Executor executor(exec_options);
  core::RunReport report;
  auto refined =
      executor.Run(std::move(dataset).value(), pipeline_ops.value(), &report);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_LT(refined.value().NumRows(), 80u);
  EXPECT_GT(refined.value().NumRows(), 10u);

  // 4. Export and reload.
  ASSERT_TRUE(
      data::WriteJsonl(refined.value(), recipe.value().export_path).ok());
  auto reloaded = data::ReadJsonl(recipe.value().export_path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().NumRows(), refined.value().NumRows());

  // 5. Tracer saw activity; cache has one file per plan unit (+1 is fine).
  EXPECT_FALSE(tracer.Totals().empty());
  core::CacheManager cache(dir + "/cache", true);
  EXPECT_GT(cache.TotalBytes(), 0u);

  // 6. Analyze the refined data: cleaner than raw on flagged-words ratio.
  analysis::Analyzer analyzer;
  data::Dataset raw_copy = raw;
  auto raw_probe = analyzer.Analyze(&raw_copy);
  data::Dataset refined_copy = refined.value();
  auto refined_probe = analyzer.Analyze(&refined_copy);
  ASSERT_TRUE(raw_probe.ok());
  ASSERT_TRUE(refined_probe.ok());
  auto flagged_mean = [](const analysis::DataProbe& probe) {
    for (const auto& dim : probe.dimensions) {
      if (dim.stat_key == "flagged_words_ratio") return dim.summary.mean;
    }
    return -1.0;
  };
  EXPECT_LT(flagged_mean(refined_probe.value()),
            flagged_mean(raw_probe.value()));
}

// Second run with the same recipe hits the cache for every unit.
TEST(IntegrationTest, RerunIsFullyCached) {
  std::string dir = TempDir("cached_rerun");
  workload::CorpusOptions options;
  options.num_docs = 30;
  options.seed = 7;
  data::Dataset corpus = workload::CorpusGenerator(options).Generate();

  auto recipe = core::Recipe::FromString(
      "use_cache: true\ncache_dir: " + dir +
      "\nprocess:\n  - lower_case_mapper:\n  - text_length_filter:\n"
      "      min: 5\n");
  ASSERT_TRUE(recipe.ok());
  auto pipeline1 = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  auto pipeline2 = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(pipeline1.ok());

  core::Executor::Options exec_options =
      core::Executor::OptionsFromRecipe(recipe.value());
  exec_options.dataset_source_id = "fixed-corpus";
  core::Executor executor(exec_options);
  core::RunReport r1, r2;
  ASSERT_TRUE(executor.Run(corpus, pipeline1.value(), &r1).ok());
  ASSERT_TRUE(executor.Run(corpus, pipeline2.value(), &r2).ok());
  EXPECT_EQ(r1.cache_hits, 0u);
  EXPECT_EQ(r2.cache_hits, 2u);
}

// Data-in-the-loop: refined data trains a better reference model than raw
// data at the same token budget — the Fig. 7 effect end-to-end.
TEST(IntegrationTest, RefinedDataTrainsBetterModel) {
  workload::CorpusOptions options;
  options.style = workload::Style::kCrawl;
  options.num_docs = 400;
  options.exact_dup_rate = 0.4;
  options.spam_rate = 0.8;
  options.boilerplate_rate = 0.8;
  options.noise_rate = 0.6;
  options.seed = 123;
  data::Dataset raw = workload::CorpusGenerator(options).Generate();

  auto recipe = core::Recipe::FromString(R"(
process:
  - fix_unicode_mapper:
  - whitespace_normalization_mapper:
  - remove_long_words_mapper:
  - flagged_words_filter:
      max: 0.05
  - word_repetition_filter:
      max: 0.7
  - stopwords_filter:
      min: 0.1
  - document_exact_deduplicator:
  - paragraph_exact_deduplicator:
)");
  ASSERT_TRUE(recipe.ok());
  auto pipeline = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(pipeline.ok());
  core::Executor executor{core::Executor::Options{}};
  auto refined = executor.Run(raw, pipeline.value(), nullptr);
  ASSERT_TRUE(refined.ok());
  ASSERT_GT(refined.value().NumRows(), 10u);

  eval::TrainOptions train;
  train.token_budget = 12000;
  train.max_epochs = 1;
  eval::TrainedModel raw_model = eval::PretrainReferenceModel(raw, train);
  eval::TrainedModel refined_model =
      eval::PretrainReferenceModel(refined.value(), train);

  eval::BenchmarkSuite suite = eval::BenchmarkSuite::CoreSuite();
  double raw_score =
      eval::BenchmarkSuite::AverageScore(suite.Evaluate(raw_model.model));
  double refined_score =
      eval::BenchmarkSuite::AverageScore(suite.Evaluate(refined_model.model));
  EXPECT_GT(refined_score, raw_score);
}

// Nested-field processing: post-tuning triplets where only text.output is
// filtered — the per-OP field targeting of Sec. 4.3.
TEST(IntegrationTest, NestedFieldPipeline) {
  workload::InstructionOptions options;
  options.num_samples = 100;
  options.low_quality_rate = 0.4;
  options.seed = 31;
  data::Dataset ds = workload::GenerateInstructionDataset(options);

  auto recipe = core::Recipe::FromString(R"(
process:
  - word_num_filter:
      text_key: text.output
      min: 8
  - flagged_words_filter:
      text_key: text.output
      max: 0.02
)");
  ASSERT_TRUE(recipe.ok());
  auto pipeline = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(pipeline.ok());
  core::Executor executor{core::Executor::Options{}};
  auto result = executor.Run(std::move(ds), pipeline.value(), nullptr);
  ASSERT_TRUE(result.ok());
  // All surviving samples are high quality.
  for (size_t i = 0; i < result.value().NumRows(); ++i) {
    EXPECT_EQ(result.value().GetTextAt(i, "meta.quality_label"), "high");
  }
  EXPECT_GT(result.value().NumRows(), 30u);
}

}  // namespace
}  // namespace dj
