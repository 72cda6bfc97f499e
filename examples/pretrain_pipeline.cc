// Pre-training data pipeline: merge several corpus sources (RedPajama-style
// mixture), refine with a pre-training recipe, and show the effect on a
// reference model at a fixed token budget — the Fig. 7 workflow in miniature.
//
// Run: ./pretrain_pipeline

#include <cstdio>

#include "core/executor.h"
#include "eval/benchmarks.h"
#include "eval/trainer.h"
#include "ops/registry.h"
#include "workload/generator.h"

namespace {

dj::data::Dataset BuildRawMixture() {
  // CommonCrawl-like + arXiv-like + StackExchange-like sources with the
  // real corpora's failure modes.
  dj::workload::CorpusOptions crawl;
  crawl.style = dj::workload::Style::kCrawl;
  crawl.num_docs = 300;
  crawl.exact_dup_rate = 0.3;
  crawl.spam_rate = 0.6;
  crawl.noise_rate = 0.4;
  crawl.seed = 11;

  dj::workload::CorpusOptions arxiv;
  arxiv.style = dj::workload::Style::kArxiv;
  arxiv.num_docs = 80;
  arxiv.seed = 12;

  dj::workload::CorpusOptions qa;
  qa.style = dj::workload::Style::kStackExchange;
  qa.num_docs = 120;
  qa.exact_dup_rate = 0.1;
  qa.seed = 13;

  dj::data::Dataset mixture =
      dj::workload::CorpusGenerator(crawl).Generate();
  mixture.Concat(dj::workload::CorpusGenerator(arxiv).Generate());
  mixture.Concat(dj::workload::CorpusGenerator(qa).Generate());
  return mixture;
}

constexpr const char* kPretrainRecipe = R"(
project_name: pretrain-refine
np: 2
process:
  # LaTeX cleanup (hits the arXiv subset).
  - remove_header_mapper:
  - remove_comments_mapper:
  - remove_bibliography_mapper:
  - remove_table_text_mapper:
  # General text cleanup.
  - fix_unicode_mapper:
  - clean_links_mapper:
  - clean_email_mapper:
  - whitespace_normalization_mapper:
  - remove_long_words_mapper:
      max_len: 40
  # Quality filters.
  - text_length_filter:
      min: 80
  - word_num_filter:
      min: 20
  - stopwords_filter:
      min: 0.08
  - flagged_words_filter:
      max: 0.02
  - character_repetition_filter:
      max: 0.4
  - word_repetition_filter:
      max: 0.6
  - special_characters_filter:
      max: 0.4
  # Deduplication.
  - document_exact_deduplicator:
  - paragraph_exact_deduplicator:
)";

}  // namespace

int main() {
  dj::data::Dataset raw = BuildRawMixture();
  std::printf("raw mixture: %zu documents\n", raw.NumRows());

  auto recipe = dj::core::Recipe::FromString(kPretrainRecipe);
  if (!recipe.ok()) {
    std::fprintf(stderr, "%s\n", recipe.status().ToString().c_str());
    return 1;
  }
  auto ops = dj::core::BuildOps(recipe.value(), dj::ops::OpRegistry::Global());
  if (!ops.ok()) {
    std::fprintf(stderr, "%s\n", ops.status().ToString().c_str());
    return 1;
  }
  dj::core::Executor executor(
      dj::core::Executor::OptionsFromRecipe(recipe.value()));
  dj::core::RunReport report;
  auto refined = executor.Run(raw, ops.value(), &report);
  if (!refined.ok()) {
    std::fprintf(stderr, "%s\n", refined.status().ToString().c_str());
    return 1;
  }
  std::printf("\nper-OP report:\n%s\n", report.ToString().c_str());

  // Train two reference models at the same token budget and compare on the
  // 16-task proxy suite.
  dj::eval::TrainOptions train;
  train.token_budget = 15000;
  train.max_epochs = 1;
  auto raw_model = dj::eval::PretrainReferenceModel(raw, train);
  auto refined_model =
      dj::eval::PretrainReferenceModel(refined.value(), train);
  dj::eval::BenchmarkSuite suite = dj::eval::BenchmarkSuite::CoreSuite();
  double raw_score =
      dj::eval::BenchmarkSuite::AverageScore(suite.Evaluate(raw_model.model));
  double refined_score = dj::eval::BenchmarkSuite::AverageScore(
      suite.Evaluate(refined_model.model));
  std::printf("reference model @%llu tokens:  raw data %.2f  |  "
              "Data-Juicer recipe %.2f\n",
              static_cast<unsigned long long>(train.token_budget), raw_score,
              refined_score);
  return 0;
}
