// Micro-benchmarks (google-benchmark): per-OP throughput by category,
// deduplication method comparison, tokenizer / hashing / codec primitives.
// Complements the figure/table benches with operator-level numbers
// (paper Table 1's categories).

#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "compress/djlz.h"
#include "data/io.h"
#include "json/parser.h"
#include "ops/dedup/document_dedup.h"
#include "ops/filters/lexicon_filters.h"
#include "ops/filters/model_filters.h"
#include "ops/filters/stats_filters.h"
#include "ops/mappers/clean_mappers.h"
#include "ops/mappers/text_mappers.h"
#include "text/ngram_lm.h"
#include "text/tokenizer.h"
#include "workload/generator.h"

namespace {

const std::string& SampleText() {
  static const std::string* text = [] {
    dj::workload::CorpusOptions options;
    options.style = dj::workload::Style::kWeb;
    options.num_docs = 1;
    options.mean_words = 400;
    options.seed = 1;
    auto ds = dj::workload::CorpusGenerator(options).Generate();
    return new std::string(ds.GetTextAt(0));
  }();
  return *text;
}

dj::data::Dataset BenchCorpus(size_t docs) {
  dj::workload::CorpusOptions options;
  options.style = dj::workload::Style::kCrawl;
  options.num_docs = docs;
  options.exact_dup_rate = 0.2;
  options.seed = 2;
  return dj::workload::CorpusGenerator(options).Generate();
}

dj::json::Value EmptyConfig() { return dj::json::Value(dj::json::Object()); }

// Primitives ---------------------------------------------------------------

void BM_TokenizeWords(benchmark::State& state) {
  const std::string& text = SampleText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dj::text::TokenizeWords(text));
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_TokenizeWords);

void BM_Fnv1a64(benchmark::State& state) {
  const std::string& text = SampleText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dj::Fnv1a64(text));
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_Fnv1a64);

void BM_JsonParse(benchmark::State& state) {
  std::string line = dj::data::ToJsonl(BenchCorpus(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dj::json::ParseStrict(line));
  }
  state.SetBytesProcessed(state.iterations() * line.size());
}
BENCHMARK(BM_JsonParse);

void BM_DjlzCompress(benchmark::State& state) {
  std::string blob = dj::data::SerializeDataset(BenchCorpus(50));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dj::compress::CompressBlock(blob));
  }
  state.SetBytesProcessed(state.iterations() * blob.size());
}
BENCHMARK(BM_DjlzCompress);

void BM_NgramLmPerplexity(benchmark::State& state) {
  const auto& lm = dj::text::NgramLm::DefaultEnglish();
  const std::string& text = SampleText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.Perplexity(text));
  }
}
BENCHMARK(BM_NgramLmPerplexity);

// Mappers --------------------------------------------------------------

template <typename MapperT>
void BM_Mapper(benchmark::State& state) {
  MapperT mapper(EmptyConfig());
  const std::string& text = SampleText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.TransformText(text));
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_Mapper<dj::ops::WhitespaceNormalizationMapper>);
BENCHMARK(BM_Mapper<dj::ops::FixUnicodeMapper>);
BENCHMARK(BM_Mapper<dj::ops::CleanLinksMapper>);
BENCHMARK(BM_Mapper<dj::ops::CleanEmailMapper>);
BENCHMARK(BM_Mapper<dj::ops::RemoveLongWordsMapper>);
BENCHMARK(BM_Mapper<dj::ops::SentenceSplitMapper>);

// Filters --------------------------------------------------------------

template <typename FilterT>
void BM_FilterComputeStats(benchmark::State& state) {
  FilterT filter(EmptyConfig());
  dj::data::Dataset ds = dj::data::Dataset::FromTexts({SampleText()});
  ds.EnsureColumn(dj::data::kStatsField);
  for (auto _ : state) {
    // Clear the stat so every iteration recomputes.
    *ds.MutableCell(dj::data::kStatsField, 0) =
        dj::json::Value(dj::json::Object());
    dj::ops::SampleContext ctx(ds.GetTextAt(0));
    benchmark::DoNotOptimize(filter.ComputeStats(ds.Row(0), &ctx));
  }
}
BENCHMARK(BM_FilterComputeStats<dj::ops::TextLengthFilter>);
BENCHMARK(BM_FilterComputeStats<dj::ops::WordNumFilter>);
BENCHMARK(BM_FilterComputeStats<dj::ops::StopwordsFilter>);
BENCHMARK(BM_FilterComputeStats<dj::ops::WordRepetitionFilter>);
BENCHMARK(BM_FilterComputeStats<dj::ops::LanguageIdScoreFilter>);
BENCHMARK(BM_FilterComputeStats<dj::ops::PerplexityFilter>);
BENCHMARK(BM_FilterComputeStats<dj::ops::QualityScoreFilter>);

// Deduplicators ---------------------------------------------------------

template <typename DedupT>
void BM_Dedup(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    dj::data::Dataset ds = BenchCorpus(static_cast<size_t>(state.range(0)));
    DedupT dedup(EmptyConfig());
    state.ResumeTiming();
    benchmark::DoNotOptimize(dedup.Deduplicate(std::move(ds), nullptr,
                                               nullptr));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Dedup<dj::ops::DocumentExactDeduplicator>)->Arg(200);
BENCHMARK(BM_Dedup<dj::ops::DocumentSimHashDeduplicator>)->Arg(200);
BENCHMARK(BM_Dedup<dj::ops::DocumentMinHashDeduplicator>)->Arg(200);
BENCHMARK(BM_Dedup<dj::ops::NgramOverlapDeduplicator>)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
