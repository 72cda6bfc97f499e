#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/histogram.h"
#include "analysis/sampler.h"
#include "common/thread_pool.h"
#include "json/parser.h"
#include "json/writer.h"
#include "workload/generator.h"

namespace dj::analysis {
namespace {

// ---------------------------------------------------------- histogram ----

TEST(SummarizeTest, BasicMoments) {
  SummaryStats s = Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(SummarizeTest, EmptyAndSingle) {
  EXPECT_EQ(Summarize({}).count, 0u);
  SummaryStats one = Summarize({7});
  EXPECT_DOUBLE_EQ(one.mean, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
}

TEST(HistogramTest, BinsCoverRange) {
  Histogram h = BuildHistogram({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5);
  ASSERT_EQ(h.bins.size(), 5u);
  size_t total = 0;
  for (size_t b : h.bins) total += b;
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(h.bins[0], 2u);  // 0,1
  EXPECT_EQ(h.bins[4], 2u);  // 8,9 (max lands in last bin)
}

TEST(HistogramTest, ConstantValuesSingleBin) {
  Histogram h = BuildHistogram({3, 3, 3}, 4);
  EXPECT_EQ(h.bins[0], 3u);
}

TEST(HistogramTest, RenderOutputs) {
  Histogram h = BuildHistogram({1, 2, 2, 3}, 2);
  std::string out = RenderHistogram(h);
  EXPECT_NE(out.find('#'), std::string::npos);
  SummaryStats s = Summarize({1, 2, 2, 3});
  EXPECT_NE(RenderBoxPlot(s).find('M'), std::string::npos);
}

// ----------------------------------------------------------- analyzer ----

TEST(AnalyzerTest, ThirteenDefaultDimensions) {
  auto filters = Analyzer::DefaultFilters("text");
  EXPECT_EQ(filters.size(), 13u);
}

TEST(AnalyzerTest, ProbeCoversAllNumericDimensions) {
  workload::CorpusOptions options;
  options.num_docs = 40;
  options.seed = 17;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();
  Analyzer analyzer;
  auto probe = analyzer.Analyze(&ds);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe.value().num_samples, 40u);
  EXPECT_EQ(probe.value().dimensions.size(), 13u);
  for (const DimensionReport& dim : probe.value().dimensions) {
    EXPECT_EQ(dim.summary.count, 40u) << dim.stat_key;
    EXPECT_GE(dim.summary.max, dim.summary.min) << dim.stat_key;
  }
}

// The analyzer_probe example's corpus and bins: the probe does not depend on
// the caller's pool.
TEST(AnalyzerTest, ProbeIsTheSameWithNoPoolAndAtEveryWidth) {
  workload::CorpusOptions corpus;
  corpus.style = workload::Style::kWeb;
  corpus.num_docs = 200;
  corpus.spam_rate = 0.2;
  corpus.short_doc_rate = 0.1;
  corpus.seed = 5;
  const data::Dataset ds = workload::CorpusGenerator(corpus).Generate();
  Analyzer::Options options;
  options.histogram_bins = 8;
  const Analyzer analyzer(options);
  auto probe_json = [&](ThreadPool* pool) {
    data::Dataset copy = ds;
    auto probe = analyzer.Analyze(&copy, pool);
    EXPECT_TRUE(probe.ok()) << probe.status().ToString();
    return probe.ok() ? json::Write(probe.value().ToJson()) : "";
  };
  const std::string inline_json = probe_json(nullptr);
  ASSERT_NE(inline_json.find("verb_noun_diversity"), std::string::npos);
  for (size_t width : {2, 4}) {
    ThreadPool pool(width);
    EXPECT_EQ(probe_json(&pool), inline_json) << "width " << width;
  }
}

TEST(AnalyzerTest, StatsMaterializeInDataset) {
  data::Dataset ds = data::Dataset::FromTexts(
      {"the committee describes the annual report in detail"});
  Analyzer analyzer;
  ASSERT_TRUE(analyzer.Analyze(&ds).ok());
  EXPECT_GT(ds.GetNumberAt(0, "stats.num_words"), 0.0);
  EXPECT_GT(ds.GetNumberAt(0, "stats.text_len"), 0.0);
  EXPECT_GT(ds.GetNumberAt(0, "stats.stopwords_ratio"), 0.0);
}

TEST(AnalyzerTest, VerbNounDiversityDetected) {
  data::Dataset ds = data::Dataset::FromTexts({
      "describe the experiment in detail",
      "describe the method and the results",
      "write a story about dragons",
  });
  Analyzer analyzer;
  auto probe = analyzer.Analyze(&ds);
  ASSERT_TRUE(probe.ok());
  ASSERT_FALSE(probe.value().verb_noun_diversity.empty());
  EXPECT_EQ(probe.value().verb_noun_diversity[0].verb, "describe");
  EXPECT_EQ(probe.value().verb_noun_diversity[0].count, 2u);
  ASSERT_FALSE(probe.value().verb_noun_diversity[0].objects.empty());
  EXPECT_EQ(probe.value().verb_noun_diversity[0].objects[0].first,
            "experiment");
}

TEST(AnalyzerTest, ReportRendersAndExports) {
  workload::CorpusOptions options;
  options.num_docs = 10;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();
  Analyzer analyzer;
  auto probe = analyzer.Analyze(&ds);
  ASSERT_TRUE(probe.ok());
  EXPECT_NE(probe.value().ToString().find("num_words"), std::string::npos);
  std::string csv = probe.value().SummaryCsv();
  EXPECT_NE(csv.find("stat,count,mean"), std::string::npos);
  EXPECT_NE(csv.find("text_len"), std::string::npos);
}

TEST(AnalyzerTest, JsonExportRoundTripsThroughParser) {
  workload::CorpusOptions options;
  options.num_docs = 15;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();
  Analyzer analyzer;
  auto probe = analyzer.Analyze(&ds);
  ASSERT_TRUE(probe.ok());
  json::Value exported = probe.value().ToJson();
  EXPECT_EQ(exported.GetInt("num_samples", 0), 15);
  const json::Value* dims = exported.as_object().Find("dimensions");
  ASSERT_NE(dims, nullptr);
  EXPECT_EQ(dims->as_array().size(), 13u);
  // Serialized form parses back identically.
  auto reparsed = json::ParseStrict(json::Write(exported));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value(), exported);
}

TEST(AnalyzerTest, CustomTextKey) {
  data::Sample s;
  s.Set("text.output", json::Value("several words in the nested field"));
  data::Dataset ds = data::Dataset::FromSamples({s});
  Analyzer::Options options;
  options.text_key = "text.output";
  Analyzer analyzer(options);
  ASSERT_TRUE(analyzer.Analyze(&ds).ok());
  EXPECT_GT(ds.GetNumberAt(0, "stats.num_words"), 3.0);
}

// ------------------------------------------------------------ sampler ----

data::Dataset LabeledDataset() {
  data::Dataset ds;
  for (int i = 0; i < 90; ++i) {
    data::Sample s;
    s.Set("text", json::Value("doc " + std::to_string(i)));
    s.Set("meta.lang", json::Value(i < 60 ? "en" : (i < 80 ? "zh" : "de")));
    s.Set("stats.score", json::Value(static_cast<double>(i)));
    ds.AppendSample(s);
  }
  return ds;
}

TEST(SamplerTest, RandomSampleSizeAndDeterminism) {
  data::Dataset ds = LabeledDataset();
  Sampler s1(5), s2(5);
  data::Dataset a = s1.Random(ds, 10);
  data::Dataset b = s2.Random(ds, 10);
  EXPECT_EQ(a.NumRows(), 10u);
  for (size_t i = 0; i < a.NumRows(); ++i) {
    EXPECT_EQ(a.GetTextAt(i), b.GetTextAt(i));
  }
  EXPECT_EQ(s1.Random(ds, 1000).NumRows(), ds.NumRows());
}

TEST(SamplerTest, TopKByField) {
  data::Dataset ds = LabeledDataset();
  Sampler sampler;
  data::Dataset top = sampler.TopKByField(ds, "stats.score", 3);
  ASSERT_EQ(top.NumRows(), 3u);
  EXPECT_EQ(top.GetTextAt(0), "doc 87");
  EXPECT_EQ(top.GetTextAt(2), "doc 89");
  data::Dataset bottom =
      sampler.TopKByField(ds, "stats.score", 2, /*descending=*/false);
  EXPECT_EQ(bottom.GetTextAt(0), "doc 0");
}

TEST(SamplerTest, StratifiedKeepsAllStrata) {
  data::Dataset ds = LabeledDataset();
  Sampler sampler;
  data::Dataset sample = sampler.Stratified(ds, "meta.lang", 18);
  EXPECT_EQ(sample.NumRows(), 18u);
  size_t en = 0, zh = 0, de = 0;
  for (size_t i = 0; i < sample.NumRows(); ++i) {
    std::string_view lang = sample.GetTextAt(i, "meta.lang");
    en += lang == "en";
    zh += lang == "zh";
    de += lang == "de";
  }
  EXPECT_GT(en, zh);  // proportional: 60/20/10 source split
  EXPECT_GE(zh, 1u);
  EXPECT_GE(de, 1u);
}

TEST(SamplerTest, WherePredicate) {
  data::Dataset ds = LabeledDataset();
  Sampler sampler;
  data::Dataset zh = sampler.Where(
      ds,
      [](const data::Dataset& d, size_t i) {
        return d.GetTextAt(i, "meta.lang") == "zh";
      },
      100);
  EXPECT_EQ(zh.NumRows(), 20u);
}

TEST(SamplerTest, DiversityAwareSpreadsVerbs) {
  data::Dataset ds;
  for (int i = 0; i < 30; ++i) {
    ds.AppendSample(data::Sample::FromText("describe the system number " +
                                           std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    ds.AppendSample(data::Sample::FromText("write a poem number " +
                                           std::to_string(i)));
    ds.AppendSample(data::Sample::FromText("compare the options number " +
                                           std::to_string(i)));
  }
  Sampler sampler;
  data::Dataset sample = sampler.DiversityAware(ds, "text", 6);
  ASSERT_EQ(sample.NumRows(), 6u);
  size_t rare = 0;
  for (size_t i = 0; i < sample.NumRows(); ++i) {
    std::string_view t = sample.GetTextAt(i);
    if (t.find("poem") != std::string_view::npos ||
        t.find("compare") != std::string_view::npos) {
      ++rare;
    }
  }
  // Round-robin across signatures guarantees rare groups are represented
  // far beyond their population share.
  EXPECT_GE(rare, 3u);
}

}  // namespace
}  // namespace dj::analysis
