#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/executor.h"
#include "data/io.h"
#include "json/parser.h"
#include "json/writer.h"
#include "ops/registry.h"
#include "per_op_reference.h"
#include "workload/generator.h"
#include "yaml/yaml.h"

namespace dj {
namespace {

/// Random JSON value generator for round-trip properties.
json::Value RandomValue(Rng* rng, int depth) {
  int pick = static_cast<int>(rng->NextBelow(depth >= 3 ? 5 : 7));
  switch (pick) {
    case 0:
      return json::Value(nullptr);
    case 1:
      return json::Value(rng->Bernoulli(0.5));
    case 2:
      return json::Value(rng->UniformInt(-1'000'000'000, 1'000'000'000));
    case 3:
      return json::Value(rng->Uniform(-1e6, 1e6));
    case 4: {
      std::string s;
      size_t len = rng->NextBelow(20);
      for (size_t i = 0; i < len; ++i) {
        uint32_t kind = static_cast<uint32_t>(rng->NextBelow(10));
        if (kind < 7) {
          s.push_back(static_cast<char>('a' + rng->NextBelow(26)));
        } else if (kind == 7) {
          s += "\xE4\xB8\xAD";  // CJK
        } else if (kind == 8) {
          s.push_back('"');
        } else {
          s.push_back('\n');
        }
      }
      return json::Value(std::move(s));
    }
    case 5: {
      json::Array arr;
      size_t n = rng->NextBelow(4);
      for (size_t i = 0; i < n; ++i) arr.push_back(RandomValue(rng, depth + 1));
      return json::Value(std::move(arr));
    }
    default: {
      json::Object obj;
      size_t n = rng->NextBelow(4);
      for (size_t i = 0; i < n; ++i) {
        std::string key = "k";
        key += std::to_string(i);
        obj.Set(std::move(key), RandomValue(rng, depth + 1));
      }
      return json::Value(std::move(obj));
    }
  }
}

class JsonRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTripProperty, WriteParseIsIdentity) {
  Rng rng(GetParam() * 1000 + 17);
  for (int i = 0; i < 50; ++i) {
    json::Value v = RandomValue(&rng, 0);
    std::string text = json::Write(v);
    auto back = json::ParseStrict(text);
    ASSERT_TRUE(back.ok()) << text << " : " << back.status().ToString();
    EXPECT_EQ(back.value(), v) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Range(1, 9));

class BinaryCodecProperty : public ::testing::TestWithParam<int> {};

TEST_P(BinaryCodecProperty, SerializeDeserializeIsIdentity) {
  Rng rng(GetParam() * 77 + 3);
  for (int i = 0; i < 50; ++i) {
    json::Value v = RandomValue(&rng, 0);
    std::string bytes;
    data::SerializeValue(v, &bytes);
    auto back = data::DeserializeValue(bytes);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryCodecProperty, ::testing::Range(1, 9));

class DatasetCodecProperty
    : public ::testing::TestWithParam<workload::Style> {};

TEST_P(DatasetCodecProperty, DatasetSurvivesJsonlAndBinary) {
  workload::CorpusOptions options;
  options.style = GetParam();
  options.num_docs = 25;
  options.seed = 4242;
  data::Dataset ds = workload::CorpusGenerator(options).Generate();

  // Binary round trip preserves rows and text exactly.
  auto binary = data::DeserializeDataset(data::SerializeDataset(ds));
  ASSERT_TRUE(binary.ok());
  ASSERT_EQ(binary.value().NumRows(), ds.NumRows());
  for (size_t i = 0; i < ds.NumRows(); ++i) {
    EXPECT_EQ(binary.value().GetTextAt(i), ds.GetTextAt(i));
  }

  // JSONL round trip too (valid UTF-8 corpus text).
  auto jsonl = data::ParseJsonl(data::ToJsonl(ds));
  ASSERT_TRUE(jsonl.ok());
  ASSERT_EQ(jsonl.value().NumRows(), ds.NumRows());
  for (size_t i = 0; i < ds.NumRows(); ++i) {
    EXPECT_EQ(jsonl.value().GetTextAt(i), ds.GetTextAt(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Styles, DatasetCodecProperty,
    ::testing::Values(workload::Style::kWiki, workload::Style::kArxiv,
                      workload::Style::kStackExchange, workload::Style::kCode,
                      workload::Style::kCrawl, workload::Style::kChinese),
    [](const ::testing::TestParamInfo<workload::Style>& info) {
      return workload::StyleName(info.param);
    });

// Executor invariants that must hold for ANY recipe built from built-in OPs:
//  * rows_out <= rows_in (no OP invents samples)
//  * executing twice on the same input gives the same output (determinism)
//  * one run, with its filter stages, exports the same JSONL bytes (stats
//    included) as one Executor::Run per OP, at np 1 and at np 4
class ExecutorInvariantProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ExecutorInvariantProperty, DeterministicMonotoneEqualToPerOpRuns) {
  auto recipe = core::Recipe::FromString(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();

  workload::CorpusOptions options;
  options.style = workload::Style::kCrawl;
  options.num_docs = 50;
  options.exact_dup_rate = 0.2;
  options.spam_rate = 0.3;
  options.seed = 2024;
  data::Dataset corpus = workload::CorpusGenerator(options).Generate();

  // Fresh OPs per run: dedup OPs carry fingerprint state across runs.
  auto run = [&](bool per_op, int workers) {
    auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
    EXPECT_TRUE(ops.ok());
    core::Executor::Options exec_options;
    exec_options.num_workers = workers;
    auto result =
        per_op ? RunPerOp(corpus, ops.value(), exec_options)
               : core::Executor(exec_options).Run(corpus, ops.value());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(result).value() : data::Dataset();
  };

  data::Dataset reference = run(/*per_op=*/true, 1);
  EXPECT_LE(reference.NumRows(), corpus.NumRows());
  const std::string expected = data::ToJsonl(reference);
  EXPECT_EQ(data::ToJsonl(run(/*per_op=*/true, 4)), expected);
  for (int workers : {1, 4}) {
    EXPECT_EQ(data::ToJsonl(run(/*per_op=*/false, workers)), expected)
        << "np " << workers;
  }
  EXPECT_EQ(data::ToJsonl(run(/*per_op=*/false, 1)), expected)
      << "second run";
}

// Fuzz-ish robustness: random byte soup must never crash the parsers —
// every input either parses or returns a clean error Status.
class ParserRobustnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(ParserRobustnessProperty, RandomBytesNeverCrash) {
  Rng rng(GetParam() * 31337);
  for (int i = 0; i < 200; ++i) {
    std::string soup;
    size_t len = rng.NextBelow(200);
    for (size_t b = 0; b < len; ++b) {
      // Mix of structural chars, whitespace, and arbitrary bytes.
      uint32_t kind = static_cast<uint32_t>(rng.NextBelow(4));
      if (kind == 0) {
        constexpr char kStructural[] = "{}[]:,\"'-\n #&*|0123456789.e";
        soup.push_back(kStructural[rng.NextBelow(sizeof(kStructural) - 1)]);
      } else if (kind == 1) {
        soup.push_back(static_cast<char>('a' + rng.NextBelow(26)));
      } else if (kind == 2) {
        soup.push_back(' ');
      } else {
        soup.push_back(static_cast<char>(rng.NextBelow(256)));
      }
    }
    (void)json::Parse(soup);           // must not crash / hang
    (void)json::ParseStrict(soup);
    (void)yaml::Parse(soup);
    (void)data::ParseJsonl(soup);
    (void)data::DeserializeValue(soup);
    (void)data::DeserializeDataset(soup);
    (void)core::Recipe::FromString(soup);
  }
}

// 100,000 levels of arrays and objects, opened in a seeded order, must be
// a clean error naming the nesting bound, never a stack overflow.
TEST_P(ParserRobustnessProperty, DeepNestingIsACleanError) {
  Rng rng(GetParam() * 7919);
  std::string open, close;
  for (int i = 0; i < 100000; ++i) {
    const bool array = rng.NextBelow(2) == 0;
    open += array ? "[" : "{\"k\":";
    close += array ? "]" : "}";
  }
  std::reverse(close.begin(), close.end());
  const std::string json = "{\"text\":\"t\",\"x\":" + open + close + "}";
  const std::string yaml = "project_name: deep\nx: " + open + close + "\n";
  auto expect_bound = [](const Status& status, std::string_view what) {
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_NE(status.message().find("nested deeper than 256 levels"),
              std::string::npos)
        << what << ": " << status.ToString();
  };
  expect_bound(json::Parse(json).status(), "json::Parse");
  expect_bound(json::ParseStrict(json).status(), "json::ParseStrict");
  expect_bound(data::ParseJsonl(json + "\n").status(), "data::ParseJsonl");
  expect_bound(yaml::Parse(yaml).status(), "yaml::Parse");
  expect_bound(core::Recipe::FromString(json).status(), "Recipe (json)");
  expect_bound(core::Recipe::FromString(yaml).status(), "Recipe (yaml)");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessProperty,
                         ::testing::Range(1, 7));

INSTANTIATE_TEST_SUITE_P(
    Recipes, ExecutorInvariantProperty,
    ::testing::Values(
        // Mapper-only.
        "process:\n"
        "  - lower_case_mapper:\n"
        "  - whitespace_normalization_mapper:\n",
        // Filter-heavy.
        "process:\n"
        "  - text_length_filter:\n      min: 30\n"
        "  - word_num_filter:\n      min: 5\n"
        "  - stopwords_filter:\n      min: 0.05\n"
        "  - flagged_words_filter:\n      max: 0.1\n"
        "  - special_characters_filter:\n      max: 0.5\n",
        // Mixed with dedup at the end.
        "process:\n"
        "  - fix_unicode_mapper:\n"
        "  - word_repetition_filter:\n      max: 0.8\n"
        "  - word_num_filter:\n      min: 3\n"
        "  - document_exact_deduplicator:\n",
        // Dedup sandwich.
        "process:\n"
        "  - document_minhash_deduplicator:\n      jaccard_threshold: 0.8\n"
        "  - text_length_filter:\n      min: 10\n"
        "  - sentence_exact_deduplicator:\n",
        // Stage shapes an effect check would refuse; recipe order makes
        // each one safe. A member reads the stat an earlier member writes:
        "process:\n"
        "  - word_num_filter:\n      min: 140\n"
        "  - specified_numeric_field_filter:\n"
        "      field: stats.num_words\n      max: 190\n",
        // Two members write the same stat (the second reuses the first's):
        "process:\n"
        "  - word_num_filter:\n      min: 140\n"
        "  - word_num_filter:\n      max: 190\n",
        // A member whose field placeholder does not resolve (it keeps every
        // row), between two members that drop rows:
        "process:\n"
        "  - text_length_filter:\n      min: 900\n"
        "  - specified_field_filter:\n      field: ''\n"
        "  - stopwords_filter:\n      min: 0.3\n"));

}  // namespace
}  // namespace dj
