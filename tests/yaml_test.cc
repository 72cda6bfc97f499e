#include <gtest/gtest.h>

#include "json/parser.h"
#include "json/writer.h"
#include "yaml/yaml.h"

namespace dj::yaml {
namespace {

json::Value MustParse(std::string_view text) {
  auto r = Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : json::Value();
}

TEST(YamlTest, EmptyDocumentIsEmptyObject) {
  EXPECT_TRUE(MustParse("").is_object());
  EXPECT_TRUE(MustParse("# only a comment\n").as_object().empty());
}

TEST(YamlTest, FlatMapping) {
  json::Value v = MustParse("name: demo\nnp: 4\nratio: 0.5\nflag: true\n");
  EXPECT_EQ(v.GetString("name", ""), "demo");
  EXPECT_EQ(v.GetInt("np", 0), 4);
  EXPECT_DOUBLE_EQ(v.GetDouble("ratio", 0), 0.5);
  EXPECT_TRUE(v.GetBool("flag", false));
}

TEST(YamlTest, NestedMapping) {
  json::Value v = MustParse(
      "outer:\n"
      "  inner:\n"
      "    deep: 7\n"
      "  sibling: x\n"
      "next: 1\n");
  const json::Value* outer = v.as_object().Find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->as_object().Find("inner")->GetInt("deep", 0), 7);
  EXPECT_EQ(outer->GetString("sibling", ""), "x");
  EXPECT_EQ(v.GetInt("next", 0), 1);
}

TEST(YamlTest, SequenceOfScalars) {
  json::Value v = MustParse("items:\n  - 1\n  - two\n  - 3.5\n");
  const json::Array& arr = v.as_object().Find("items")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[0].as_int(), 1);
  EXPECT_EQ(arr[1].as_string(), "two");
  EXPECT_DOUBLE_EQ(arr[2].as_double(), 3.5);
}

TEST(YamlTest, RecipeShapedProcessList) {
  // The canonical Data-Juicer recipe shape: list of single-key maps.
  json::Value v = MustParse(
      "process:\n"
      "  - whitespace_normalization_mapper:\n"
      "  - language_id_score_filter:\n"
      "      lang: en\n"
      "      min_score: 0.8\n"
      "  - document_exact_deduplicator:\n"
      "      lowercase: false\n");
  const json::Array& process = v.as_object().Find("process")->as_array();
  ASSERT_EQ(process.size(), 3u);
  EXPECT_TRUE(process[0]
                  .as_object()
                  .Find("whitespace_normalization_mapper")
                  ->is_null());
  const json::Value& filter =
      *process[1].as_object().Find("language_id_score_filter");
  EXPECT_EQ(filter.GetString("lang", ""), "en");
  EXPECT_DOUBLE_EQ(filter.GetDouble("min_score", 0), 0.8);
  EXPECT_FALSE(
      process[2].as_object().Find("document_exact_deduplicator")->GetBool(
          "lowercase", true));
}

TEST(YamlTest, SequenceItemMappingAlignedContinuation) {
  // Continuation at dash+2 indent is part of the item mapping (YAML rule).
  json::Value v = MustParse(
      "ops:\n"
      "  - name: f\n"
      "    cost: 2\n"
      "  - name: g\n");
  const json::Array& ops = v.as_object().Find("ops")->as_array();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].GetString("name", ""), "f");
  EXPECT_EQ(ops[0].GetInt("cost", 0), 2);
  EXPECT_EQ(ops[1].GetString("name", ""), "g");
}

TEST(YamlTest, InlineFlowCollections) {
  json::Value v = MustParse(
      "list: [1, two, 3.5]\n"
      "map: {a: 1, b: x}\n"
      "nested: [[1, 2], {k: [3]}]\n");
  EXPECT_EQ(v.as_object().Find("list")->as_array().size(), 3u);
  EXPECT_EQ(v.as_object().Find("map")->GetString("b", ""), "x");
  EXPECT_EQ(v.as_object()
                .Find("nested")
                ->as_array()[1]
                .as_object()
                .Find("k")
                ->as_array()[0]
                .as_int(),
            3);
}

TEST(YamlTest, FlowNestingBoundIsExact) {
  const int bound = json::kMaxNestingDepth;
  const std::string deepest = std::string(bound - 1, '[') + "{k: 1}" +
                              std::string(bound - 1, ']');
  json::Value v = MustParse("name: x\nmin: " + deepest + "\n");
  EXPECT_EQ(json::Write(*v.as_object().Find("min")), [&] {
    return std::string(bound - 1, '[') + "{\"k\":1}" +
           std::string(bound - 1, ']');
  }());
  auto r = Parse("name: x\nmin: [" + deepest + "]\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "yaml: flow value nested deeper than 256 levels at line 2");
}

TEST(YamlTest, QuotedStrings) {
  json::Value v = MustParse(
      "dq: \"has: colon and # hash\"\n"
      "sq: 'single ''quoted'''\n"
      "num_str: \"42\"\n");
  EXPECT_EQ(v.GetString("dq", ""), "has: colon and # hash");
  EXPECT_EQ(v.GetString("sq", ""), "single 'quoted'");
  EXPECT_EQ(v.GetString("num_str", ""), "42");  // quoting keeps it a string
}

TEST(YamlTest, CommentsStripped) {
  json::Value v = MustParse(
      "# leading comment\n"
      "a: 1  # trailing comment\n"
      "b: 2\n");
  EXPECT_EQ(v.GetInt("a", 0), 1);
  EXPECT_EQ(v.GetInt("b", 0), 2);
}

TEST(YamlTest, NullValues) {
  json::Value v = MustParse("a: null\nb: ~\nc:\n");
  EXPECT_TRUE(v.as_object().Find("a")->is_null());
  EXPECT_TRUE(v.as_object().Find("b")->is_null());
  EXPECT_TRUE(v.as_object().Find("c")->is_null());
}

TEST(YamlTest, TopLevelSequence) {
  json::Value v = MustParse("- a\n- b\n");
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.as_array().size(), 2u);
}

TEST(YamlTest, DocumentMarkerTolerated) {
  EXPECT_EQ(MustParse("---\na: 1\n").GetInt("a", 0), 1);
}

TEST(YamlTest, RejectsTabs) {
  EXPECT_FALSE(Parse("a:\n\tb: 1\n").ok());
}

TEST(YamlTest, RejectsAnchorsAndBlockScalars) {
  EXPECT_FALSE(Parse("a: &anchor 1\n").ok());
  EXPECT_FALSE(Parse("a: |\n  text\n").ok());
}

TEST(YamlTest, RejectsNonMappingLine) {
  EXPECT_FALSE(Parse("just a bare sentence\n").ok());
}

TEST(YamlTest, NegativeAndScientificNumbers) {
  json::Value v = MustParse("a: -3\nb: 1e-4\n");
  EXPECT_EQ(v.GetInt("a", 0), -3);
  EXPECT_DOUBLE_EQ(v.GetDouble("b", 0), 1e-4);
}

}  // namespace
}  // namespace dj::yaml
