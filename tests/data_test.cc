#include <gtest/gtest.h>

#include <filesystem>

#include "data/dataset.h"
#include "data/io.h"
#include "data/path.h"
#include "data/sample.h"
#include "json/parser.h"

namespace dj::data {
namespace {

Sample MakeSample(std::string_view json_text) {
  auto r = json::ParseStrict(json_text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return Sample(std::move(r.value().as_object()));
}

// --------------------------------------------------------------- path ----

TEST(PathTest, SplitPath) {
  EXPECT_EQ(SplitPath("a.b.c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitPath("a"), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(SplitPath("").empty());
}

TEST(PathTest, FindPathNested) {
  Sample s = MakeSample(R"({"text": {"instruction": "do it"}, "meta": 1})");
  const json::Value* v = FindPath(s.fields(), "text.instruction");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->as_string(), "do it");
  EXPECT_EQ(FindPath(s.fields(), "text.missing"), nullptr);
  EXPECT_EQ(FindPath(s.fields(), "meta.x"), nullptr);  // non-object traversal
}

TEST(PathTest, SetPathCreatesIntermediates) {
  json::Object root;
  EXPECT_TRUE(SetPath(root, "stats.word_count", json::Value(42)));
  EXPECT_EQ(FindPath(root, "stats.word_count")->as_int(), 42);
  // Refuses to tunnel through a scalar.
  root.Set("leaf", json::Value(1));
  EXPECT_FALSE(SetPath(root, "leaf.inner", json::Value(2)));
}

TEST(PathTest, RemovePath) {
  json::Object root;
  SetPath(root, "a.b.c", json::Value(1));
  EXPECT_TRUE(RemovePath(root, "a.b.c"));
  EXPECT_EQ(FindPath(root, "a.b.c"), nullptr);
  EXPECT_NE(FindPath(root, "a.b"), nullptr);  // parent object remains
  EXPECT_FALSE(RemovePath(root, "a.b.c"));
}

// ------------------------------------------------------------- Sample ----

TEST(SampleTest, FromTextAndGetters) {
  Sample s = Sample::FromText("hello world");
  EXPECT_EQ(s.GetText(), "hello world");
  EXPECT_EQ(s.GetText("missing"), "");
  EXPECT_DOUBLE_EQ(s.GetNumber("missing", 3.5), 3.5);
}

TEST(SampleTest, NestedSetGet) {
  Sample s;
  EXPECT_TRUE(s.Set("meta.lang", json::Value("en")));
  EXPECT_EQ(s.GetText("meta.lang"), "en");
  EXPECT_TRUE(s.Remove("meta.lang"));
  EXPECT_EQ(s.GetText("meta.lang"), "");
}

// ------------------------------------------------------------ Dataset ----

TEST(DatasetTest, FromSamplesUnionsColumns) {
  Dataset ds = Dataset::FromSamples(
      {MakeSample(R"({"text": "a", "meta": {"x": 1}})"),
       MakeSample(R"({"text": "b", "extra": 7})")});
  EXPECT_EQ(ds.NumRows(), 2u);
  EXPECT_EQ(ds.NumColumns(), 3u);
  EXPECT_TRUE(ds.Cell("extra", 0).is_null());  // backfilled null
  EXPECT_EQ(ds.Cell("extra", 1).as_int(), 7);
}

TEST(DatasetTest, FromTexts) {
  Dataset ds = Dataset::FromTexts({"one", "two"});
  EXPECT_EQ(ds.NumRows(), 2u);
  EXPECT_EQ(ds.GetTextAt(1), "two");
}

TEST(DatasetTest, EnsureAndRenameColumn) {
  Dataset ds = Dataset::FromTexts({"x"});
  ds.EnsureColumn("stats");
  EXPECT_TRUE(ds.HasColumn("stats"));
  ds.EnsureColumn("stats");  // idempotent
  EXPECT_EQ(ds.NumColumns(), 2u);
  EXPECT_TRUE(ds.RenameColumn("stats", "renamed").ok());
  EXPECT_TRUE(ds.HasColumn("renamed"));
  EXPECT_FALSE(ds.RenameColumn("missing", "x").ok());
  EXPECT_FALSE(ds.RenameColumn("renamed", "text").ok());  // target exists
}

TEST(DatasetTest, RowRefNestedAccessAndMutation) {
  Dataset ds = Dataset::FromSamples(
      {MakeSample(R"({"text": {"instruction": "write", "output": "ok"}})")});
  RowRef row = ds.Row(0);
  EXPECT_EQ(row.GetText("text.instruction"), "write");
  ASSERT_TRUE(row.Set("text.instruction", json::Value("rewrite")).ok());
  EXPECT_EQ(ds.GetTextAt(0, "text.instruction"), "rewrite");
}

TEST(DatasetTest, RowRefSetRequiresColumn) {
  Dataset ds = Dataset::FromTexts({"x"});
  EXPECT_FALSE(ds.Row(0).Set("nope.key", json::Value(1)).ok());
  ds.EnsureColumn("nope");
  EXPECT_TRUE(ds.Row(0).Set("nope.key", json::Value(1)).ok());
  EXPECT_EQ(ds.GetNumberAt(0, "nope.key"), 1.0);
}

TEST(DatasetTest, RowRefSetRefusesScalarTunnel) {
  Dataset ds = Dataset::FromTexts({"x"});
  EXPECT_FALSE(ds.Row(0).Set("text.sub", json::Value(1)).ok());
}

TEST(DatasetTest, MaterializeRowSkipsNulls) {
  Dataset ds = Dataset::FromSamples({MakeSample(R"({"text": "a"})"),
                                     MakeSample(R"({"text": "b", "m": 1})")});
  Sample s = ds.MaterializeRow(0);
  EXPECT_FALSE(s.fields().Contains("m"));
}

TEST(DatasetTest, SelectAndSlice) {
  Dataset ds = Dataset::FromTexts({"0", "1", "2", "3", "4"});
  Dataset sel = ds.Select({4, 0, 2});
  EXPECT_EQ(sel.NumRows(), 3u);
  EXPECT_EQ(sel.GetTextAt(0), "4");
  EXPECT_EQ(sel.GetTextAt(2), "2");
  Dataset slice = ds.Slice(1, 3);
  EXPECT_EQ(slice.NumRows(), 2u);
  EXPECT_EQ(slice.GetTextAt(0), "1");
  EXPECT_EQ(ds.Slice(4, 99).NumRows(), 1u);  // clamped
}

TEST(DatasetTest, ConcatUnionsColumns) {
  Dataset a = Dataset::FromSamples({MakeSample(R"({"text": "a", "m": 1})")});
  Dataset b = Dataset::FromSamples({MakeSample(R"({"text": "b", "n": 2})")});
  a.Concat(b);
  EXPECT_EQ(a.NumRows(), 2u);
  EXPECT_TRUE(a.Cell("n", 0).is_null());
  EXPECT_EQ(a.Cell("n", 1).as_int(), 2);
  EXPECT_TRUE(a.Cell("m", 1).is_null());
}

TEST(DatasetTest, ApproxMemoryGrowsWithData) {
  Dataset small = Dataset::FromTexts({"tiny"});
  Dataset large = Dataset::FromTexts({std::string(100000, 'x')});
  EXPECT_GT(large.ApproxMemoryBytes(), small.ApproxMemoryBytes() + 90000);
}

// ----------------------------------------------------------------- IO ----

TEST(IoTest, JsonlRoundTrip) {
  Dataset ds = Dataset::FromSamples(
      {MakeSample(R"({"text": "line one", "meta": {"lang": "en"}})"),
       MakeSample(R"({"text": "line \"two\"", "score": 0.5})")});
  std::string jsonl = ToJsonl(ds);
  auto back = ParseJsonl(jsonl);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumRows(), 2u);
  EXPECT_EQ(back.value().GetTextAt(1), "line \"two\"");
  EXPECT_EQ(back.value().GetTextAt(0, "meta.lang"), "en");
}

TEST(IoTest, ParseJsonlSkipsBlankLinesReportsBadLine) {
  auto ok = ParseJsonl("{\"text\": \"a\"}\n\n{\"text\": \"b\"}\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().NumRows(), 2u);
  auto bad = ParseJsonl("{\"text\": \"a\"}\nnot json\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
  EXPECT_FALSE(ParseJsonl("[1,2]\n").ok());  // non-object row
}

TEST(IoTest, FileRoundTrip) {
  std::string dir = ::testing::TempDir() + "/dj_io_test";
  std::filesystem::create_directories(dir);
  std::string path = dir + "/out.jsonl";
  Dataset ds = Dataset::FromTexts({"alpha", "beta"});
  ASSERT_TRUE(WriteJsonl(ds, path).ok());
  auto back = ReadJsonl(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumRows(), 2u);
  EXPECT_FALSE(ReadJsonl(dir + "/missing.jsonl").ok());
}

TEST(IoTest, BinaryValueRoundTripAllTypes) {
  auto r = json::ParseStrict(
      R"({"null": null, "t": true, "f": false, "i": -123456789,
          "d": 3.14159, "s": "héllo\n", "a": [1, [2, {"x": "y"}]],
          "o": {"nested": {"deep": [true]}}})");
  ASSERT_TRUE(r.ok());
  std::string bytes;
  SerializeValue(r.value(), &bytes);
  auto back = DeserializeValue(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), r.value());
}

TEST(IoTest, BinaryValueRejectsTruncation) {
  std::string bytes;
  SerializeValue(json::Value("a long enough string"), &bytes);
  EXPECT_FALSE(DeserializeValue(bytes.substr(0, bytes.size() - 3)).ok());
}

TEST(IoTest, DatasetBinaryRoundTripPreservesNulls) {
  Dataset ds = Dataset::FromSamples(
      {MakeSample(R"({"text": "a", "meta": {"k": 1}})"),
       MakeSample(R"({"text": "b"})")});
  std::string blob = SerializeDataset(ds);
  auto back = DeserializeDataset(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumRows(), 2u);
  EXPECT_EQ(back.value().NumColumns(), 2u);
  EXPECT_TRUE(back.value().Cell("meta", 1).is_null());
  EXPECT_EQ(back.value().GetNumberAt(0, "meta.k"), 1.0);
}

TEST(IoTest, DatasetBinaryRejectsCorruption) {
  Dataset ds = Dataset::FromTexts({"x"});
  std::string blob = SerializeDataset(ds);
  EXPECT_FALSE(DeserializeDataset("garbage").ok());
  blob[0] = 'X';
  EXPECT_FALSE(DeserializeDataset(blob).ok());
}

TEST(IoTest, ExportImportDispatchesOnSuffix) {
  std::string dir = ::testing::TempDir() + "/dj_export_test";
  std::filesystem::create_directories(dir);
  Dataset ds = Dataset::FromSamples(
      {MakeSample(R"({"text": "exported row", "meta": {"k": 1}})")});
  for (const char* suffix : {".jsonl", ".djds", ".djds.djlz"}) {
    std::string path = dir + "/out" + suffix;
    ASSERT_TRUE(ExportDataset(ds, path).ok()) << suffix;
    auto back = ImportDataset(path);
    ASSERT_TRUE(back.ok()) << suffix << ": " << back.status().ToString();
    ASSERT_EQ(back.value().NumRows(), 1u) << suffix;
    EXPECT_EQ(back.value().GetTextAt(0), "exported row") << suffix;
    EXPECT_EQ(back.value().GetNumberAt(0, "meta.k"), 1.0) << suffix;
  }
  EXPECT_FALSE(ExportDataset(ds, dir + "/out.parquet").ok());
  EXPECT_FALSE(ImportDataset(dir + "/out.parquet").ok());
}

TEST(IoTest, CompressedExportIsSmallerOnRepetitiveData) {
  std::string dir = ::testing::TempDir() + "/dj_export_size";
  std::filesystem::create_directories(dir);
  std::vector<std::string> texts(100, "the same line of repetitive text");
  Dataset ds = Dataset::FromTexts(texts);
  ASSERT_TRUE(ExportDataset(ds, dir + "/a.djds").ok());
  ASSERT_TRUE(ExportDataset(ds, dir + "/a.djds.djlz").ok());
  auto raw = ReadFile(dir + "/a.djds");
  auto zipped = ReadFile(dir + "/a.djds.djlz");
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(zipped.ok());
  EXPECT_LT(zipped.value().size(), raw.value().size() / 2);
}

TEST(IoTest, EmptyDatasetRoundTrip) {
  Dataset empty;
  auto back = DeserializeDataset(SerializeDataset(empty));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumRows(), 0u);
}

}  // namespace
}  // namespace dj::data
