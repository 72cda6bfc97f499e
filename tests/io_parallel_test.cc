// Tests for the parallel data plane: chunked JSONL parse/serialize, the
// sharded DJDS v3 container, and the block-parallel djlz frame. The central
// property throughout is determinism — a pool must never change the bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/probe.h"
#include "common/random.h"
#include "common/swar.h"
#include "common/thread_pool.h"
#include "compress/djlz.h"
#include "data/dataset.h"
#include "data/io.h"
#include "json/parser.h"
#include "json/value.h"
#include "json/writer.h"

namespace dj::data {
namespace {

/// Random dataset with mixed cell types (nulls, bools, ints, doubles,
/// strings, nested arrays/objects) across `cols` columns.
Dataset RandomDataset(Rng* rng, size_t rows, size_t cols) {
  Dataset ds;
  for (size_t r = 0; r < rows; ++r) {
    json::Object fields;
    for (size_t c = 0; c < cols; ++c) {
      std::string name = "col" + std::to_string(c);
      switch (rng->NextBelow(7)) {
        case 0:
          fields.Set(name, json::Value(nullptr));
          break;
        case 1:
          fields.Set(name, json::Value(rng->NextBelow(2) == 0));
          break;
        case 2:
          fields.Set(name, json::Value(static_cast<int64_t>(rng->Next())));
          break;
        case 3:
          fields.Set(name, json::Value(rng->NextDouble() * 1e6));
          break;
        case 4: {
          std::string s;
          size_t len = rng->NextBelow(40);
          for (size_t i = 0; i < len; ++i) {
            s.push_back(static_cast<char>('a' + rng->NextBelow(26)));
          }
          fields.Set(name, json::Value(std::move(s)));
          break;
        }
        case 5: {
          json::Array arr;
          size_t len = rng->NextBelow(5);
          for (size_t i = 0; i < len; ++i) {
            arr.push_back(json::Value(static_cast<int64_t>(rng->NextBelow(100))));
          }
          fields.Set(name, json::Value(std::move(arr)));
          break;
        }
        default: {
          json::Object nested;
          nested.Set("k", json::Value(static_cast<int64_t>(rng->NextBelow(10))));
          fields.Set(name, json::Value(std::move(nested)));
          break;
        }
      }
    }
    ds.AppendSample(Sample(std::move(fields)));
  }
  return ds;
}

/// Canonical byte form for dataset equality (the auto shard count depends
/// only on the row count, so it is a stable fingerprint that includes nulls
/// and column order).
std::string Fingerprint(const Dataset& ds) { return SerializeDataset(ds); }

// ------------------------------------------------------------ DJDS v3 ----

TEST(DjdsV2Test, RoundTripRandomDatasetsAcrossShardCounts) {
  Rng rng(7);
  ThreadPool pool(4);
  for (size_t rows : {0u, 1u, 2u, 17u, 100u, 1000u}) {
    Dataset ds = RandomDataset(&rng, rows, 4);
    for (size_t shards : {0u, 1u, 2u, 3u, 7u, 64u}) {
      std::string blob = SerializeDataset(ds, nullptr, shards);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        auto back = DeserializeDataset(blob, p);
        ASSERT_TRUE(back.ok()) << back.status().ToString()
                               << " rows=" << rows << " shards=" << shards;
        EXPECT_EQ(Fingerprint(back.value()), Fingerprint(ds));
        EXPECT_EQ(back.value().ColumnNames(), ds.ColumnNames());
      }
    }
  }
}

TEST(DjdsV2Test, SerialAndParallelSerializationAreByteIdentical) {
  Rng rng(11);
  Dataset ds = RandomDataset(&rng, 5000, 3);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::string serial = SerializeDataset(ds);
  EXPECT_EQ(SerializeDataset(ds, &pool2), serial);
  EXPECT_EQ(SerializeDataset(ds, &pool8), serial);
  // Explicit shard counts are deterministic too.
  EXPECT_EQ(SerializeDataset(ds, &pool8, 5), SerializeDataset(ds, nullptr, 5));
}

// ------------------------------------------- serializer differential ----

// The append-based DJDS v3 serializer that the in-place one replaced: each
// shard's payload appended into its own string, then the header, then the
// payloads concatenated. Kept here, and only here, as the byte reference.
namespace reference {

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutString(std::string_view s, std::string* out) {
  PutVarint(s.size(), out);
  out->append(s);
}

void PutU64Fixed(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void SerializeValue(const json::Value& v, std::string* out) {
  switch (v.type()) {
    case json::Value::Type::kNull:
      out->push_back(0);
      break;
    case json::Value::Type::kBool:
      out->push_back(v.as_bool() ? 2 : 1);
      break;
    case json::Value::Type::kInt: {
      out->push_back(3);
      int64_t x = v.as_int();
      PutVarint(
          (static_cast<uint64_t>(x) << 1) ^ static_cast<uint64_t>(x >> 63),
          out);
      break;
    }
    case json::Value::Type::kDouble: {
      out->push_back(4);
      double d = v.as_double();
      char buf[8];
      std::memcpy(buf, &d, 8);
      out->append(buf, 8);
      break;
    }
    case json::Value::Type::kString:
      out->push_back(5);
      PutString(v.as_string(), out);
      break;
    case json::Value::Type::kArray:
      out->push_back(6);
      PutVarint(v.as_array().size(), out);
      for (const auto& e : v.as_array()) SerializeValue(e, out);
      break;
    case json::Value::Type::kObject:
      out->push_back(7);
      PutVarint(v.as_object().size(), out);
      for (const auto& [key, value] : v.as_object().entries()) {
        PutString(key, out);
        SerializeValue(value, out);
      }
      break;
  }
}

std::string SerializeDataset(const Dataset& dataset, size_t num_shards) {
  const size_t num_rows = dataset.NumRows();
  if (num_shards == 0) {  // 2048 rows per shard, at most 64 shards
    num_shards = std::min<size_t>((num_rows + 2047) / 2048, 64);
  } else {
    num_shards = std::max<size_t>(std::min(num_shards, num_rows),
                                  num_rows == 0 ? 0 : 1);
  }
  const std::vector<std::string> names = dataset.ColumnNames();
  const size_t base = num_shards == 0 ? 0 : num_rows / num_shards;
  const size_t rem = num_shards == 0 ? 0 : num_rows % num_shards;
  std::vector<size_t> row_begin(num_shards + 1, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    row_begin[s + 1] = row_begin[s] + base + (s < rem ? 1 : 0);
  }
  std::vector<std::string> payloads(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    for (const std::string& name : names) {
      const auto* cells = dataset.Column(name);
      for (size_t r = row_begin[s]; r < row_begin[s + 1]; ++r) {
        SerializeValue((*cells)[r], &payloads[s]);
      }
    }
  }
  std::string out("DJDS");
  out.push_back(3);
  PutVarint(num_rows, &out);
  PutVarint(names.size(), &out);
  for (const std::string& name : names) PutString(name, &out);
  PutVarint(num_shards, &out);
  for (size_t s = 0; s < num_shards; ++s) {
    PutVarint(row_begin[s + 1] - row_begin[s], &out);
    PutVarint(payloads[s].size(), &out);
    PutU64Fixed(swar::Hash64(payloads[s]), &out);
  }
  PutU64Fixed(swar::Hash64(out), &out);
  for (const std::string& p : payloads) out.append(p);
  return out;
}

}  // namespace reference

/// One value of every codec tag, at the encoding's edges: varint widths of
/// ints and string lengths, NaN and -0.0, and nested arrays and objects.
std::vector<json::Value> EveryTagValues() {
  std::vector<json::Value> values = {
      json::Value(nullptr),
      json::Value(false),
      json::Value(true),
      json::Value(int64_t{0}),
      json::Value(int64_t{-1}),
      json::Value(int64_t{1} << 62),
      json::Value(-(int64_t{1} << 62)),
      json::Value(std::numeric_limits<int64_t>::min()),
      json::Value(std::numeric_limits<int64_t>::max()),
      json::Value(std::numeric_limits<double>::quiet_NaN()),
      json::Value(-0.0),
      json::Value(3.25),
  };
  for (size_t len : {0, 127, 128, 16383, 16384}) {
    values.push_back(json::Value(std::string(len, 'x')));
  }
  json::Object inner;
  inner.Set("", json::Value(nullptr));
  inner.Set("list", json::Value(json::Array{json::Value(int64_t{-300}),
                                            json::Value(std::string(200, 'y')),
                                            json::Value(json::Array{})}));
  json::Object outer;
  outer.Set("inner", json::Value(std::move(inner)));
  outer.Set("empty", json::Value(json::Object{}));
  values.push_back(json::Value(outer));
  values.push_back(json::Value(json::Array{json::Value(outer),
                                           json::Value(true),
                                           json::Value(1e300)}));
  return values;
}

/// `rows` rows over three columns: "text" (short strings of varying
/// length), "value" (every tag in turn) and "id" (a sparse int column, so
/// most of its cells are nulls).
Dataset EveryTagDataset(size_t rows) {
  const std::vector<json::Value> values = EveryTagValues();
  Dataset ds;
  for (size_t r = 0; r < rows; ++r) {
    json::Object fields;
    fields.Set("text", json::Value(std::string(r % 300, 'a' + r % 26)));
    fields.Set("value", values[(r * 7) % values.size()]);
    if (r % 3 == 0) {
      fields.Set("id", json::Value(static_cast<int64_t>(r) * 1000003 - 7));
    }
    ds.AppendSample(Sample(std::move(fields)));
  }
  return ds;
}

TEST(DjdsSerializerTest, InPlaceBytesMatchTheAppendReference) {
  ThreadPool pool(4);
  for (size_t rows : {0, 1, 255, 256, 257, 2048, 2049, 5000}) {
    const Dataset ds = EveryTagDataset(rows);
    for (size_t shards : {0, 1, 3, 64}) {
      SCOPED_TRACE(std::to_string(rows) + " rows, shards " +
                   (shards == 0 ? "auto" : std::to_string(shards)));
      const std::string want = reference::SerializeDataset(ds, shards);
      EXPECT_TRUE(SerializeDataset(ds, nullptr, shards) == want) << "no pool";
      EXPECT_TRUE(SerializeDataset(ds, &pool, shards) == want)
          << "ThreadPool(4)";
    }
  }
}

TEST(DjdsSerializerTest, SerializeValueAppendsTheReferenceBytes) {
  std::string got = "prefix";
  std::string want = "prefix";
  for (const json::Value& v : EveryTagValues()) {
    SerializeValue(v, &got);
    reference::SerializeValue(v, &want);
    ASSERT_TRUE(got == want) << json::Write(v).substr(0, 60);
  }
  std::string_view encoded = std::string_view(got).substr(6);
  for (const json::Value& v : EveryTagValues()) {
    std::string one;
    SerializeValue(v, &one);
    auto back = DeserializeValue(encoded.substr(0, one.size()));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(json::Write(back.value()), json::Write(v));
    encoded.remove_prefix(one.size());
  }
  EXPECT_TRUE(encoded.empty());
}

TEST(DjdsV2Test, AutoShardCountScalesWithRows) {
  Rng rng(13);
  // 5000 rows => 3 shards at 2048 rows/shard; verify multi-shard layout by
  // deserializing and comparing, and that 1-row stays single-shard.
  Dataset big = RandomDataset(&rng, 5000, 2);
  std::string blob = SerializeDataset(big);
  auto back = DeserializeDataset(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Fingerprint(back.value()), Fingerprint(big));
}

TEST(DjdsV2Test, OlderBlobAndFrameVersionsAreRejected) {
  // Only version 3 is read: a v3 blob or djlz frame whose version byte says
  // 1 or 2 is refused with a Corruption error naming the version.
  Rng rng(17);
  const std::string blob = SerializeDataset(RandomDataset(&rng, 200, 3));
  const std::string frame = compress::CompressFrame(blob);
  ThreadPool pool(4);
  for (char version : {1, 2}) {
    const std::string named = "version " + std::to_string(version);
    std::string old_blob = blob;
    old_blob[4] = version;
    std::string old_frame = frame;
    old_frame[4] = version;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto ds = DeserializeDataset(old_blob, p);
      ASSERT_FALSE(ds.ok()) << named;
      EXPECT_EQ(ds.status().code(), StatusCode::kCorruption);
      EXPECT_NE(ds.status().message().find(named), std::string::npos)
          << ds.status().ToString();
      auto raw = compress::DecompressFrame(old_frame, p);
      ASSERT_FALSE(raw.ok()) << named;
      EXPECT_EQ(raw.status().code(), StatusCode::kCorruption);
      EXPECT_NE(raw.status().message().find(named), std::string::npos)
          << raw.status().ToString();
    }
  }
}

TEST(DjdsV2Test, EmptyDatasetRoundTrips) {
  Dataset empty;
  std::string blob = SerializeDataset(empty);
  auto back = DeserializeDataset(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumRows(), 0u);
  EXPECT_EQ(back.value().NumColumns(), 0u);
}

TEST(DjdsV2Test, RejectsTruncation) {
  Rng rng(19);
  Dataset ds = RandomDataset(&rng, 300, 2);
  std::string blob = SerializeDataset(ds, nullptr, 4);
  // Every strict prefix must fail cleanly (never crash or mis-decode).
  for (size_t len : std::vector<size_t>{0, 3, 5, 8, blob.size() / 4,
                                        blob.size() / 2, blob.size() - 1}) {
    auto r = DeserializeDataset(blob.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(DjdsV2Test, RejectsCorruptShardTableAndPayload) {
  Rng rng(23);
  Dataset ds = RandomDataset(&rng, 300, 2);
  std::string blob = SerializeDataset(ds, nullptr, 4);
  // Flip one byte at a time across header, shard table, and payloads: the
  // result must either fail or decode to the original fingerprint (a flip
  // in serialization slack could be benign, but silent wrong data is not).
  std::string want = Fingerprint(ds);
  for (size_t i = 5; i < blob.size(); i += 7) {
    std::string bad = blob;
    bad[i] = static_cast<char>(bad[i] ^ 0x5A);
    auto r = DeserializeDataset(bad);
    if (r.ok()) {
      EXPECT_EQ(Fingerprint(r.value()), want) << "flip at " << i;
    }
  }
}

TEST(DjdsV2Test, RejectsOverflowingVarintLengths) {
  // Header claiming a gigantic column-name length must fail without
  // allocating (the old `*pos + len` check could wrap past the size).
  std::string blob("DJDS", 4);
  blob.push_back(3);             // v3
  blob.push_back(1);             // num_rows = 1
  blob.push_back(1);             // num_cols = 1
  for (int i = 0; i < 9; ++i) blob.push_back('\xFF');
  blob.push_back(1);             // 10-byte varint ~ 2^63
  EXPECT_FALSE(DeserializeDataset(blob).ok());
}

// ---------------------------------------------------------- JSONL plane --

std::string MakeJsonl(Rng* rng, size_t rows) {
  Dataset ds = RandomDataset(rng, rows, 3);
  return ToJsonl(ds);
}

/// Parses `content` with no pool and on pools of width 1, 2, 3, 4 and 8 —
/// the chunk cuts move with the width — and expects each result to equal
/// the one without a pool: the same rows and columns, or the same error
/// message. Returns the result without a pool.
Result<Dataset> ExpectSameParseAtEveryWidth(std::string_view content) {
  Result<Dataset> serial = ParseJsonl(content);
  for (size_t width : {1, 2, 3, 4, 8}) {
    ThreadPool pool(width);
    Result<Dataset> r = ParseJsonl(content, &pool);
    EXPECT_EQ(r.ok(), serial.ok()) << "width " << width;
    if (r.ok() && serial.ok()) {
      EXPECT_EQ(Fingerprint(r.value()), Fingerprint(serial.value()))
          << "width " << width;
      EXPECT_EQ(r.value().ColumnNames(), serial.value().ColumnNames())
          << "width " << width;
    } else if (!r.ok() && !serial.ok()) {
      EXPECT_EQ(r.status().message(), serial.status().message())
          << "width " << width;
    }
  }
  return serial;
}

/// Breaks 1-based line `line` of `content`: its opening '{' becomes '['.
void BreakLine(std::string* content, size_t line) {
  size_t start = 0;
  for (size_t l = 1; l < line; ++l) start = content->find('\n', start) + 1;
  (*content)[start] = '[';
}

TEST(ParallelJsonlTest, ParallelParseMatchesSerial) {
  Rng rng(29);
  // Large enough to clear the parallel threshold (64 KiB).
  std::string content = MakeJsonl(&rng, 4000);
  ASSERT_GT(content.size(), 1u << 16);
  auto serial = ExpectSameParseAtEveryWidth(content);
  ASSERT_TRUE(serial.ok());
  // Determinism end-to-end: re-serializing the parse reproduces the input
  // bytes exactly.
  ThreadPool pool(4);
  EXPECT_EQ(ToJsonl(serial.value(), &pool), content);
}

TEST(ParallelJsonlTest, ParallelToJsonlIsByteIdentical) {
  Rng rng(31);
  Dataset ds = RandomDataset(&rng, 3000, 3);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::string serial = ToJsonl(ds);
  EXPECT_EQ(ToJsonl(ds, &pool2), serial);
  EXPECT_EQ(ToJsonl(ds, &pool8), serial);
}

// The earliest bad line wins wherever it sits: deep in the buffer, in the
// first chunk, in the last line, and ahead of a second bad line in a later
// chunk.
TEST(ParallelJsonlTest, ErrorLineNumbersMatchSerial) {
  Rng rng(37);
  const std::string content = MakeJsonl(&rng, 4000);
  struct Case {
    std::vector<size_t> bad_lines;
    size_t reported;
  };
  for (const Case& c : {Case{{3456}, 3456}, Case{{3}, 3}, Case{{4000}, 4000},
                        Case{{900, 3100}, 900}}) {
    std::string broken = content;
    for (size_t line : c.bad_lines) BreakLine(&broken, line);
    auto serial = ExpectSameParseAtEveryWidth(broken);
    ASSERT_FALSE(serial.ok());
    const std::string prefix = "jsonl line " + std::to_string(c.reported) + ":";
    EXPECT_EQ(serial.status().message().rfind(prefix, 0), 0u)
        << serial.status().message();
  }
}

TEST(ParallelJsonlTest, WhitespaceOnlyLinesAndMissingTrailingNewline) {
  std::string content = "{\"a\": 1}\n\n   \n{\"a\": 2}";
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto r = ParseJsonl(content, p);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().NumRows(), 2u);
  }
  // Above the parallel threshold, with blank, whitespace-only and CRLF
  // lines mixed in so the cuts of every width land beside each kind.
  Rng rng(41);
  std::string mixed;
  size_t objects = 0;
  while (mixed.size() < (1u << 18)) {
    switch (rng.NextBelow(4)) {
      case 0:
        mixed += "\n";
        break;
      case 1:
        mixed += " \t  \r\n";
        break;
      case 2:
        mixed += "{\"a\": " + std::to_string(objects++) + "}\r\n";
        break;
      default:
        mixed += "{\"a\": " + std::to_string(objects++) + ", \"s\": \"" +
                 std::string(rng.NextBelow(200), 'x') + "\"}\n";
        break;
    }
  }
  mixed += "{\"a\": " + std::to_string(objects++) + "}";  // no newline
  for (std::string_view input : {std::string_view(mixed),
                                 std::string_view(mixed).substr(
                                     0, mixed.rfind('\n') + 1)}) {
    auto r = ExpectSameParseAtEveryWidth(input);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().NumRows(),
              input.size() == mixed.size() ? objects : objects - 1);
  }
}

TEST(ParallelJsonlTest, EmptyAndAllBlankInputsHaveNoRows) {
  std::string crlf;
  while (crlf.size() < (1u << 17)) crlf += "  \r\n";
  for (const std::string& input :
       {std::string(), std::string(70000, '\n'), crlf}) {
    auto r = ExpectSameParseAtEveryWidth(input);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().NumRows(), 0u);
    EXPECT_TRUE(r.value().ColumnNames().empty());
  }
}

// A 96 KiB line spans several chunk targets at widths 2 to 8, so a cut
// skips the targets it covers.
TEST(ParallelJsonlTest, LineLongerThanAChunkTarget) {
  Rng rng(43);
  std::string content = MakeJsonl(&rng, 300);
  content += "{\"col0\": \"" + std::string(96 * 1024, 'y') + "\"}\n";
  content += MakeJsonl(&rng, 300);
  auto r = ExpectSameParseAtEveryWidth(content);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().NumRows(), 601u);
}

/// A JSONL row whose "x" cell nests `levels` arrays; the row is one level
/// more.
std::string DeepRow(int levels) {
  return "{\"text\":\"deep\",\"x\":" + std::string(levels, '[') +
         std::string(levels, ']') + "}\n";
}

/// `levels` arrays nested inside each other.
json::Value NestedArrays(int levels) {
  json::Value v{json::Array{}};
  for (int i = 1; i < levels; ++i) {
    json::Array outer;
    outer.push_back(std::move(v));
    v = json::Value(std::move(outer));
  }
  return v;
}

// json::kMaxNestingDepth bounds a JSONL row and a DJDS cell alike: the
// deepest row that parses round-trips through DJDS, a cell one level deeper
// does not load, and a row one level deeper fails to parse, naming its line
// wherever it sits.
TEST(ParallelJsonlTest, NestingBoundHoldsForJsonlAndDjds) {
  const int deepest = json::kMaxNestingDepth - 1;
  auto parsed = ExpectSameParseAtEveryWidth(DeepRow(deepest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto back = DeserializeDataset(SerializeDataset(parsed.value()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(ToJsonl(back.value()), DeepRow(deepest));

  auto cells = [](int levels) {
    std::vector<std::vector<json::Value>> cols(1);
    cols[0].push_back(NestedArrays(levels));
    return std::move(Dataset::FromColumns({"x"}, std::move(cols))).value();
  };
  EXPECT_TRUE(DeserializeDataset(SerializeDataset(cells(deepest))).ok());
  auto too_deep = DeserializeDataset(SerializeDataset(cells(deepest + 1)));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().message(), "value nested deeper than 256 levels");

  Rng rng(47);
  const std::string before = MakeJsonl(&rng, 3000);
  ASSERT_GT(before.size(), 1u << 16);
  const size_t line = std::count(before.begin(), before.end(), '\n') + 1;
  const std::string column =
      std::to_string(std::strlen("{\"text\":\"deep\",\"x\":") + deepest + 1);
  for (const auto& [content, reported] :
       {std::pair{DeepRow(deepest + 1), size_t{1}},
        std::pair{before + DeepRow(deepest + 1) + MakeJsonl(&rng, 100),
                  line}}) {
    auto r = ExpectSameParseAtEveryWidth(content);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().message(),
              "jsonl line " + std::to_string(reported) +
                  ": nested deeper than 256 levels at line 1, column " +
                  column);
  }
}

// ------------------------------------------------------------ djlz v3 ----

TEST(DjlzBlockParallelTest, MultiBlockFrameRoundTrips) {
  Rng rng(41);
  // ~3.5 MiB => 4 blocks at 1 MiB each.
  std::string input;
  input.reserve(3'500'000);
  while (input.size() < 3'500'000) {
    input += "block parallel frame content ";
    input.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  ThreadPool pool(4);
  std::string serial_frame = compress::CompressFrame(input);
  std::string parallel_frame = compress::CompressFrame(input, &pool);
  EXPECT_EQ(parallel_frame, serial_frame);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto out = compress::DecompressFrame(serial_frame, p);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value(), input);
  }
}

TEST(DjlzBlockParallelTest, DetectsCorruptionInAnyBlock) {
  std::string input(3 * (1u << 20) + 100, 'q');
  std::string frame = compress::CompressFrame(input);
  // One flip per region: header, block table, first/middle/last payload.
  for (size_t i : std::vector<size_t>{5, 25, 80, frame.size() / 2,
                                      frame.size() - 2}) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    auto r = compress::DecompressFrame(bad);
    if (r.ok()) {
      EXPECT_EQ(r.value(), input) << "flip at " << i;
    }
  }
  // Payload flips specifically must be caught by the per-block checksums;
  // the compress.frame.corrupt fail point injects exactly that flip.
  probe::Scoped faults(probe::Faults(), "compress.frame.corrupt=always");
  ASSERT_TRUE(faults.status().ok());
  EXPECT_FALSE(compress::DecompressFrame(frame).ok());
}

TEST(DjlzBlockParallelTest, RejectsFrameWithBogusBlockCount) {
  std::string frame("DJLZ", 4);
  frame.push_back(3);  // version 3
  auto put_u64 = [&frame](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      frame.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u64(100);                    // raw_size
  put_u64(0xFFFFFFFFFFFFFFFFull);  // absurd num_blocks
  EXPECT_FALSE(compress::DecompressFrame(frame).ok());
}

// ------------------------------------------------------ fault injection --

// Corruption scenarios driven by the DJ_FAULT fail points instead of
// hand-rolled byte surgery: a torn shard tail on write, a flipped byte on
// read, and hard I/O errors.

std::string FaultTempFile(const std::string& name) {
  return ::testing::TempDir() + "/dj_io_fault_" + name;
}

TEST(FaultInjectionTest, TornShardTailWriteIsDetectedOnRead) {
  Rng rng(47);
  Dataset ds = RandomDataset(&rng, 400, 3);
  std::string path = FaultTempFile("torn.djds");
  {
    // io.write.short truncates to 2/3 and still reports success — exactly
    // how a torn write looks to the writer. Only the read path can catch it.
    probe::Scoped faults(probe::Faults(), "io.write.short=always");
    ASSERT_TRUE(faults.status().ok());
    ASSERT_TRUE(WriteFile(path, SerializeDataset(ds, nullptr, 4)).ok());
  }
  auto torn = ReadFile(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_FALSE(DeserializeDataset(torn.value()).ok())
      << "torn shard tail decoded successfully";
}

TEST(FaultInjectionTest, FlippedByteOnReadIsDetected) {
  Rng rng(53);
  Dataset ds = RandomDataset(&rng, 400, 3);
  std::string path = FaultTempFile("flipped.djds");
  ASSERT_TRUE(WriteFile(path, SerializeDataset(ds, nullptr, 4)).ok());
  probe::Scoped faults(probe::Faults(), "io.read.corrupt=always");
  ASSERT_TRUE(faults.status().ok());
  // The point flips a mid-file byte — shard payload territory, which the
  // per-shard checksums must catch.
  auto corrupted = ReadFile(path);
  ASSERT_TRUE(corrupted.ok());
  EXPECT_FALSE(DeserializeDataset(corrupted.value()).ok())
      << "flipped byte decoded successfully";
}

TEST(FaultInjectionTest, HardIoErrorsSurfaceAsStatus) {
  std::string path = FaultTempFile("hard.bin");
  {
    probe::Scoped faults(probe::Faults(), "io.write.fail=always");
    ASSERT_TRUE(faults.status().ok());
    Status s = WriteFile(path, "payload");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
  ASSERT_TRUE(WriteFile(path, "payload").ok());
  {
    probe::Scoped faults(probe::Faults(), "io.read.fail=always");
    ASSERT_TRUE(faults.status().ok());
    ASSERT_FALSE(ReadFile(path).ok());
  }
  // With the registry reset, the same file reads back fine.
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "payload");
}

TEST(FaultInjectionTest, ProbabilisticTornWritesAreSeedDeterministic) {
  Rng rng(59);
  Dataset ds = RandomDataset(&rng, 50, 2);
  std::string blob = SerializeDataset(ds);
  auto torn_mask = [&](uint64_t seed) {
    probe::Scoped faults(probe::Faults(), "seed=" + std::to_string(seed) +
                                              ";io.write.short=p0.5");
    EXPECT_TRUE(faults.status().ok());
    std::vector<bool> out;
    for (int i = 0; i < 32; ++i) {
      std::string name = "p";
      name += std::to_string(i);
      std::string path = FaultTempFile(name);
      EXPECT_TRUE(WriteFile(path, blob).ok());
      auto back = ReadFile(path);
      EXPECT_TRUE(back.ok());
      out.push_back(back.value().size() != blob.size());
    }
    return out;
  };
  std::vector<bool> run1 = torn_mask(77);
  EXPECT_EQ(run1, torn_mask(77));
  EXPECT_NE(std::count(run1.begin(), run1.end(), true), 0);
}

// --------------------------------------------------- container pipeline --

TEST(ContainerPipelineTest, CompressedContainerRoundTripsThroughPool) {
  Rng rng(43);
  Dataset ds = RandomDataset(&rng, 2500, 3);
  ThreadPool pool(4);
  std::string packed =
      compress::CompressFrame(SerializeDataset(ds, &pool), &pool);
  auto blob = compress::DecompressFrame(packed, &pool);
  ASSERT_TRUE(blob.ok());
  auto back = DeserializeDataset(blob.value(), &pool);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Fingerprint(back.value()), Fingerprint(ds));
}

}  // namespace
}  // namespace dj::data
