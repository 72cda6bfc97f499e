#include <cstdio>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "common/swar.h"
#include "json/parser.h"
#include "json/value.h"
#include "json/writer.h"
#include "json_reference.h"

namespace dj::json {
namespace {

Value MustParse(std::string_view text) {
  auto r = Parse(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : Value();
}

// -------------------------------------------------------------- Value ----

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{3}).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value(int64_t{3}).is_number());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(Array{}).is_array());
  EXPECT_TRUE(Value(Object{}).is_object());
}

TEST(JsonValueTest, IntDoubleNumericEquality) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_NE(Value(int64_t{2}), Value(2.5));
}

TEST(JsonValueTest, ObjectPreservesInsertionOrder) {
  Object o;
  o.Set("z", Value(1));
  o.Set("a", Value(2));
  EXPECT_EQ(o.entries()[0].first, "z");
  EXPECT_EQ(o.entries()[1].first, "a");
}

TEST(JsonValueTest, ObjectSetOverwrites) {
  Object o;
  o.Set("k", Value(1));
  o.Set("k", Value(9));
  EXPECT_EQ(o.size(), 1u);
  EXPECT_EQ(o.Find("k")->as_int(), 9);
}

TEST(JsonValueTest, ObjectErase) {
  Object o;
  o.Set("k", Value(1));
  EXPECT_TRUE(o.Erase("k"));
  EXPECT_FALSE(o.Erase("k"));
  EXPECT_TRUE(o.empty());
}

TEST(JsonValueTest, TypedGettersWithDefaults) {
  Value v = MustParse(R"({"b": true, "i": 5, "d": 1.5, "s": "x"})");
  EXPECT_TRUE(v.GetBool("b", false));
  EXPECT_EQ(v.GetInt("i", 0), 5);
  EXPECT_DOUBLE_EQ(v.GetDouble("d", 0), 1.5);
  EXPECT_EQ(v.GetString("s", ""), "x");
  EXPECT_EQ(v.GetInt("missing", -1), -1);
  EXPECT_EQ(v.GetString("i", "def"), "def");  // wrong type -> default
  EXPECT_EQ(v.GetInt("d", 0), 1);             // double truncates to int
}

// ------------------------------------------------------------- Parser ----

TEST(JsonParserTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_EQ(MustParse("true").as_bool(), true);
  EXPECT_EQ(MustParse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(MustParse("2.5e-3").as_double(), 0.0025);
  EXPECT_EQ(MustParse("\"hi\"").as_string(), "hi");
}

TEST(JsonParserTest, IntegersStayIntegers) {
  Value v = MustParse("[1, 1.0]");
  EXPECT_TRUE(v.as_array()[0].is_int());
  EXPECT_TRUE(v.as_array()[1].is_double());
}

TEST(JsonParserTest, HugeIntegerFallsBackToDouble) {
  Value v = MustParse("123456789012345678901234567890");
  EXPECT_TRUE(v.is_double());
}

TEST(JsonParserTest, NestedStructures) {
  Value v = MustParse(R"({"a": [1, {"b": [true, null]}]})");
  const Value* b = v.as_object().Find("a");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->as_array()[1].as_object().Find("b")->as_array().size(), 2u);
}

TEST(JsonParserTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\nb\t\"c\"\\")").as_string(), "a\nb\t\"c\"\\");
}

TEST(JsonParserTest, UnicodeEscapes) {
  EXPECT_EQ(MustParse(R"("é")").as_string(), "\xC3\xA9");       // é
  EXPECT_EQ(MustParse(R"("中")").as_string(), "\xE4\xB8\xAD");   // 中
  // Surrogate pair: U+1F600.
  EXPECT_EQ(MustParse(R"("😀")").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, RejectsUnpairedSurrogate) {
  EXPECT_FALSE(Parse(R"("\ud83d")").ok());
}

TEST(JsonParserTest, ErrorsCarryLineAndColumn) {
  auto r = Parse("{\n  \"a\": oops\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(JsonParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("{} extra").ok());
}

TEST(JsonParserTest, RejectsUnterminatedStructures) {
  EXPECT_FALSE(Parse("[1, 2").ok());
  EXPECT_FALSE(Parse("{\"a\": 1").ok());
  EXPECT_FALSE(Parse("\"abc").ok());
}

TEST(JsonParserTest, LenientCommentsAndTrailingCommas) {
  Value v = MustParse(R"({
    // a line comment
    "a": 1,  # another comment
    "b": [1, 2,],
  })");
  EXPECT_EQ(v.GetInt("a", 0), 1);
  EXPECT_EQ(v.as_object().Find("b")->as_array().size(), 2u);
}

TEST(JsonParserTest, StrictModeRejectsExtensions) {
  EXPECT_FALSE(ParseStrict("{\"a\": 1,}").ok());
  EXPECT_FALSE(ParseStrict("// c\n1").ok());
  EXPECT_TRUE(ParseStrict("{\"a\": 1}").ok());
}

TEST(JsonParserTest, EmptyContainers) {
  EXPECT_TRUE(MustParse("[]").as_array().empty());
  EXPECT_TRUE(MustParse("{}").as_object().empty());
}

/// `levels` arrays and objects nested inside each other, alternating from
/// an innermost array that holds `leaf`.
std::string Nested(int levels, std::string_view leaf) {
  std::string out;
  for (int i = levels; i > 0; --i) out += i % 2 == 1 ? "[" : "{\"k\":";
  out += leaf;
  for (int i = 1; i <= levels; ++i) out += i % 2 == 1 ? "]" : "}";
  return out;
}

TEST(JsonParserTest, NestingBoundIsExact) {
  for (std::string_view leaf : {"", "1", "\"s\""}) {
    const std::string deepest = Nested(kMaxNestingDepth, leaf);
    EXPECT_TRUE(Parse(deepest).ok()) << leaf;
    EXPECT_TRUE(ParseStrict(deepest).ok()) << leaf;
    const std::string deeper = Nested(kMaxNestingDepth + 1, leaf);
    for (const Result<Value>& r : {Parse(deeper), ParseStrict(deeper)}) {
      ASSERT_FALSE(r.ok()) << leaf;
      EXPECT_NE(r.status().message().find("nested deeper than 256 levels"),
                std::string::npos)
          << r.status().ToString();
    }
  }
  // The error names the bracket that opens level 257.
  EXPECT_EQ(ParseStrict(std::string(kMaxNestingDepth + 1, '[')).status()
                .message(),
            "nested deeper than 256 levels at line 1, column 257");
}

// ------------------------------------------------------------- Writer ----

TEST(JsonWriterTest, CompactRoundTrip) {
  std::string text =
      R"({"s":"x","i":3,"d":2.5,"b":true,"n":null,"a":[1,2],"o":{"k":"v"}})";
  Value v = MustParse(text);
  EXPECT_EQ(Write(v), text);
}

TEST(JsonWriterTest, DoubleAlwaysReparsesAsDouble) {
  Value v(2.0);
  std::string out = Write(v);
  EXPECT_EQ(out, "2.0");
  EXPECT_TRUE(MustParse(out).is_double());
}

TEST(JsonWriterTest, DoubleRoundTripsPrecisely) {
  double cases[] = {0.1, 1.0 / 3.0, 1e-300, 12345.6789, -0.0};
  for (double d : cases) {
    Value v(d);
    EXPECT_DOUBLE_EQ(MustParse(Write(v)).as_double(), d);
  }
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  EXPECT_EQ(Write(Value(std::string("a\x01""b"))), "\"a\\u0001b\"");
  EXPECT_EQ(Write(Value("tab\there")), "\"tab\\there\"");
}

TEST(JsonWriterTest, NonFiniteBecomesNull) {
  EXPECT_EQ(Write(Value(std::numeric_limits<double>::infinity())), "null");
}

TEST(JsonWriterTest, PrettyPrintIndents) {
  Value v = MustParse(R"({"a": [1]})");
  std::string pretty = Write(v, {.pretty = true});
  EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
}

TEST(JsonWriterTest, DeterministicOutputForEqualInput) {
  std::string text = R"({"z": 1, "a": {"c": [1, 2.5, "x"]}})";
  EXPECT_EQ(Write(MustParse(text)), Write(MustParse(text)));
}

// ------------------------------------------------ Reference differential --
// ParseStrict must accept, build and reject exactly what the byte-at-a-time
// parser in json_reference.h does, with the same error text, at every
// dispatch level of the span kernel it copies string runs with.

using Rng = std::mt19937_64;

void FuzzWhitespace(Rng& rng, std::string* out) {
  static constexpr char kSpace[] = {' ', ' ', '\t', '\r', '\n'};
  while (rng() % 6 == 0) out->push_back(kSpace[rng() % sizeof(kSpace)]);
}

void FuzzHex4(Rng& rng, uint32_t cp, std::string* out) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), rng() % 2 ? "\\u%04X" : "\\u%04x", cp);
  out->append(buf);
}

/// A string literal of clean runs, every escape (valid and invalid \u
/// escapes, lone surrogate halves), raw control bytes and raw UTF-8; now
/// and then unterminated.
void FuzzString(Rng& rng, std::string* out) {
  out->push_back('"');
  for (uint64_t pieces = rng() % 6; pieces > 0; --pieces) {
    uint64_t kind = rng() % 12;
    // Kinds 6-9 are errors; keep a third of them, so that many lines parse.
    if (kind >= 6 && kind <= 9 && rng() % 3 != 0) kind = 0;
    switch (kind) {
      case 0:
      case 1:
      case 2: {
        const uint64_t n = rng() % 4 == 0 ? rng() % 120 : rng() % 8;
        for (uint64_t k = 0; k < n; ++k) {
          out->push_back(rng() % 8 == 0 ? ' '
                                        : static_cast<char>('a' + rng() % 26));
        }
        break;
      }
      case 3:
        out->push_back('\\');
        out->push_back("\"\\/bfnrt"[rng() % 8]);
        break;
      case 4: {  // a BMP codepoint that is no surrogate half
        const uint32_t cp = static_cast<uint32_t>(rng() % 0xF800);
        FuzzHex4(rng, cp < 0xD800 ? cp : cp + 0x800, out);
        break;
      }
      case 5:  // a surrogate pair
        FuzzHex4(rng, 0xD800 + static_cast<uint32_t>(rng() % 0x400), out);
        FuzzHex4(rng, 0xDC00 + static_cast<uint32_t>(rng() % 0x400), out);
        break;
      case 6:  // a high half alone, or before a non-low escape
        FuzzHex4(rng, 0xD800 + static_cast<uint32_t>(rng() % 0x400), out);
        if (rng() % 2) {
          FuzzHex4(rng, static_cast<uint32_t>(rng() % 0xD800), out);
        }
        break;
      case 7:  // a low half alone
        FuzzHex4(rng, 0xDC00 + static_cast<uint32_t>(rng() % 0x400), out);
        break;
      case 8:  // a bad hex digit, or a \u escape cut short
        out->append(rng() % 2 ? "\\u12G4" : "\\u0");
        break;
      case 9:
        out->push_back('\\');
        out->push_back("xa0U '"[rng() % 6]);
        break;
      case 10:
        out->push_back(static_cast<char>(rng() % 0x20));
        break;
      case 11: {
        static constexpr const char* kUtf8[] = {
            "\xC3\xA9", "\xE4\xB8\xAD", "\xF0\x9F\x98\x80", "\xE2\x80\x83",
            "\xC2\xA0", "\x80", "\xFF", "\xED\xA0\x80"};
        out->append(kUtf8[rng() % 8]);
        break;
      }
    }
  }
  if (rng() % 16 != 0) out->push_back('"');
}

/// A number token of 1-25 digits with a sign, a fraction and an exponent
/// now and then, some of them malformed.
void FuzzNumber(Rng& rng, std::string* out) {
  static constexpr const char* kEdges[] = {
      "9223372036854775807", "-9223372036854775808", "9223372036854775808",
      "-9223372036854775809", "999999999999999999", "-", "+", "1e400",
      "--1", "1.2.3", "1e", "0x10", ".5", "-.e"};
  if (rng() % 16 == 0) {
    out->append(kEdges[rng() % (sizeof(kEdges) / sizeof(kEdges[0]))]);
    return;
  }
  const uint64_t sign = rng() % 6;
  if (sign == 0) out->push_back('-');
  if (sign == 1) out->push_back('+');
  for (uint64_t d = 1 + rng() % 25; d > 0; --d) {
    out->push_back(static_cast<char>('0' + rng() % 10));
  }
  if (rng() % 4 == 0) {
    out->push_back('.');
    for (uint64_t d = rng() % 6; d > 0; --d) {
      out->push_back(static_cast<char>('0' + rng() % 10));
    }
  }
  if (rng() % 5 == 0) {
    out->push_back(rng() % 2 ? 'e' : 'E');
    if (rng() % 2) out->push_back(rng() % 2 ? '-' : '+');
    for (uint64_t d = rng() % 4; d > 0; --d) {
      out->push_back(static_cast<char>('0' + rng() % 10));
    }
  }
}

void FuzzValue(Rng& rng, int depth, std::string* out) {
  FuzzWhitespace(rng, out);
  switch (rng() % (depth < 4 ? 8 : 5)) {
    case 0:
    case 1:
      FuzzString(rng, out);
      break;
    case 2:
    case 3:
      FuzzNumber(rng, out);
      break;
    case 4: {
      static constexpr const char* kWords[] = {"true", "false", "null",
                                               "tru",  "nul",   "falsy"};
      out->append(kWords[rng() % (rng() % 8 == 0 ? 6 : 3)]);
      break;
    }
    case 5:
    case 6:
      out->push_back('[');
      for (uint64_t n = rng() % 5; n > 0; --n) {
        FuzzValue(rng, depth + 1, out);
        if (n > 1) out->push_back(',');
      }
      FuzzWhitespace(rng, out);
      out->push_back(']');
      break;
    default:
      out->push_back('{');
      for (uint64_t n = rng() % 5; n > 0; --n) {
        FuzzWhitespace(rng, out);
        FuzzString(rng, out);
        FuzzWhitespace(rng, out);
        out->push_back(':');
        FuzzValue(rng, depth + 1, out);
        if (n > 1) out->push_back(',');
      }
      FuzzWhitespace(rng, out);
      out->push_back('}');
      break;
  }
  FuzzWhitespace(rng, out);
}

/// One fuzzed JSONL line: usually an object of fuzzed fields, now and then
/// arrays and objects nested up to the bound or one past it, then cut
/// short or with bytes flipped now and then.
std::string FuzzJsonLine(Rng& rng) {
  std::string line;
  if (rng() % 40 == 0) {
    // Half anywhere up to the bound, half at the bound or one level off.
    const int levels =
        rng() % 2 ? 1 + static_cast<int>(rng() % kMaxNestingDepth)
                  : kMaxNestingDepth - 1 + static_cast<int>(rng() % 3);
    std::string leaf;
    FuzzValue(rng, 4, &leaf);
    line = Nested(levels, leaf);
  } else {
    line.push_back('{');
    for (uint64_t n = rng() % 6; n > 0; --n) {
      FuzzString(rng, &line);
      line.push_back(':');
      FuzzValue(rng, 1, &line);
      if (n > 1) line.push_back(',');
    }
    line.push_back('}');
  }
  if (rng() % 10 == 0) line.resize(rng() % (line.size() + 1));
  if (rng() % 8 == 0) {
    static constexpr char kFlips[] = "\"\\{}[]:,\n\x01 0e.-u";
    for (uint64_t flips = 1 + rng() % 3; flips > 0 && !line.empty(); --flips) {
      line[rng() % line.size()] =
          rng() % 2 ? kFlips[rng() % (sizeof(kFlips) - 1)]
                    : static_cast<char>(rng() % 256);
    }
  }
  return line;
}

std::string Printable(std::string_view s) {
  std::string out;
  for (unsigned char c : s) {
    if (c >= 0x20 && c < 0x7F) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02X", c);
      out += buf;
    }
  }
  return out;
}

TEST(JsonReferenceTest, StrictParseMatchesTheByteAtATimeReference) {
  constexpr size_t kLines = 100000;
  Rng rng(0x150D);
  std::vector<std::string> lines;
  std::vector<Result<Value>> expected;
  size_t accepted = 0;
  std::set<std::string> errors;
  for (size_t i = 0; i < kLines; ++i) {
    lines.push_back(FuzzJsonLine(rng));
    expected.push_back(reference::ParseStrictJson(lines.back()));
    if (expected.back().ok()) {
      ++accepted;
    } else {
      const std::string& msg = expected.back().status().message();
      // The kind of error: its text without the position or number token.
      const std::string kind = msg.substr(0, msg.find(" at line "));
      errors.insert(kind.rfind("malformed number", 0) == 0 ? "malformed number"
                                                           : kind);
    }
  }
  RecordProperty("accepted", static_cast<int>(accepted));
  RecordProperty("error_kinds", static_cast<int>(errors.size()));
  // Both outcomes, and many kinds of error, or the comparison shows little.
  EXPECT_GT(accepted, kLines / 5);
  EXPECT_LT(accepted, kLines * 4 / 5);
  EXPECT_GE(errors.size(), 20u);
  for (swar::Level level : {swar::Level::kScalar, swar::Level::kSwar,
                            swar::CompiledLevel()}) {
    swar::ScopedLevel pin(level);
    for (size_t i = 0; i < kLines; ++i) {
      const Result<Value> got = ParseStrict(lines[i]);
      ASSERT_EQ(got.ok(), expected[i].ok())
          << swar::LevelName(level) << " " << Printable(lines[i]);
      if (got.ok()) {
        ASSERT_EQ(Write(got.value()), Write(expected[i].value()))
            << swar::LevelName(level) << " " << Printable(lines[i]);
      } else {
        ASSERT_EQ(got.status().ToString(), expected[i].status().ToString())
            << swar::LevelName(level) << " " << Printable(lines[i]);
      }
    }
  }
}

}  // namespace
}  // namespace dj::json
