#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>

#include "data/io.h"
#include "json/parser.h"
#include "json/writer.h"
#include "ops/formatters/formatters.h"
#include "ops/registry.h"

namespace dj::ops {
namespace {

json::Value Config(std::string_view text = "{}") {
  auto r = json::Parse(text);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(OpRegistryTest, HasAllBuiltins) {
  const OpRegistry& registry = OpRegistry::Global();
  // Paper: "over 50 built-in operators".
  EXPECT_GE(registry.Names().size(), 50u);
}

TEST(OpRegistryTest, CountsPerCategory) {
  const OpRegistry& registry = OpRegistry::Global();
  size_t formatters = 0, mappers = 0, filters = 0, dedups = 0;
  for (const std::string& name : registry.Names()) {
    auto op = registry.Create(name, Config());
    ASSERT_TRUE(op.ok()) << name;
    switch (op.value()->kind()) {
      case OpKind::kFormatter:
        ++formatters;
        break;
      case OpKind::kMapper:
        ++mappers;
        break;
      case OpKind::kFilter:
        ++filters;
        break;
      case OpKind::kDeduplicator:
        ++dedups;
        break;
    }
  }
  EXPECT_EQ(formatters, 6u);
  EXPECT_EQ(mappers, 20u);
  EXPECT_EQ(filters, 22u);
  EXPECT_EQ(dedups, 6u);
}

TEST(OpRegistryTest, EveryOpInstantiatesWithEmptyConfig) {
  const OpRegistry& registry = OpRegistry::Global();
  for (const std::string& name : registry.Names()) {
    auto op = registry.Create(name, Config());
    ASSERT_TRUE(op.ok()) << name << ": " << op.status().ToString();
    EXPECT_EQ(op.value()->name(), name);
    EXPECT_TRUE(op.value()->config().is_object()) << name;
  }
}

TEST(OpRegistryTest, UnknownOpIsNotFound) {
  auto op = OpRegistry::Global().Create("no_such_op", Config());
  EXPECT_FALSE(op.ok());
  EXPECT_EQ(op.status().code(), StatusCode::kNotFound);
}

TEST(OpRegistryTest, ContainsAndNames) {
  const OpRegistry& registry = OpRegistry::Global();
  EXPECT_NE(registry.Find("perplexity_filter"), nullptr);
  EXPECT_EQ(registry.Find("bogus"), nullptr);
}

// The paper's "Advanced Extension" path: users register their own OPs by
// deriving from the base classes. This is the example of docs/Operators.md
// ("Writing a custom OP"), verbatim, so the documented snippet compiles.
class ShoutMapper : public dj::ops::Mapper {
 public:
  static const dj::ops::OpDeclaration& Declaration() {
    static const dj::ops::OpDeclaration d =
        Declare(dj::ops::OpSchema("shout_mapper", dj::ops::OpKind::kMapper)
                    .Str("suffix", "!", "appended to the shouted text"));
    return d;
  }

  explicit ShoutMapper(const dj::json::Value& config)
      : Mapper(Declaration(), config), suffix_(Param<std::string>("suffix")) {}

  dj::Result<std::string> TransformText(
      std::string_view input, dj::ops::SampleContext*) const override {
    std::string out(input);
    for (char& c : out) c = static_cast<char>(std::toupper(c));
    return out + suffix_;
  }

 private:
  std::string suffix_;
};

TEST(OpRegistryTest, CustomOpRegistration) {
  OpRegistry registry;
  registry.Register<ShoutMapper>();
  auto op = registry.Create("shout_mapper", Config());
  ASSERT_TRUE(op.ok());
  auto* mapper = static_cast<Mapper*>(op.value().get());
  SampleContext ctx("hi");
  EXPECT_EQ(mapper->TransformText("hi", &ctx).value(), "HI!");
  // The declared default reached the effective config (and so cache keys),
  // and the linter sees the declared schema and effects.
  EXPECT_EQ(op.value()->config().GetString("suffix", ""), "!");
  ASSERT_NE(registry.Find("shout_mapper"), nullptr);
  EXPECT_EQ(registry.Find("shout_mapper"), &ShoutMapper::Declaration());
  EXPECT_EQ(&op.value()->declaration(), &ShoutMapper::Declaration());
}

// A second OP class declaring the name "shout_mapper", with its own default.
class WhisperMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration() {
    static const OpDeclaration d =
        Declare(OpSchema("shout_mapper", OpKind::kMapper)
                    .Str("suffix", "...", "appended to the whispered text"));
    return d;
  }

  explicit WhisperMapper(const json::Value& config)
      : Mapper(Declaration(), config) {}

  Result<std::string> TransformText(std::string_view input,
                                    SampleContext*) const override {
    std::string out(input);
    for (char& c : out) c = static_cast<char>(std::tolower(c));
    return out + Param<std::string>("suffix");
  }
};

TEST(OpRegistryTest, ReRegisterReplaces) {
  OpRegistry registry;
  registry.Register<ShoutMapper>();
  registry.Register<WhisperMapper>();
  EXPECT_EQ(registry.Names().size(), 1u);
  // The registry and the instance it creates report the same declaration.
  EXPECT_EQ(registry.Find("shout_mapper"), &WhisperMapper::Declaration());
  auto op = registry.Create("shout_mapper", Config());
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(&op.value()->declaration(), &WhisperMapper::Declaration());
  SampleContext ctx("Hi");
  EXPECT_EQ(static_cast<Mapper*>(op.value().get())
                ->TransformText("Hi", &ctx)
                .value(),
            "hi...");
}

// Exposes the protected param accessors of Op to the death tests below.
class ParamProbeMapper : public Mapper {
 public:
  static const OpDeclaration& Declaration() {
    static const OpDeclaration d =
        Declare(OpSchema("param_probe_mapper", OpKind::kMapper)
                    .Int("n", 3, 0, kParamInf, "an int with a default")
                    .StrNoDefault("computed", "filled in by the OP"));
    return d;
  }

  explicit ParamProbeMapper(const json::Value& config)
      : Mapper(Declaration(), config) {}

  using Op::Param;
  using Op::SetEffectiveParam;

  Result<std::string> TransformText(std::string_view input,
                                    SampleContext*) const override {
    return std::string(input);
  }
};

TEST(OpParamDeathTest, ParamReadsOnlyDeclaredDefaultsOfTheDeclaredType) {
  ParamProbeMapper op(Config(R"({"n": 5, "extra": 1})"));
  EXPECT_EQ(op.Param<int64_t>("n"), 5);
  // A misspelled or undeclared key, a param declared without a default, and
  // a read as another type than the declared one are programming errors.
  EXPECT_DEATH(op.Param<int64_t>("nn"), "reads param 'nn' as int");
  EXPECT_DEATH(op.Param<int64_t>("extra"), "reads param 'extra' as int");
  EXPECT_DEATH(op.Param<std::string>("computed"), "reads param 'computed'");
  EXPECT_DEATH(op.Param<double>("n"), "reads param 'n' as number");
}

TEST(OpParamDeathTest, SetEffectiveParamCannotOverwriteADeclaredDefault) {
  ParamProbeMapper op(Config());
  op.SetEffectiveParam("computed", json::Value("x"));
  EXPECT_EQ(op.config().GetString("computed", ""), "x");
  EXPECT_DEATH(op.SetEffectiveParam("n", json::Value(int64_t{4})),
               "records param 'n'");
  EXPECT_DEATH(op.SetEffectiveParam("undeclared", json::Value("x")),
               "records param 'undeclared'");
  EXPECT_EQ(op.Param<int64_t>("n"), 3);
}

TEST(OpRegistryTest, EffectiveConfigFillsDeclaredDefaultsInOrder) {
  // The effective config is a cache-key input: declared params with a
  // default appear in declaration order after any recipe keys, each coerced
  // to its declared type (an int for a number param becomes a double, a
  // double for an int param truncates).
  const OpRegistry& registry = OpRegistry::Global();
  auto filter = registry.Create("character_repetition_filter",
                                Config(R"({"rep_len": 7.9, "min": 0})"));
  ASSERT_TRUE(filter.ok());
  EXPECT_EQ(json::Write(filter.value()->config()),
            R"({"rep_len":7,"min":0.0,"text_key":"text","max":0.5})");
  auto mapper = registry.Create("remove_specific_chars_mapper",
                                Config(R"({"text_key": "text.body"})"));
  ASSERT_TRUE(mapper.ok());
  EXPECT_EQ(mapper.value()->text_key(), "text.body");
  const json::Value* chars =
      mapper.value()->config().as_object().Find("chars_to_remove");
  ASSERT_NE(chars, nullptr);  // computed default, echoed by the OP itself
  EXPECT_FALSE(chars->as_string().empty());
}

// -------------------------------------------------------------- schemas --

TEST(OpSchemaTest, SchemaKindMatchesInstance) {
  const OpRegistry& registry = OpRegistry::Global();
  for (const std::string& name : registry.Names()) {
    auto op = registry.Create(name, Config());
    ASSERT_TRUE(op.ok()) << name;
    EXPECT_EQ(registry.Find(name)->schema.kind(), op.value()->kind()) << name;
  }
}

TEST(OpSchemaTest, EffectiveConfigKeysAreDeclared) {
  // Every param an OP echoes into its effective config must be declared in
  // its schema — otherwise the linter would reject params the OP reads.
  const OpRegistry& registry = OpRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const OpSchema& schema = registry.Find(name)->schema;
    auto op = registry.Create(name, Config());
    ASSERT_TRUE(op.ok()) << name;
    ASSERT_TRUE(op.value()->config().is_object()) << name;
    for (const auto& [key, value] : op.value()->config().as_object().entries()) {
      EXPECT_NE(schema.Find(key), nullptr)
          << name << " echoes undeclared param '" << key << "'";
    }
  }
}

TEST(OpSchemaTest, DeclaredDefaultsMatchEffectiveConfig) {
  // Where a schema declares a scalar default and the OP echoes that key,
  // the two must agree — the linter's keep-range math relies on it.
  const OpRegistry& registry = OpRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const OpSchema& schema = registry.Find(name)->schema;
    auto op = registry.Create(name, Config());
    ASSERT_TRUE(op.ok()) << name;
    const json::Value& config = op.value()->config();
    for (const ParamSpec& p : schema.params()) {
      if (p.def.is_null()) continue;  // OP computes its own default
      const json::Value* echoed = config.as_object().Find(p.key);
      if (echoed == nullptr) continue;  // OP doesn't echo this param
      if (p.def.is_number() && echoed->is_number()) {
        EXPECT_EQ(p.def.as_double(), echoed->as_double())
            << name << "." << p.key;
      } else {
        EXPECT_EQ(p.def, *echoed) << name << "." << p.key;
      }
    }
  }
}

TEST(OpSchemaTest, ParamSpecsHaveDocsAndValidRanges) {
  for (const OpDeclaration* d : OpRegistry::Global().Declarations()) {
    const OpSchema& schema = d->schema;
    for (const ParamSpec& p : schema.params()) {
      EXPECT_LE(p.min_value, p.max_value) << schema.op_name() << "." << p.key;
      if (p.def.is_number() && p.has_range()) {
        EXPECT_GE(p.def.as_double(), p.min_value)
            << schema.op_name() << "." << p.key;
        EXPECT_LE(p.def.as_double(), p.max_value)
            << schema.op_name() << "." << p.key;
      }
    }
  }
}

TEST(OpSchemaTest, ToJsonRoundTripsBasics) {
  const OpDeclaration* d =
      OpRegistry::Global().Find("language_id_score_filter");
  ASSERT_NE(d, nullptr);
  json::Value v = d->schema.ToJson();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.as_object().Find("name")->as_string(),
            "language_id_score_filter");
  const json::Value* params = v.as_object().Find("params");
  ASSERT_TRUE(params != nullptr && params->is_array());
  EXPECT_GE(params->as_array().size(), 3u);  // text_key, lang, min_score
}

// ----------------------------------------------------------- formatters --

TEST(FormatterTest, JsonlFormatter) {
  JsonlFormatter f(Config());
  auto ds = f.LoadFromString("{\"text\": \"a\"}\n{\"text\": \"b\"}\n", "mem");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().NumRows(), 2u);
}

TEST(FormatterTest, JsonFormatterArrayAndObject) {
  JsonFormatter f(Config());
  auto arr = f.LoadFromString(R"([{"text": "a"}, {"text": "b"}])", "mem");
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ(arr.value().NumRows(), 2u);
  auto obj = f.LoadFromString(R"({"text": "solo"})", "mem");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj.value().NumRows(), 1u);
  EXPECT_FALSE(f.LoadFromString("[1, 2]", "mem").ok());
}

TEST(FormatterTest, TxtFormatterWholeAndPerLine) {
  TxtFormatter whole(Config());
  auto w = whole.LoadFromString("line1\nline2\n", "f.txt");
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value().NumRows(), 1u);
  TxtFormatter per_line(Config(R"({"per_line": true})"));
  auto p = per_line.LoadFromString("line1\n\nline2\n", "f.txt");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().NumRows(), 2u);
  EXPECT_EQ(p.value().GetTextAt(0, "meta.source"), "f.txt");
}

TEST(FormatterTest, CsvFormatterWithQuoting) {
  CsvFormatter f(Config());
  auto ds = f.LoadFromString(
      "text,stars,lang\n\"hello, world\",120,en\nplain,3,de\n", "x.csv");
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds.value().NumRows(), 2u);
  EXPECT_EQ(ds.value().GetTextAt(0), "hello, world");
  EXPECT_EQ(ds.value().GetNumberAt(0, "meta.stars"), 120.0);
  EXPECT_EQ(ds.value().GetTextAt(1, "meta.lang"), "de");
}

TEST(FormatterTest, CsvFormatterRejectsRaggedRows) {
  CsvFormatter f(Config());
  EXPECT_FALSE(f.LoadFromString("a,b\n1\n", "x.csv").ok());
}

TEST(FormatterTest, TsvFormatter) {
  TsvFormatter f(Config());
  auto ds = f.LoadFromString("text\tn\nhello\t1\n", "x.tsv");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().GetTextAt(0), "hello");
}

TEST(FormatterTest, CodeFormatterDetectsLanguage) {
  CodeFormatter f(Config());
  auto ds = f.LoadFromString("def f():\n  pass\n", "tool/run.py");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().GetTextAt(0, "meta.language"), "python");
  EXPECT_EQ(ds.value().GetTextAt(0, "meta.suffix"), ".py");
}

TEST(FormatterTest, LoadDatasetDispatchesOnSuffix) {
  std::string dir = ::testing::TempDir() + "/dj_fmt_test";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(
      data::WriteFile(dir + "/d.jsonl", "{\"text\": \"from jsonl\"}\n").ok());
  ASSERT_TRUE(data::WriteFile(dir + "/d.txt", "from txt").ok());
  ASSERT_TRUE(data::WriteFile(dir + "/d.cpp", "int main() {}").ok());
  auto jsonl = LoadDataset(dir + "/d.jsonl");
  ASSERT_TRUE(jsonl.ok());
  EXPECT_EQ(jsonl.value().GetTextAt(0), "from jsonl");
  auto txt = LoadDataset(dir + "/d.txt");
  ASSERT_TRUE(txt.ok());
  EXPECT_EQ(txt.value().GetTextAt(0), "from txt");
  auto code = LoadDataset(dir + "/d.cpp");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value().GetTextAt(0, "meta.language"), "cpp");
  EXPECT_FALSE(LoadDataset(dir + "/missing.jsonl").ok());
}

// ------------------------------------------------------ effect system ----

TEST(OpEffectsTest, EveryBuiltinOpDeclaresNonEmptyEffects) {
  // No silent empty signatures: every OP must declare at least one field.
  for (const OpDeclaration* d : OpRegistry::Global().Declarations()) {
    const OpEffects& e = d->effects;
    EXPECT_FALSE(e.reads().empty() && e.writes().empty() &&
                 e.stats_produced().empty())
        << d->schema.op_name() << " declares an empty effect signature";
  }
}

TEST(OpEffectsTest, EffectsConsistentWithKind) {
  const OpRegistry& registry = OpRegistry::Global();
  for (const std::string& name : registry.Names()) {
    auto op = registry.Create(name, Config());
    ASSERT_TRUE(op.ok()) << name;
    auto resolved = op.value()->declaration().effects.Resolve(*op.value());
    ASSERT_TRUE(resolved.ok())
        << name << ": " << resolved.status().ToString();
    const auto& reads = resolved.value().reads;
    const auto& writes = resolved.value().writes;
    switch (op.value()->kind()) {
      case OpKind::kFilter:
        EXPECT_FALSE(reads.empty()) << name;
        break;
      case OpKind::kMapper: {
        const std::string& key = op.value()->text_key();
        EXPECT_NE(std::find(reads.begin(), reads.end(), key), reads.end())
            << name;
        EXPECT_NE(std::find(writes.begin(), writes.end(), key), writes.end())
            << name;
        break;
      }
      case OpKind::kDeduplicator:
        EXPECT_FALSE(reads.empty()) << name;
        break;
      case OpKind::kFormatter:
        EXPECT_FALSE(writes.empty()) << name;
        break;
    }
  }
}

TEST(OpEffectsTest, PlaceholdersResolveAgainstEffectiveConfig) {
  const OpRegistry& registry = OpRegistry::Global();
  auto filter = registry.Create("word_num_filter",
                                Config(R"({"text_key": "text.body"})"));
  ASSERT_TRUE(filter.ok());
  auto resolved =
      filter.value()->declaration().effects.Resolve(*filter.value());
  ASSERT_TRUE(resolved.ok());
  const auto& reads = resolved.value().reads;
  EXPECT_NE(std::find(reads.begin(), reads.end(), "text.body"), reads.end());
  EXPECT_NE(std::find(reads.begin(), reads.end(), "stats.num_words"),
            reads.end());

  auto field_filter = registry.Create("specified_numeric_field_filter",
                                      Config(R"({"field": "meta.stars"})"));
  ASSERT_TRUE(field_filter.ok());
  auto field_resolved = field_filter.value()->declaration().effects.Resolve(
      *field_filter.value());
  ASSERT_TRUE(field_resolved.ok());
  const auto& field_reads = field_resolved.value().reads;
  EXPECT_NE(std::find(field_reads.begin(), field_reads.end(), "meta.stars"),
            field_reads.end());

  // A placeholder param set to "" does not resolve; the linter then warns
  // and leaves the OP out of its dataflow pass.
  auto blank =
      registry.Create("field_exists_filter", Config(R"({"field": ""})"));
  ASSERT_TRUE(blank.ok());
  EXPECT_FALSE(
      blank.value()->declaration().effects.Resolve(*blank.value()).ok());
}

}  // namespace
}  // namespace dj::ops
