#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/recipe.h"
#include "data/io.h"
#include "json/writer.h"
#include "lint/explain_plan.h"
#include "lint/linter.h"
#include "ops/registry.h"

namespace dj::lint {
namespace {

core::Recipe ParseRecipe(std::string_view yaml) {
  auto r = core::Recipe::FromString(yaml);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

LintReport LintYaml(std::string_view yaml) {
  RecipeLinter linter(ops::OpRegistry::Global());
  return linter.Lint(ParseRecipe(yaml));
}

bool HasDiagnostic(const LintReport& report, Severity severity,
                   std::string_view needle) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == severity &&
        d.ToString().find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------- did-you-mean ----

TEST(ClosestMatchTest, SuggestsNearbyName) {
  std::vector<std::string> names = {"language_id_score_filter",
                                    "text_length_filter",
                                    "perplexity_filter"};
  EXPECT_EQ(RecipeLinter::ClosestMatch("languge_id_score_filter", names),
            "language_id_score_filter");
  EXPECT_EQ(RecipeLinter::ClosestMatch("text_lenght_filter", names),
            "text_length_filter");
}

TEST(ClosestMatchTest, RejectsFarNames) {
  std::vector<std::string> names = {"language_id_score_filter"};
  EXPECT_EQ(RecipeLinter::ClosestMatch("frobnicate", names), "");
  EXPECT_EQ(RecipeLinter::ClosestMatch("x", {}), "");
}

// --------------------------------------------------------- unknown OP ----

TEST(LinterTest, CleanMinimalRecipeHasNoErrors) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - whitespace_normalization_mapper:
)");
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.errors(), 0u);
}

TEST(LinterTest, UnknownOpIsErrorWithSuggestion) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - languge_id_score_filter:
      lang: en
)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, Severity::kError, "unknown OP"))
      << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, Severity::kError,
                            "did you mean 'language_id_score_filter'?"))
      << report.ToString();
}

TEST(LinterTest, UnknownOpWithoutNearMatchPointsAtOpsList) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - definitely_not_an_op_xyz:
)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(
      HasDiagnostic(report, Severity::kError, "see dj_lint --ops"))
      << report.ToString();
}

// ------------------------------------------------------ unknown params ----

TEST(LinterTest, UnknownParamKeyDiagnosedAcrossOpFamilies) {
  // One OP from each family plus a broad sample of filters/mappers/dedups:
  // every one must reject a made-up param key via its declared schema.
  const std::vector<std::string> op_names = {
      "txt_formatter",
      "clean_email_mapper",
      "remove_long_words_mapper",
      "remove_table_text_mapper",
      "text_length_filter",
      "word_num_filter",
      "character_repetition_filter",
      "language_id_score_filter",
      "perplexity_filter",
      "stopwords_filter",
      "suffix_filter",
      "document_minhash_deduplicator",
      "sentence_exact_deduplicator",
  };
  for (const std::string& op : op_names) {
    std::string yaml = "project_name: t\nprocess:\n  - " + op +
                       ":\n      bogus_param_xyz: 1\n";
    LintReport report = LintYaml(yaml);
    EXPECT_FALSE(report.ok()) << op;
    EXPECT_TRUE(HasDiagnostic(report, Severity::kError,
                              "unknown param 'bogus_param_xyz'"))
        << op << ":\n"
        << report.ToString();
  }
}

TEST(LinterTest, TypoParamKeyGetsSuggestion) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - language_id_score_filter:
      min_scor: 0.8
)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, Severity::kError,
                            "did you mean 'min_score'?"))
      << report.ToString();
}

// ------------------------------------------------------ type and range ----

TEST(LinterTest, ParamTypeMismatchIsError) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - language_id_score_filter:
      lang: 5
)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, Severity::kError,
                            "param 'lang' expects string, got int"))
      << report.ToString();
}

TEST(LinterTest, IntAcceptedWhereDoubleDeclared) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - language_id_score_filter:
      min_score: 1
)");
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(LinterTest, OutOfRangeParamIsWarning) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - language_id_score_filter:
      min_score: 2.5
)");
  EXPECT_TRUE(report.ok()) << report.ToString();  // warning, not error
  EXPECT_TRUE(HasDiagnostic(report, Severity::kWarning,
                            "outside the valid range"))
      << report.ToString();
}

// ------------------------------------------------------ empty keep-range --

TEST(LinterTest, EmptyKeepRangeIsError) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - text_length_filter:
      min: 100
      max: 10
)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, Severity::kError, "empty keep-range"))
      << report.ToString();
}

TEST(LinterTest, EmptyKeepRangeAgainstSchemaDefault) {
  // min above the schema's default max (1.0 for alphanumeric ratio).
  LintReport report = LintYaml(R"(
project_name: t
process:
  - alphanumeric_filter:
      min: 1.5
)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, Severity::kError, "empty keep-range"))
      << report.ToString();
}

TEST(LinterTest, ValidKeepRangeIsClean) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - text_length_filter:
      min: 10
      max: 5000
)");
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ------------------------------------------------------------ recipe-level

TEST(LinterTest, EmptyProcessIsWarning) {
  LintReport report = LintYaml("project_name: t\nprocess: []\n");
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, Severity::kWarning,
                            "'process' list is empty"))
      << report.ToString();
}

TEST(LinterTest, CacheWithoutDirIsError) {
  LintReport report = LintYaml(R"(
project_name: t
use_cache: true
process:
  - whitespace_normalization_mapper:
)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(report, Severity::kError,
                            "use_cache is enabled but cache_dir is empty"))
      << report.ToString();
}

TEST(LinterTest, CheckpointWithoutDirIsError) {
  LintReport report = LintYaml(R"(
project_name: t
use_checkpoint: true
process:
  - whitespace_normalization_mapper:
)");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasDiagnostic(
      report, Severity::kError,
      "use_checkpoint is enabled but checkpoint_dir is empty"))
      << report.ToString();
}

TEST(LinterTest, UnknownTopLevelKeyIsWarningWithSuggestion) {
  LintReport report = LintYaml(R"(
project_name: t
cache_compresion: true
process:
  - whitespace_normalization_mapper:
)");
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, Severity::kWarning,
                            "unknown top-level key 'cache_compresion'"))
      << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, Severity::kWarning,
                            "did you mean 'cache_compression'?"))
      << report.ToString();
}

TEST(LinterTest, RemovedRecipeKeysAreUnknownWarnings) {
  // Filter stages are always on and tracing is dj_process --trace, so these
  // keys no longer do anything: each lints like any other unknown key.
  for (std::string_view key : {"op_fusion", "enable_trace", "trace_limit"}) {
    LintReport report = LintYaml("project_name: t\n" + std::string(key) +
                                 ": true\nprocess:\n"
                                 "  - whitespace_normalization_mapper:\n");
    EXPECT_TRUE(report.ok()) << key << "\n" << report.ToString();
    EXPECT_TRUE(HasDiagnostic(report, Severity::kWarning,
                              "unknown top-level key '" + std::string(key) +
                                  "' is ignored"))
        << key << "\n" << report.ToString();
  }
}

// ------------------------------------------------------------- ordering --

TEST(LinterTest, DuplicateIdenticalOpIsWarning) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - clean_links_mapper:
  - whitespace_normalization_mapper:
  - clean_links_mapper:
)");
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, Severity::kWarning,
                            "identical duplicate of op[0]"))
      << report.ToString();
}

TEST(LinterTest, SameOpDifferentParamsIsNotDuplicate) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - text_length_filter:
      min: 10
  - text_length_filter:
      min: 20
)");
  EXPECT_FALSE(
      HasDiagnostic(report, Severity::kWarning, "identical duplicate"))
      << report.ToString();
}

TEST(LinterTest, DedupBeforeCleaningMapperIsWarning) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - document_exact_deduplicator:
  - clean_html_mapper:
)");
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, Severity::kWarning,
                            "deduplicator runs before cleaning mapper"))
      << report.ToString();
}

TEST(LinterTest, DedupAfterMappersIsClean) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - clean_html_mapper:
  - document_exact_deduplicator:
)");
  EXPECT_FALSE(HasDiagnostic(report, Severity::kWarning,
                             "deduplicator runs before"))
      << report.ToString();
}

// ---------------------------------------------------------- fusion notes --

TEST(LinterTest, FilterRunIsNotNoted) {
  // Every run of filters is a stage: there is nothing to suggest.
  LintReport report = LintYaml(R"(
project_name: t
process:
  - word_num_filter:
  - word_repetition_filter:
)");
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_FALSE(HasDiagnostic(report, Severity::kNote, "filter group"))
      << report.ToString();
  EXPECT_FALSE(HasDiagnostic(report, Severity::kNote, "stage"))
      << report.ToString();
}

TEST(LinterTest, MapperSandwichedBetweenFiltersIsNoted) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - word_num_filter:
  - whitespace_normalization_mapper:
  - word_repetition_filter:
)");
  EXPECT_TRUE(report.ok()) << report.ToString();
  // Advisory only: a note never fails --Werror.
  EXPECT_EQ(report.warnings(), 0u) << report.ToString();
  EXPECT_TRUE(HasDiagnostic(report, Severity::kNote,
                            "splits a filter group"))
      << report.ToString();
}

// -------------------------------------------------------------- output ----

TEST(LinterTest, DiagnosticToStringFormat) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.op_index = 3;
  d.op_name = "x_filter";
  d.message = "unknown OP";
  d.hint = "did you mean 'y_filter'?";
  EXPECT_EQ(d.ToString(),
            "error: op[3] 'x_filter': unknown OP (did you mean 'y_filter'?)");
}

TEST(LinterTest, RecipeLevelDiagnosticOmitsOpIndex) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.message = "something recipe-wide";
  EXPECT_EQ(d.ToString(), "warning: something recipe-wide");
}

TEST(LinterTest, ReportToStringSortsBySeverityAndSummarizes) {
  // A split filter run (note on op[1]) listed before the out-of-range param
  // (warning on op[3]) in the recipe; ToString must print the warning first.
  LintReport report = LintYaml(R"(
project_name: t
process:
  - word_num_filter:
  - whitespace_normalization_mapper:
  - word_repetition_filter:
  - language_id_score_filter:
      min_score: 2.5
)");
  std::string text = report.ToString();
  size_t warn_pos = text.find("warning:");
  size_t note_pos = text.find("note:");
  ASSERT_NE(warn_pos, std::string::npos) << text;
  ASSERT_NE(note_pos, std::string::npos) << text;
  EXPECT_LT(warn_pos, note_pos) << text;
  EXPECT_NE(text.find("1 warning(s)"), std::string::npos) << text;
}

TEST(LinterTest, ReportToJsonCarriesCountsAndDiagnostics) {
  LintReport report = LintYaml(R"(
project_name: t
process:
  - languge_id_score_filter:
)");
  json::Value v = report.ToJson();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.as_object().Find("errors")->as_int(), 1);
  const json::Value* diags = v.as_object().Find("diagnostics");
  ASSERT_TRUE(diags != nullptr && diags->is_array());
  ASSERT_EQ(diags->as_array().size(), 1u);
  const json::Value& d = diags->as_array()[0];
  EXPECT_EQ(d.as_object().Find("severity")->as_string(), "error");
  EXPECT_EQ(d.as_object().Find("op_name")->as_string(),
            "languge_id_score_filter");
  // Must serialize without choking.
  EXPECT_FALSE(json::Write(v).empty());
}

// ---------------------------------------------------- effect dataflow ----

TEST(LinterEffectsTest, ReadOfUndefinedStatsFieldIsError) {
  LintReport report = LintYaml(R"(
process:
  - specified_numeric_field_filter:
      field: stats.num_words
      min: 5
)");
  EXPECT_TRUE(HasDiagnostic(report, Severity::kError, "no earlier OP produces"))
      << report.ToString();
  EXPECT_FALSE(report.ok());
}

TEST(LinterEffectsTest, StatReadAfterProducerIsClean) {
  LintReport report = LintYaml(R"(
process:
  - word_num_filter:
      min: 1
  - specified_numeric_field_filter:
      field: stats.num_words
      min: 5
)");
  EXPECT_FALSE(HasDiagnostic(report, Severity::kError,
                             "no earlier OP produces"))
      << report.ToString();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(LinterEffectsTest, StatKeyCollisionIsWarning) {
  // Both instances write stats.text_len; the second OP's ComputeStats skips
  // rows that already carry the stat, so its own params never apply.
  LintReport report = LintYaml(R"(
process:
  - text_length_filter:
      min: 10
  - text_length_filter:
      min: 200
)");
  EXPECT_TRUE(HasDiagnostic(report, Severity::kWarning, "already produced"))
      << report.ToString();
}

TEST(LinterEffectsTest, DeadStatWriteIsNote) {
  // Vacuous bounds keep every row, nothing downstream reads the stat, and
  // there is no export_path to surface it.
  LintReport report = LintYaml(R"(
process:
  - text_length_filter:
      min: 0
)");
  EXPECT_TRUE(HasDiagnostic(report, Severity::kNote, "dead write"))
      << report.ToString();
}

TEST(LinterEffectsTest, UnreachableOpsAfterEmptyKeepRange) {
  LintReport report = LintYaml(R"(
process:
  - text_length_filter:
      min: 100
      max: 10
  - word_num_filter:
      min: 1
)");
  EXPECT_TRUE(HasDiagnostic(report, Severity::kWarning, "unreachable"))
      << report.ToString();
}

TEST(LinterEffectsTest, EffectsChecksCanBeDisabled) {
  RecipeLinter::Options options;
  options.effects_checks = false;
  RecipeLinter linter(ops::OpRegistry::Global(), options);
  auto recipe = ParseRecipe(R"(
process:
  - specified_numeric_field_filter:
      field: stats.num_words
      min: 5
)");
  LintReport report = linter.Lint(recipe);
  EXPECT_FALSE(HasDiagnostic(report, Severity::kError,
                             "no earlier OP produces"))
      << report.ToString();
}

// -------------------------------------------------------- explain-plan ----

TEST(ExplainPlanTest, StatReadingMemberStaysInTheStage) {
  // specified_numeric_field_filter reads the stat word_num_filter writes.
  // The stage runs its members in recipe order, so it needs no license.
  auto recipe = ParseRecipe(R"(
process:
  - word_num_filter:
      min: 1
  - specified_numeric_field_filter:
      field: stats.num_words
      min: 5
)");
  auto out = ExplainPlan(recipe, ops::OpRegistry::Global());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(),
            "plan: 2 OP(s) -> 1 unit(s)\n"
            "  unit[0] fused(word_num_filter,specified_numeric_field_filter)\n");
}

TEST(ExplainPlanTest, ShowsFusedUnits) {
  auto recipe = ParseRecipe(R"(
project_name: t
process:
  - word_num_filter:
      min: 1
  - word_repetition_filter:
      max_ratio: 0.5
  - whitespace_normalization_mapper:
  - text_length_filter:
      min: 10
)");
  auto out = ExplainPlan(recipe, ops::OpRegistry::Global());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(),
            "plan for 't': 4 OP(s) -> 3 unit(s)\n"
            "  unit[0] fused(word_num_filter,word_repetition_filter)\n"
            "  unit[1] whitespace_normalization_mapper\n"
            "  unit[2] text_length_filter\n");
}

// ------------------------------------------------ declared OP surface ----
// The OP catalog (`dj_lint --ops --json`) and the --explain-plan text of
// every shipped recipe, rendered in-process and compared byte for byte with
// fixtures under tests/fixtures/declared_surface/. Any change to an OP's
// declared name, kind, params, defaults, ranges, docs or effects, or to the
// plan, shows up here; regenerate the fixtures only when that change is
// intended.

#ifndef DJ_REPO_DIR
#define DJ_REPO_DIR "."
#endif

std::string Fixture(const std::string& name) {
  auto content = data::ReadFile(std::string(DJ_REPO_DIR) +
                                "/tests/fixtures/declared_surface/" + name);
  EXPECT_TRUE(content.ok()) << name << ": " << content.status().ToString();
  return content.ok() ? content.value() : std::string();
}

TEST(DeclaredSurfaceTest, OpCatalogMatchesFixture) {
  json::Array catalog;
  for (const ops::OpDeclaration* d :
       ops::OpRegistry::Global().Declarations()) {
    catalog.push_back(d->schema.ToJson());
  }
  json::Object root;
  root.Set("ops", json::Value(std::move(catalog)));
  json::WriteOptions pretty{.pretty = true};
  EXPECT_EQ(json::Write(json::Value(std::move(root)), pretty) + "\n",
            Fixture("ops_catalog.json"));
}

TEST(DeclaredSurfaceTest, ShippedRecipePlansMatchFixtures) {
  namespace fs = std::filesystem;
  std::vector<fs::path> recipes;
  for (const auto& entry :
       fs::directory_iterator(fs::path(DJ_REPO_DIR) / "configs" / "recipes")) {
    if (entry.path().extension() == ".yaml") recipes.push_back(entry.path());
  }
  std::sort(recipes.begin(), recipes.end());
  ASSERT_EQ(recipes.size(), 9u);
  for (const fs::path& path : recipes) {
    auto recipe = core::Recipe::FromFile(path.string());
    ASSERT_TRUE(recipe.ok()) << path << ": " << recipe.status().ToString();
    auto plan = ExplainPlan(recipe.value(), ops::OpRegistry::Global());
    ASSERT_TRUE(plan.ok()) << path << ": " << plan.status().ToString();
    EXPECT_EQ(plan.value(),
              Fixture(path.stem().string() + ".plan.txt"))
        << path;
  }
}

}  // namespace
}  // namespace dj::lint
