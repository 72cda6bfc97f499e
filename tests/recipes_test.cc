#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "core/executor.h"
#include "lint/linter.h"
#include "ops/registry.h"
#include "workload/generator.h"

// Validates every shipped data recipe in configs/recipes/: each must parse,
// build against the registry, and execute on a small mixed corpus without
// errors. This keeps the recipe collection honest as OPs evolve.

#ifndef DJ_REPO_DIR
#define DJ_REPO_DIR "."
#endif

namespace dj {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> RecipePaths() {
  std::vector<std::string> out;
  fs::path dir = fs::path(DJ_REPO_DIR) / "configs" / "recipes";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".yaml") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

data::Dataset MixedCorpus() {
  workload::CorpusOptions web;
  web.style = workload::Style::kWeb;
  web.num_docs = 40;
  web.exact_dup_rate = 0.2;
  web.spam_rate = 0.2;
  web.seed = 1;
  data::Dataset ds = workload::CorpusGenerator(web).Generate();

  workload::CorpusOptions arxiv;
  arxiv.style = workload::Style::kArxiv;
  arxiv.num_docs = 10;
  arxiv.seed = 2;
  ds.Concat(workload::CorpusGenerator(arxiv).Generate());

  workload::CorpusOptions code;
  code.style = workload::Style::kCode;
  code.num_docs = 10;
  code.seed = 3;
  ds.Concat(workload::CorpusGenerator(code).Generate());

  workload::CorpusOptions zh;
  zh.style = workload::Style::kChinese;
  zh.num_docs = 10;
  zh.seed = 4;
  ds.Concat(workload::CorpusGenerator(zh).Generate());

  workload::InstructionOptions sft;
  sft.num_samples = 40;
  sft.low_quality_rate = 0.3;
  sft.dup_rate = 0.2;
  sft.seed = 5;
  ds.Concat(workload::GenerateInstructionDataset(sft));

  workload::InstructionOptions ift = sft;
  ift.usage = "IFT";
  ift.seed = 6;
  ds.Concat(workload::GenerateInstructionDataset(ift));
  return ds;
}

TEST(RecipeCollectionTest, DirectoryHasRecipes) {
  EXPECT_GE(RecipePaths().size(), 8u);
}

class ShippedRecipeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShippedRecipeTest, ParsesBuildsAndRuns) {
  auto recipe = core::Recipe::FromFile(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  EXPECT_FALSE(recipe.value().project_name.empty());
  EXPECT_FALSE(recipe.value().process.empty());

  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  EXPECT_EQ(ops.value().size(), recipe.value().process.size());

  core::Executor::Options options =
      core::Executor::OptionsFromRecipe(recipe.value());
  options.num_workers = 1;  // keep CI fast
  options.cache_dir.clear();
  options.checkpoint_dir.clear();
  core::Executor executor(options);
  core::RunReport report;
  auto result = executor.Run(MixedCorpus(), ops.value(), &report);
  ASSERT_TRUE(result.ok()) << GetParam() << ": "
                           << result.status().ToString();
  EXPECT_LE(result.value().NumRows(), report.rows_in);
}

TEST_P(ShippedRecipeTest, LintsWithZeroErrors) {
  auto recipe = core::Recipe::FromFile(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  lint::RecipeLinter linter(ops::OpRegistry::Global());
  lint::LintReport report = linter.Lint(recipe.value());
  EXPECT_EQ(report.errors(), 0u) << GetParam() << ":\n" << report.ToString();
  EXPECT_EQ(report.warnings(), 0u)
      << GetParam() << ":\n" << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllShippedRecipes, ShippedRecipeTest,
    ::testing::ValuesIn(RecipePaths()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = fs::path(info.param).stem().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dj
