#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/executor.h"
#include "data/io.h"
#include "ops/registry.h"
#include "per_op_reference.h"
#include "workload/generator.h"

// Differential plan test: every shipped recipe must produce byte-identical
// output whether it runs as one Executor::Run per OP or as one run, where
// each run of two or more filters is a stage that takes each row through
// its members in recipe order and stops at the first rejection. Any
// divergence means a stage does not see a row as the unit of its own
// would. A second case runs the stages at np 4 on a larger corpus, so
// every stage short-circuits its rows across workers.

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

// 100 rows per unit of `scale`.
data::Dataset MixedCorpus(size_t scale = 1) {
  workload::CorpusOptions web;
  web.style = workload::Style::kWeb;
  web.num_docs = 40 * scale;
  web.exact_dup_rate = 0.2;
  web.spam_rate = 0.2;
  web.seed = 1;
  data::Dataset ds = workload::CorpusGenerator(web).Generate();

  workload::CorpusOptions arxiv;
  arxiv.style = workload::Style::kArxiv;
  arxiv.num_docs = 10 * scale;
  arxiv.seed = 2;
  ds.Concat(workload::CorpusGenerator(arxiv).Generate());

  workload::CorpusOptions code;
  code.style = workload::Style::kCode;
  code.num_docs = 10 * scale;
  code.seed = 3;
  ds.Concat(workload::CorpusGenerator(code).Generate());

  workload::InstructionOptions sft;
  sft.num_samples = 40 * scale;
  sft.low_quality_rate = 0.3;
  sft.dup_rate = 0.2;
  sft.seed = 5;
  ds.Concat(workload::GenerateInstructionDataset(sft));
  return ds;
}

// Runs `recipe` on a fresh OP chain (dedup OPs carry fingerprint state
// across runs, so OPs must never be reused): as one run with its stages,
// or as one run per OP.
data::Dataset RunRecipe(const core::Recipe& recipe, bool per_op,
                        int workers = 1, size_t scale = 1) {
  auto ops = core::BuildOps(recipe, ops::OpRegistry::Global());
  EXPECT_TRUE(ops.ok()) << ops.status().ToString();
  core::Executor::Options options =
      core::Executor::OptionsFromRecipe(recipe);
  options.num_workers = workers;
  options.cache_dir.clear();
  options.checkpoint_dir.clear();
  auto result =
      per_op ? RunPerOp(MixedCorpus(scale), ops.value(), options)
             : core::Executor(options).Run(MixedCorpus(scale), ops.value());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : data::Dataset{};
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class PlanDiffTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanDiffTest, StagedRunIsByteIdenticalToPerOpRuns) {
  auto recipe = core::Recipe::FromFile(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();

  data::Dataset naive = RunRecipe(recipe.value(), /*per_op=*/true);
  data::Dataset optimized = RunRecipe(recipe.value(), /*per_op=*/false);

  // In-memory binary container bytes (covers every column incl. stats).
  EXPECT_EQ(data::SerializeDataset(naive), data::SerializeDataset(optimized))
      << GetParam() << ": the staged run changed the dataset bytes";

  // Exported JSONL bytes, the artifact users actually diff.
  std::string dir = ::testing::TempDir() + "/dj_plan_diff";
  fs::create_directories(dir);
  std::string stem = fs::path(GetParam()).stem().string();
  std::string naive_path = dir + "/" + stem + ".naive.jsonl";
  std::string opt_path = dir + "/" + stem + ".opt.jsonl";
  ASSERT_TRUE(data::ExportDataset(naive, naive_path).ok());
  ASSERT_TRUE(data::ExportDataset(optimized, opt_path).ok());
  EXPECT_EQ(ReadFileBytes(naive_path), ReadFileBytes(opt_path))
      << GetParam() << ": exported JSONL differs between plans";
}

TEST_P(PlanDiffTest, StagedRunAtNp4OnLargerCorpusIsByteIdentical) {
  auto recipe = core::Recipe::FromFile(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();

  // 400 rows, so each of the 4 workers evaluates many rows of a stage.
  data::Dataset naive = RunRecipe(recipe.value(), /*per_op=*/true, 1, 4);
  data::Dataset optimized = RunRecipe(recipe.value(), /*per_op=*/false, 4, 4);

  EXPECT_EQ(data::SerializeDataset(naive), data::SerializeDataset(optimized))
      << GetParam() << ": the staged run at np 4 changed the dataset bytes";

  std::string dir = ::testing::TempDir() + "/dj_plan_diff";
  fs::create_directories(dir);
  std::string stem = fs::path(GetParam()).stem().string();
  std::string naive_path = dir + "/" + stem + ".np4.naive.jsonl";
  std::string opt_path = dir + "/" + stem + ".np4.opt.jsonl";
  ASSERT_TRUE(data::ExportDataset(naive, naive_path).ok());
  ASSERT_TRUE(data::ExportDataset(optimized, opt_path).ok());
  EXPECT_EQ(ReadFileBytes(naive_path), ReadFileBytes(opt_path))
      << GetParam() << ": exported JSONL differs between plans at np 4";
}

INSTANTIATE_TEST_SUITE_P(
    AllShippedRecipes, PlanDiffTest, ::testing::ValuesIn(RecipePaths()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = fs::path(info.param).stem().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dj
