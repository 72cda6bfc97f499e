#include "fault/fault.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/checkpoint.h"
#include "core/executor.h"
#include "data/io.h"
#include "json/writer.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "ops/registry.h"
#include "workload/generator.h"

// The fault-injection harness: fail-point registry semantics, seed
// determinism, observability emission, crash-atomic checkpointing under
// injected crashes, and the crash matrix — every shipped recipe killed at
// every OP boundary, resumed, and required to produce byte-identical output.

#ifndef DJ_REPO_DIR
#define DJ_REPO_DIR "."
#endif

namespace dj {
namespace {

namespace fs = std::filesystem;

using fault::FaultRegistry;
using fault::ScopedFaults;

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/dj_fault_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------------ registry specs ----

TEST(FaultRegistryTest, UnarmedPointsNeverFire) {
  FaultRegistry::Global().Reset();
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
  EXPECT_FALSE(DJ_FAULT("nothing.armed"));
  EXPECT_EQ(FaultRegistry::Global().Stats("nothing.armed").hits, 0u);
}

TEST(FaultRegistryTest, ParsesEveryMode) {
  ScopedFaults faults("a=always; b=p0.5, c=n3 ;d=off;e=1");
  ASSERT_TRUE(faults.status().ok()) << faults.status().ToString();
  EXPECT_EQ(FaultRegistry::Global().ArmedPoints().size(), 5u);

  // always / 1: every hit triggers.
  EXPECT_TRUE(DJ_FAULT("a"));
  EXPECT_TRUE(DJ_FAULT("a"));
  EXPECT_TRUE(DJ_FAULT("e"));

  // n3: exactly the third hit, once.
  EXPECT_FALSE(DJ_FAULT("c"));
  EXPECT_FALSE(DJ_FAULT("c"));
  EXPECT_TRUE(DJ_FAULT("c"));
  EXPECT_FALSE(DJ_FAULT("c"));
  EXPECT_EQ(FaultRegistry::Global().Stats("c").hits, 4u);
  EXPECT_EQ(FaultRegistry::Global().Stats("c").triggers, 1u);

  // off: counts hits, never triggers.
  EXPECT_FALSE(DJ_FAULT("d"));
  EXPECT_EQ(FaultRegistry::Global().Stats("d").hits, 1u);
}

TEST(FaultRegistryTest, RejectsMalformedSpecs) {
  FaultRegistry::Global().Reset();
  EXPECT_FALSE(FaultRegistry::Global().Configure("x=p1.5").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("x=n0").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("x=sometimes").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("=always").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("bare-name").ok());
  EXPECT_FALSE(FaultRegistry::Global().Configure("seed=notanumber").ok());
  FaultRegistry::Global().Reset();
}

TEST(FaultRegistryTest, EmptyAndWhitespaceSpecsAreOk) {
  FaultRegistry::Global().Reset();
  EXPECT_TRUE(FaultRegistry::Global().Configure("").ok());
  EXPECT_TRUE(FaultRegistry::Global().Configure(" ; , ").ok());
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
}

TEST(FaultRegistryTest, ScopedFaultsResetOnExit) {
  {
    ScopedFaults faults("x=always");
    ASSERT_TRUE(faults.status().ok());
    EXPECT_TRUE(FaultRegistry::Global().AnyArmed());
  }
  EXPECT_FALSE(FaultRegistry::Global().AnyArmed());
  EXPECT_EQ(FaultRegistry::Global().TotalTriggers(), 0u);
}

// -------------------------------------------------------- determinism ----

// Acceptance criterion: a given seed reproduces the exact same trigger
// sequence across two runs.
TEST(FaultDeterminismTest, SameSeedSameTriggerSequence) {
  auto draw_sequence = [](uint64_t seed) {
    FaultRegistry::Global().Reset();
    ScopedFaults faults("seed=" + std::to_string(seed) + ";flaky=p0.3");
    EXPECT_TRUE(faults.status().ok());
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) out.push_back(DJ_FAULT("flaky"));
    return out;
  };
  std::vector<bool> run1 = draw_sequence(123);
  std::vector<bool> run2 = draw_sequence(123);
  EXPECT_EQ(run1, run2);
  EXPECT_NE(run1, draw_sequence(124));  // a different seed diverges
}

TEST(FaultDeterminismTest, SeedEntryGovernsFollowingPoints) {
  // "seed=U" reseeds the registry; points armed after it draw from it.
  auto first_trigger_index = [](const std::string& spec) {
    FaultRegistry::Global().Reset();
    ScopedFaults faults(spec);
    EXPECT_TRUE(faults.status().ok());
    for (int i = 0; i < 10000; ++i) {
      if (DJ_FAULT("p")) return i;
    }
    return -1;
  };
  int a = first_trigger_index("seed=7;p=p0.05");
  int b = first_trigger_index("seed=7;p=p0.05");
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 0);
}

TEST(FaultDeterminismTest, PointsDrawIndependentStreams) {
  // Two points under one seed have distinct (name-derived) RNG streams.
  FaultRegistry::Global().Reset();
  ScopedFaults faults("seed=5;left=p0.5;right=p0.5");
  ASSERT_TRUE(faults.status().ok());
  std::vector<bool> left, right;
  for (int i = 0; i < 100; ++i) {
    left.push_back(DJ_FAULT("left"));
    right.push_back(DJ_FAULT("right"));
  }
  EXPECT_NE(left, right);
}

// ------------------------------------------------------ observability ----

TEST(FaultObsTest, TriggersBumpMetricsAndEmitInstants) {
  obs::MetricsRegistry metrics;
  obs::SpanRecorder spans;
  obs::InstallGlobalMetrics(&metrics);
  obs::InstallGlobalRecorder(&spans);
  {
    ScopedFaults faults("obs.point=n2");
    ASSERT_TRUE(faults.status().ok());
    EXPECT_FALSE(DJ_FAULT("obs.point"));
    EXPECT_TRUE(DJ_FAULT("obs.point"));
  }
  obs::InstallGlobalMetrics(nullptr);
  obs::InstallGlobalRecorder(nullptr);

  EXPECT_EQ(metrics.FindCounter("fault.triggers")->value(), 1u);
  EXPECT_EQ(metrics.FindCounter("fault.obs.point.triggers")->value(), 1u);

  // The trace carries a "fault:obs.point" instant.
  std::string trace = json::Write(spans.ToJson(), {});
  EXPECT_NE(trace.find("fault:obs.point"), std::string::npos) << trace;
}

// ------------------------------------------- checkpoint crash windows ----

// Checkpoints `texts` the way the executor does: serialize, then Save.
Status SaveTexts(const core::CheckpointManager& mgr, size_t next_op_index,
                 uint64_t key, std::vector<std::string> texts) {
  data::Dataset ds = data::Dataset::FromTexts(std::move(texts));
  return mgr.Save(next_op_index, key, ds.NumRows(),
                  data::SerializeDataset(ds));
}

class CheckpointCrashTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CheckpointCrashTest, CrashLeavesPreviousCheckpointLoadable) {
  std::string dir = TempDir(std::string("crash_") + GetParam());
  core::CheckpointManager mgr(dir);
  ASSERT_TRUE(SaveTexts(mgr, 1, 111, {"one"}).ok());

  {
    ScopedFaults faults(std::string(GetParam()) + "=n1");
    ASSERT_TRUE(faults.status().ok());
    Status crashed = SaveTexts(mgr, 2, 222, {"two", "extra"});
    EXPECT_FALSE(crashed.ok());
    EXPECT_NE(crashed.ToString().find(GetParam()), std::string::npos)
        << crashed.ToString();
  }

  // The interrupted Save must not have damaged the previous checkpoint.
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().next_op_index, 1u);
  EXPECT_EQ(loaded.value().pipeline_key, 111u);
  EXPECT_EQ(loaded.value().dataset.NumRows(), 1u);

  // And a retried Save (fault cleared) wins cleanly.
  ASSERT_TRUE(SaveTexts(mgr, 2, 222, {"two", "extra"}).ok());
  auto retried = mgr.LoadLatest();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().next_op_index, 2u);
  EXPECT_EQ(retried.value().dataset.NumRows(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllCrashWindows, CheckpointCrashTest,
                         ::testing::Values("ckpt.blob_write",
                                           "ckpt.after_blob",
                                           "ckpt.manifest_write"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

TEST(CheckpointCorruptionTest, TruncatedBlobIsRejectedWithClearError) {
  std::string dir = TempDir("torn_blob");
  core::CheckpointManager mgr(dir);
  ASSERT_TRUE(SaveTexts(mgr, 3, 42, {"alpha", "beta", "gamma"}).ok());

  // Tear the blob behind the manifest's back.
  std::string blob_path;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".djds") {
      blob_path = entry.path().string();
    }
  }
  ASSERT_FALSE(blob_path.empty());
  auto bytes = data::ReadFile(blob_path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(data::WriteFile(blob_path, std::string_view(bytes.value())
                                             .substr(0, bytes.value().size() / 2))
                  .ok());

  auto loaded = mgr.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

TEST(CheckpointCorruptionTest, FlippedBlobByteIsRejected) {
  std::string dir = TempDir("flipped_blob");
  core::CheckpointManager mgr(dir);
  ASSERT_TRUE(SaveTexts(mgr, 1, 9, {"payload row"}).ok());

  std::string blob_path;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".djds") {
      blob_path = entry.path().string();
    }
  }
  ASSERT_FALSE(blob_path.empty());
  auto bytes = data::ReadFile(blob_path);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = bytes.value();
  mutated[mutated.size() / 2] ^= 0x01;
  ASSERT_TRUE(data::WriteFile(blob_path, mutated).ok());

  auto loaded = mgr.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(CheckpointCorruptionTest, TornManifestIsRejected) {
  std::string dir = TempDir("torn_manifest");
  core::CheckpointManager mgr(dir);
  ASSERT_TRUE(SaveTexts(mgr, 1, 9, {"row"}).ok());
  auto manifest = data::ReadFile(dir + "/checkpoint.json");
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(
      data::WriteFile(dir + "/checkpoint.json",
                      std::string_view(manifest.value())
                          .substr(0, manifest.value().size() / 2))
          .ok());

  auto loaded = mgr.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().ToString().find("torn"), std::string::npos);
}

// Checkpoint layouts written by older builds, which this build refuses:
// schema 2 is the crash-atomic layout with an FNV-1a blob checksum; the
// pre-atomic layout is a bare checkpoint.djds beside a manifest with no
// schema, blob name or checksum.
enum class OlderLayout { kSchema2, kPreAtomic };

void WriteOlderCheckpoint(const std::string& dir, OlderLayout layout,
                          size_t next_op_index, uint64_t key,
                          const data::Dataset& ds) {
  const std::string blob = data::SerializeDataset(ds);
  std::string blob_file = "checkpoint.djds";
  json::Object manifest;
  manifest.Set("next_op_index",
               json::Value(static_cast<int64_t>(next_op_index)));
  manifest.Set("pipeline_key", json::Value(static_cast<int64_t>(key)));
  manifest.Set("num_rows", json::Value(static_cast<int64_t>(ds.NumRows())));
  if (layout == OlderLayout::kSchema2) {
    char name[48];
    std::snprintf(name, sizeof(name), "checkpoint-%016llx.djds",
                  static_cast<unsigned long long>(key));
    blob_file = name;
    manifest.Set("schema", json::Value(static_cast<int64_t>(2)));
    manifest.Set("blob_file", json::Value(blob_file));
    manifest.Set("blob_bytes", json::Value(static_cast<int64_t>(blob.size())));
    manifest.Set("blob_checksum",
                 json::Value(static_cast<int64_t>(Fnv1a64(blob))));
  }
  ASSERT_TRUE(data::WriteFile(dir + "/" + blob_file, blob).ok());
  ASSERT_TRUE(data::WriteFile(dir + "/checkpoint.json",
                              json::Write(json::Value(std::move(manifest))))
                  .ok());
}

class OlderCheckpointTest : public ::testing::TestWithParam<OlderLayout> {
 protected:
  const char* SchemaText() const {
    return GetParam() == OlderLayout::kSchema2 ? "schema 2" : "schema (none)";
  }
};

TEST_P(OlderCheckpointTest, IsRejectedNamingItsSchema) {
  std::string dir = TempDir("older_load");
  WriteOlderCheckpoint(dir, GetParam(), 4, 77,
                       data::Dataset::FromTexts({"old", "format"}));

  auto loaded = core::CheckpointManager(dir).LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().ToString().find(SchemaText()), std::string::npos)
      << loaded.status().ToString();
}

TEST_P(OlderCheckpointTest, ExecutorStartsFreshAndCountsTheRejection) {
  auto recipe = core::Recipe::FromString(R"(
process:
  - whitespace_normalization_mapper:
  - text_length_filter:
      min: 10
)");
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();

  auto corpus = [] {
    return data::Dataset::FromTexts(
        {"  first   document, long enough to keep ", "short",
         "second document\twith   spacing to normalize"});
  };

  // The older checkpoint holds a plan-compatible site (after unit 0), so
  // only the schema check keeps the executor from resuming from it.
  std::string dir = TempDir("older_exec");
  uint64_t key = core::CacheManager::InitialKey("older-corpus");
  key = core::CacheManager::ExtendKey(key, ops.value()[0]->name(),
                                      ops.value()[0]->config());
  WriteOlderCheckpoint(dir, GetParam(), 1, key, corpus());

  obs::MetricsRegistry metrics;
  core::Executor::Options options;
  options.use_checkpoint = true;
  options.checkpoint_dir = dir;
  options.dataset_source_id = "older-corpus";
  options.metrics = &metrics;
  core::Executor executor(options);
  core::RunReport report;
  auto result = executor.Run(corpus(), ops.value(), &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.op_reports.size(), ops.value().size());
  ASSERT_NE(metrics.FindCounter("checkpoint.load_rejected"), nullptr);
  EXPECT_EQ(metrics.FindCounter("checkpoint.load_rejected")->value(), 1u);

  // The run's own schema-3 checkpoint replaced the older one, whose blob
  // was collected.
  auto reloaded = core::CheckpointManager(dir).LoadLatest();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().next_op_index, ops.value().size());
  size_t blobs = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".djds") ++blobs;
  }
  EXPECT_EQ(blobs, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    BothLayouts, OlderCheckpointTest,
    ::testing::Values(OlderLayout::kSchema2, OlderLayout::kPreAtomic),
    [](const ::testing::TestParamInfo<OlderLayout>& info) {
      return info.param == OlderLayout::kSchema2 ? std::string("schema2")
                                                 : std::string("pre_atomic");
    });

// ------------------------------------------------------- crash matrix ----

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

// Small mixed corpus (web/arxiv/code/zh + instruction data) so every shipped
// recipe has rows its OPs act on; regenerated identically per run from fixed
// seeds.
data::Dataset SmallCorpus() {
  workload::CorpusOptions web;
  web.style = workload::Style::kWeb;
  web.num_docs = 16;
  web.exact_dup_rate = 0.25;
  web.spam_rate = 0.2;
  web.seed = 11;
  data::Dataset ds = workload::CorpusGenerator(web).Generate();

  workload::CorpusOptions zh;
  zh.style = workload::Style::kChinese;
  zh.num_docs = 6;
  zh.seed = 12;
  ds.Concat(workload::CorpusGenerator(zh).Generate());

  workload::CorpusOptions code;
  code.style = workload::Style::kCode;
  code.num_docs = 6;
  code.seed = 13;
  ds.Concat(workload::CorpusGenerator(code).Generate());

  workload::InstructionOptions sft;
  sft.num_samples = 16;
  sft.low_quality_rate = 0.3;
  sft.dup_rate = 0.25;
  sft.seed = 14;
  ds.Concat(workload::GenerateInstructionDataset(sft));

  workload::InstructionOptions ift = sft;
  ift.usage = "IFT";
  ift.seed = 15;
  ds.Concat(workload::GenerateInstructionDataset(ift));
  return ds;
}

class CrashMatrixTest : public ::testing::TestWithParam<std::string> {};

// Acceptance criterion: for every shipped recipe, a run killed at any OP
// boundary and resumed from its checkpoint produces byte-identical output
// to an uninterrupted run.
TEST_P(CrashMatrixTest, KillAtEveryBoundaryResumeByteIdentical) {
  auto recipe = core::Recipe::FromFile(GetParam());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();

  core::Executor::Options base =
      core::Executor::OptionsFromRecipe(recipe.value());
  base.num_workers = 1;  // keep the matrix fast
  base.use_cache = false;
  base.use_checkpoint = false;

  // Uninterrupted reference run.
  FaultRegistry::Global().Reset();
  core::Executor clean_executor(base);
  auto clean = clean_executor.Run(SmallCorpus(), ops.value());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const std::string want_bytes = data::SerializeDatasetV1(clean.value());

  // Kill at boundary b (the b-th probe of exec.op_abort), resume, compare.
  // The loop discovers the number of plan units implicitly: when the
  // injected run no longer crashes, every boundary has been covered.
  size_t boundaries_hit = 0;
  for (uint64_t b = 1; b <= 64; ++b) {
    std::string dir =
        TempDir("matrix_" + fs::path(GetParam()).stem().string() + "_" +
                std::to_string(b));
    core::Executor::Options opts = base;
    opts.use_checkpoint = true;
    opts.checkpoint_dir = dir;
    opts.faults = "exec.op_abort=n" + std::to_string(b);

    core::Executor crashing(opts);
    auto crashed = crashing.Run(SmallCorpus(), ops.value());
    FaultRegistry::Global().Reset();
    if (crashed.ok()) {
      // Fewer than b boundaries: the whole matrix for this recipe is done.
      EXPECT_EQ(data::SerializeDatasetV1(crashed.value()), want_bytes);
      break;
    }
    ASSERT_EQ(crashed.status().code(), StatusCode::kAborted)
        << crashed.status().ToString();
    ++boundaries_hit;

    core::Executor::Options resume_opts = opts;
    resume_opts.faults.clear();
    core::Executor resuming(resume_opts);
    core::RunReport report;
    auto resumed = resuming.Run(SmallCorpus(), ops.value(), &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    // Boundary 1 aborts before the first unit: nothing was checkpointed,
    // so the resumed run legitimately starts from scratch.
    if (b > 1) {
      EXPECT_TRUE(report.resumed_from_checkpoint)
          << GetParam() << " boundary " << b;
    }
    ASSERT_EQ(data::SerializeDatasetV1(resumed.value()), want_bytes)
        << GetParam() << ": resume after kill at boundary " << b
        << " diverged from the uninterrupted run";
    fs::remove_all(dir);
  }
  EXPECT_GE(boundaries_hit, 1u) << "no boundary was ever hit — is "
                                   "exec.op_abort still probed per unit?";
}

INSTANTIATE_TEST_SUITE_P(
    AllShippedRecipes, CrashMatrixTest, ::testing::ValuesIn(RecipePaths()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = fs::path(info.param).stem().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Seed-deterministic probabilistic kills at the executor level: the same
// DJ_FAULTS-style spec must abort at the same unit across runs.
TEST(ExecutorFaultTest, ProbabilisticAbortIsSeedDeterministic) {
  auto recipe = core::Recipe::FromFile(
      (fs::path(DJ_REPO_DIR) / "configs" / "recipes" / "pretrain_general_en.yaml")
          .string());
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();

  auto run_once = [&]() {
    FaultRegistry::Global().Reset();
    core::Executor::Options opts =
        core::Executor::OptionsFromRecipe(recipe.value());
    opts.num_workers = 1;
    opts.use_cache = false;
    opts.use_checkpoint = false;
    opts.faults = "seed=9;exec.op_abort=p0.4";
    core::Executor executor(opts);
    auto result = executor.Run(SmallCorpus(), ops.value());
    std::string outcome = result.ok() ? "ok" : result.status().ToString();
    FaultRegistry::Global().Reset();
    return outcome;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dj
