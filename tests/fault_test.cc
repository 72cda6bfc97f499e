#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/probe.h"
#include "common/string_util.h"
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

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/dj_fault_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ------------------------------------------------------ registry specs ----

TEST(FailPointTest, UnarmedPointsNeverFire) {
  probe::Faults().Reset();
  EXPECT_FALSE(probe::Faults().armed());
  EXPECT_FALSE(DJ_FAULT("nothing.armed"));
  EXPECT_EQ(probe::Faults().Stats("nothing.armed").hits, 0u);
}

TEST(FailPointTest, ParsesEveryMode) {
  probe::Scoped faults(probe::Faults(), "a=always; b=p0.5, c=n3 ;d=off;e=1");
  ASSERT_TRUE(faults.status().ok()) << faults.status().ToString();
  EXPECT_EQ(probe::Faults().ArmedPoints().size(), 5u);

  // always / 1: every hit triggers.
  EXPECT_TRUE(DJ_FAULT("a"));
  EXPECT_TRUE(DJ_FAULT("a"));
  EXPECT_TRUE(DJ_FAULT("e"));

  // n3: exactly the third hit, once.
  EXPECT_FALSE(DJ_FAULT("c"));
  EXPECT_FALSE(DJ_FAULT("c"));
  EXPECT_TRUE(DJ_FAULT("c"));
  EXPECT_FALSE(DJ_FAULT("c"));
  EXPECT_EQ(probe::Faults().Stats("c").hits, 4u);
  EXPECT_EQ(probe::Faults().Stats("c").triggers, 1u);

  // off: counts hits, never triggers.
  EXPECT_FALSE(DJ_FAULT("d"));
  EXPECT_EQ(probe::Faults().Stats("d").hits, 1u);
}

TEST(FailPointTest, RejectsMalformedSpecs) {
  probe::Faults().Reset();
  EXPECT_FALSE(probe::Faults().Configure("x=p1.5").ok());
  EXPECT_FALSE(probe::Faults().Configure("x=n0").ok());
  EXPECT_FALSE(probe::Faults().Configure("x=sometimes").ok());
  EXPECT_FALSE(probe::Faults().Configure("=always").ok());
  EXPECT_FALSE(probe::Faults().Configure("bare-name").ok());
  EXPECT_FALSE(probe::Faults().Configure("seed=notanumber").ok());
  probe::Faults().Reset();
}

TEST(FailPointTest, EmptyAndWhitespaceSpecsAreOk) {
  probe::Faults().Reset();
  EXPECT_TRUE(probe::Faults().Configure("").ok());
  EXPECT_TRUE(probe::Faults().Configure(" ; , ").ok());
  EXPECT_FALSE(probe::Faults().armed());
}

TEST(FailPointTest, ScopedResetsOnExit) {
  {
    probe::Scoped faults(probe::Faults(), "x=always");
    ASSERT_TRUE(faults.status().ok());
    EXPECT_TRUE(probe::Faults().armed());
  }
  EXPECT_FALSE(probe::Faults().armed());
  EXPECT_EQ(probe::Faults().TotalTriggers(), 0u);
}

// -------------------------------------------------------- determinism ----

// Acceptance criterion: a given seed reproduces the exact same trigger
// sequence across two runs.
TEST(FaultDeterminismTest, SameSeedSameTriggerSequence) {
  auto draw_sequence = [](uint64_t seed) {
    probe::Faults().Reset();
    probe::Scoped faults(probe::Faults(),
                         "seed=" + std::to_string(seed) + ";flaky=p0.3");
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
    probe::Faults().Reset();
    probe::Scoped faults(probe::Faults(), spec);
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
  probe::Faults().Reset();
  probe::Scoped faults(probe::Faults(), "seed=5;left=p0.5;right=p0.5");
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
    probe::Scoped faults(probe::Faults(), "obs.point=n2");
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

// ----------------------------------------------------- probe registry ----

// Pinned decision sequences: a change to seeding or draw order fails here,
// where comparing two runs of the same build would still pass.
constexpr char kSeededFlaky[] =  // seed=123;flaky=p0.3, 200 hits
    "00001000011001001000110000011111101001000101011000"
    "00001000110001000010011111000000000100100100100001"
    "00000000010000001000100000000011010100010000010010"
    "00011100100010001100000111001001000010000000111100";
constexpr char kUnseededFlaky[] =  // flaky=p0.3 under the default seed
    "10010000000000000101010100000010000000000000001100"
    "10000100000010";
// {hits, triggers, yields, sleeps, slept_micros} after 300 hits of
// p=0.5;max_us=32, with seed=42 and under the default seed.
constexpr probe::PointStats kSeededSched{300, 138, 70, 68, 1235};
constexpr probe::PointStats kUnseededSched{300, 142, 67, 75, 1254};

std::string FlakyBits(probe::Registry& registry, int hits) {
  std::string bits;
  for (int i = 0; i < hits; ++i) {
    bits += registry.armed() && registry.Hit("flaky") ? '1' : '0';
  }
  return bits;
}

probe::PointStats SchedStats(probe::Registry& registry, int hits) {
  for (int i = 0; i < hits; ++i) {
    if (registry.armed()) registry.Hit("test.sched.det");
  }
  return registry.Stats("test.sched.det");
}

TEST(ProbeTest, FailPointSequencesArePinned) {
  probe::Faults().Reset();
  {
    probe::Scoped faults(probe::Faults(), "seed=123;flaky=p0.3");
    ASSERT_TRUE(faults.status().ok());
    EXPECT_EQ(FlakyBits(probe::Faults(), 200), kSeededFlaky);
  }
  probe::Scoped faults(probe::Faults(), "flaky=p0.3");
  ASSERT_TRUE(faults.status().ok());
  EXPECT_EQ(FlakyBits(probe::Faults(), 64), kUnseededFlaky);
}

TEST(ProbeTest, SchedPointStatsArePinned) {
  probe::Sched().Reset();
  {
    probe::Scoped sched(probe::Sched(), "seed=42;p=0.5;max_us=32");
    ASSERT_TRUE(sched.status().ok());
    EXPECT_EQ(SchedStats(probe::Sched(), 300), kSeededSched);
  }
  probe::Scoped sched(probe::Sched(), "p=0.5;max_us=32");
  ASSERT_TRUE(sched.status().ok());
  EXPECT_EQ(SchedStats(probe::Sched(), 300), kUnseededSched);
}

TEST(ProbeTest, FailSpecAppliesAllOrNothing) {
  probe::Registry& faults = probe::Faults();
  faults.Reset();
  EXPECT_FALSE(faults.Configure("x=always;y=sometimes").ok());
  EXPECT_FALSE(faults.armed());
  EXPECT_FALSE(DJ_FAULT("x"));

  // A rejected spec leaves an armed registry as it was: the valid entries
  // before the bad one neither reseed nor re-arm anything.
  ASSERT_TRUE(faults.Configure("a=n2").ok());
  EXPECT_FALSE(DJ_FAULT("a"));
  EXPECT_FALSE(faults.Configure("seed=3;a=always;b=n0").ok());
  EXPECT_TRUE(DJ_FAULT("a"));
  EXPECT_EQ(faults.Stats("a").hits, 2u);
  EXPECT_EQ(faults.ArmedPoints(), std::vector<std::string>{"a"});
  faults.Reset();
}

TEST(ProbeTest, SchedSpecAppliesAllOrNothing) {
  probe::Registry& sched = probe::Sched();
  sched.Reset();
  EXPECT_FALSE(sched.Configure("p=0.5;volume=11").ok());
  // The rejected spec's p=0.5 must not surface with a later valid spec.
  ASSERT_TRUE(sched.Configure("seed=1").ok());
  EXPECT_FALSE(sched.armed());
  for (int i = 0; i < 100; ++i) DJ_SCHED_POINT("test.probe.partial");
  EXPECT_EQ(sched.Stats("test.probe.partial").hits, 0u);
  EXPECT_EQ(sched.TotalTriggers(), 0u);
  sched.Reset();
}

/// Sets an environment variable for one scope, restoring it afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name); old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(ProbeTest, FreshInstanceReadsItsVariableAtFirstProbe) {
  // The process-wide instances settle first, so they never see the values
  // set below.
  probe::Faults().armed();
  probe::Sched().armed();
  // Constructed before the variables are set: each instance reads its
  // variable at its first probe, so any binary honors DJ_FAULTS/DJ_SCHED
  // without calling ConfigureFromEnv().
  probe::Registry faults(probe::Registry::Kind::kFail, "DJ_FAULTS", 0);
  probe::Registry sched(probe::Registry::Kind::kSched, "DJ_SCHED", 0);
  ScopedEnv fault_env("DJ_FAULTS", "seed=123;flaky=p0.3");
  ScopedEnv sched_env("DJ_SCHED", "seed=42;p=0.5;max_us=32");
  EXPECT_EQ(FlakyBits(faults, 200), kSeededFlaky);
  EXPECT_EQ(SchedStats(sched, 300), kSeededSched);
}

// The names of the files in `dir`, sorted; none when it does not exist.
std::vector<std::string> FilesIn(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    out.push_back(entry.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A checkpoint entry's file name: the state's key as 16 hex digits.
std::string EntryName(uint64_t key) {
  char name[48];
  std::snprintf(name, sizeof(name), "checkpoint-%016llx.djds",
                static_cast<unsigned long long>(key));
  return name;
}

// Whether `dir` holds exactly `n` files, each a checkpoint entry.
bool HoldsCheckpointEntries(const std::string& dir, size_t n) {
  const std::vector<std::string> files = FilesIn(dir);
  return files.size() == n &&
         std::all_of(files.begin(), files.end(), [](const std::string& f) {
           return StartsWith(f, "checkpoint-") && EndsWith(f, ".djds");
         });
}

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

// Kills `recipe_path` at every OP boundary b (the b-th probe of
// exec.op_abort), resumes it, and requires output byte-identical to an
// uninterrupted run, resuming from a stored prefix for b > 1. Without the
// cache the checkpoint directory holds exactly one entry after every
// boundary. With `use_cache`, the cache (compressed) is on beside the
// checkpoints and stores every boundary, so the checkpoint directory must
// stay empty.
void RunCrashMatrix(const std::string& recipe_path, bool use_cache) {
  auto recipe = core::Recipe::FromFile(recipe_path);
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();

  core::Executor::Options base =
      core::Executor::OptionsFromRecipe(recipe.value());
  base.num_workers = 1;  // keep the matrix fast
  base.cache_dir.clear();
  base.checkpoint_dir.clear();

  // Uninterrupted reference run.
  probe::Faults().Reset();
  core::Executor clean_executor(base);
  auto clean = clean_executor.Run(SmallCorpus(), ops.value());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const std::string want_bytes = data::SerializeDataset(clean.value());

  // The loop discovers the number of plan units implicitly: when the
  // injected run no longer crashes, every boundary has been covered.
  size_t boundaries_hit = 0;
  for (uint64_t b = 1; b <= 64; ++b) {
    std::string dir =
        TempDir("matrix_" + fs::path(recipe_path).stem().string() +
                (use_cache ? "_cache_" : "_") + std::to_string(b));
    core::Executor::Options opts = base;
    opts.checkpoint_dir = dir + "/ckpt";
    if (use_cache) {
      opts.cache_dir = dir + "/cache";
      opts.cache_compression = true;
    }

    core::Executor crashing(opts);
    auto crashed = [&] {
      probe::Scoped faults(probe::Faults(),
                           "exec.op_abort=n" + std::to_string(b));
      EXPECT_TRUE(faults.status().ok());
      return crashing.Run(SmallCorpus(), ops.value());
    }();
    if (crashed.ok()) {
      // Fewer than b boundaries: the whole matrix for this recipe is done.
      EXPECT_EQ(data::SerializeDataset(crashed.value()), want_bytes);
      break;
    }
    ASSERT_EQ(crashed.status().code(), StatusCode::kAborted)
        << crashed.status().ToString();
    ++boundaries_hit;
    EXPECT_TRUE(HoldsCheckpointEntries(opts.checkpoint_dir,
                                       use_cache || b == 1 ? 0 : 1))
        << recipe_path << " boundary " << b;

    core::Executor resuming(opts);
    core::RunReport report;
    auto resumed = resuming.Run(SmallCorpus(), ops.value(), &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    // Boundary 1 aborts before the first unit: nothing was stored, so the
    // resumed run legitimately starts from scratch.
    if (b > 1) {
      EXPECT_TRUE(report.resumed_from_checkpoint)
          << recipe_path << " boundary " << b;
    }
    ASSERT_EQ(data::SerializeDataset(resumed.value()), want_bytes)
        << recipe_path << ": resume after kill at boundary " << b
        << " diverged from the uninterrupted run";
    EXPECT_TRUE(HoldsCheckpointEntries(opts.checkpoint_dir, use_cache ? 0 : 1))
        << recipe_path << " boundary " << b << " after resume";
    fs::remove_all(dir);
  }
  EXPECT_GE(boundaries_hit, 1u) << "no boundary was ever hit — is "
                                   "exec.op_abort still probed per unit?";
}

class CrashMatrixTest : public ::testing::TestWithParam<std::string> {};

// Acceptance criterion: for every shipped recipe, a run killed at any OP
// boundary and resumed from its stored prefix produces byte-identical
// output to an uninterrupted run — with the cache off, and with it on.
TEST_P(CrashMatrixTest, KillAtEveryBoundaryResumeByteIdentical) {
  RunCrashMatrix(GetParam(), /*use_cache=*/false);
}

TEST_P(CrashMatrixTest, CacheOnKillAtEveryBoundaryResumeByteIdentical) {
  RunCrashMatrix(GetParam(), /*use_cache=*/true);
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

// ---------------------------------------------- checkpoint entries ----

// Three units: a mapper, a lone filter and a dedup.
constexpr std::string_view kBackingRecipe = R"(
process:
  - whitespace_normalization_mapper:
  - text_length_filter:
      min: 10
  - document_exact_deduplicator:
)";

std::vector<std::unique_ptr<ops::Op>> BackingOps() {
  auto recipe = core::Recipe::FromString(kBackingRecipe);
  EXPECT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  EXPECT_TRUE(ops.ok()) << ops.status().ToString();
  return ops.ok() ? std::move(ops).value()
                  : std::vector<std::unique_ptr<ops::Op>>{};
}

// The key of the state after the first `units` units of BackingOps.
uint64_t BackingKey(size_t units) {
  auto ops = BackingOps();
  uint64_t key = core::CacheManager::InitialKey("backing-corpus");
  for (size_t i = 0; i < units; ++i) {
    key = core::CacheManager::ExtendKey(key, ops[i]->name(), ops[i]->config());
  }
  return key;
}

// Checkpoints on, in `dir`.
core::Executor::Options CheckpointOptions(const std::string& dir) {
  core::Executor::Options opts;
  opts.checkpoint_dir = dir + "/ckpt";
  opts.dataset_source_id = "backing-corpus";
  return opts;
}

// Cache (compressed) and checkpoints on, in `dir`.
core::Executor::Options CachedCheckpointOptions(const std::string& dir) {
  core::Executor::Options opts = CheckpointOptions(dir);
  opts.cache_dir = dir + "/cache";
  opts.cache_compression = true;
  return opts;
}

std::string CleanBackingResult() {
  auto ops = BackingOps();
  auto clean = core::Executor(core::Executor::Options{})
                   .Run(SmallCorpus(), ops);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  return clean.ok() ? data::SerializeDataset(clean.value()) : "";
}

class CheckpointCrashTest : public ::testing::TestWithParam<std::string> {};

// The fail point crashes the second boundary's Save, and exec.op_abort
// kills the run before the third unit. The first entry still loads. After
// ckpt.after_blob the second entry is durable beside it, and the scan
// resumes from that deeper one; after ckpt.blob_write only its torn temp
// file exists. The resumed run's Saves sweep the rest.
TEST_P(CheckpointCrashTest, CrashLeavesPreviousEntryLoadable) {
  const std::string window = GetParam();
  const bool after_blob = window == "ckpt.after_blob";
  const std::string dir = TempDir("crash_" + window);
  const core::Executor::Options opts = CheckpointOptions(dir);
  auto ops = BackingOps();
  auto crashed = [&] {
    probe::Scoped faults(probe::Faults(), window + "=n2;exec.op_abort=n3");
    EXPECT_TRUE(faults.status().ok());
    return core::Executor(opts).Run(SmallCorpus(), ops);
  }();
  ASSERT_EQ(crashed.status().code(), StatusCode::kAborted)
      << crashed.status().ToString();

  const core::CheckpointManager mgr(opts.checkpoint_dir);
  auto previous = mgr.Load(BackingKey(1));
  ASSERT_TRUE(previous.ok()) << previous.status().ToString();
  EXPECT_EQ(mgr.Load(BackingKey(2)).ok(), after_blob);
  std::vector<std::string> left = {EntryName(BackingKey(1))};
  left.push_back(EntryName(BackingKey(2)) + (after_blob ? "" : ".tmp"));
  std::sort(left.begin(), left.end());
  EXPECT_EQ(FilesIn(opts.checkpoint_dir), left);

  core::RunReport report;
  auto resumed_ops = BackingOps();
  auto resumed = core::Executor(opts).Run(SmallCorpus(), resumed_ops, &report);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.op_reports.size(), after_blob ? 1u : 2u);
  EXPECT_EQ(data::SerializeDataset(resumed.value()), CleanBackingResult());
  EXPECT_EQ(FilesIn(opts.checkpoint_dir),
            std::vector<std::string>{EntryName(BackingKey(3))});
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashWindows, CheckpointCrashTest,
    ::testing::Values("ckpt.blob_write", "ckpt.after_blob"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

enum class Damage { kFlip, kTruncate, kDelete };

class CheckpointDamageTest : public ::testing::TestWithParam<Damage> {};

// A flipped byte or a truncation of the newest checkpoint entry: Load
// refuses it with a Corruption error naming its path, and the executor
// starts fresh, counting the rejection, with the clean bytes. A deleted
// entry leaves no trace to reject (Load says NotFound, naming the path,
// and no rejection is counted), and the run starts fresh the same way.
TEST_P(CheckpointDamageTest, LoadFailsNamingThePathAndTheRunStartsFresh) {
  const bool deleted = GetParam() == Damage::kDelete;
  const std::string dir =
      TempDir("damage_" + std::to_string(static_cast<int>(GetParam())));
  const core::Executor::Options opts = CheckpointOptions(dir);
  auto ops = BackingOps();
  ASSERT_TRUE(core::Executor(opts).Run(SmallCorpus(), ops).ok());

  const std::string entry =
      opts.checkpoint_dir + "/" + EntryName(BackingKey(ops.size()));
  auto bytes = data::ReadFile(entry);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string damaged = bytes.value();
  switch (GetParam()) {
    case Damage::kFlip:
      damaged[damaged.size() / 2] ^= 0x01;
      ASSERT_TRUE(data::WriteFile(entry, damaged).ok());
      break;
    case Damage::kTruncate:
      ASSERT_TRUE(data::WriteFile(entry, damaged.substr(0, damaged.size() / 2))
                      .ok());
      break;
    case Damage::kDelete:
      ASSERT_TRUE(fs::remove(entry));
      break;
  }

  auto loaded =
      core::CheckpointManager(opts.checkpoint_dir).Load(BackingKey(ops.size()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(),
            deleted ? StatusCode::kNotFound : StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find(entry), std::string::npos)
      << loaded.status().ToString();

  obs::MetricsRegistry metrics;
  core::Executor::Options rerun_opts = opts;
  rerun_opts.metrics = &metrics;
  core::RunReport report;
  auto rerun_ops = BackingOps();
  auto rerun =
      core::Executor(rerun_opts).Run(SmallCorpus(), rerun_ops, &report);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.op_reports.size(), rerun_ops.size());
  const obs::Counter* rejected =
      metrics.FindCounter("checkpoint.load_rejected");
  EXPECT_EQ(rejected == nullptr ? 0u : rejected->value(), deleted ? 0u : 1u);
  EXPECT_EQ(data::SerializeDataset(rerun.value()), CleanBackingResult());
}

INSTANTIATE_TEST_SUITE_P(
    AllDamages, CheckpointDamageTest,
    ::testing::Values(Damage::kFlip, Damage::kTruncate, Damage::kDelete),
    [](const ::testing::TestParamInfo<Damage>& info) {
      switch (info.param) {
        case Damage::kFlip:
          return std::string("flipped_byte");
        case Damage::kTruncate:
          return std::string("truncated");
        case Damage::kDelete:
          break;
      }
      return std::string("deleted");
    });

// Files older builds left in a checkpoint directory: a checkpoint.json
// manifest (schema 2, 3 or 4; 0 writes the pre-atomic one, which had no
// schema) beside the pre-atomic layout's bare checkpoint.djds. Here the
// blob holds a plan-compatible state, the one after BackingOps' first unit.
void WriteOlderLayout(const std::string& dir, int64_t schema) {
  json::Object manifest;
  if (schema != 0) manifest.Set("schema", json::Value(schema));
  manifest.Set("next_op_index", json::Value(static_cast<int64_t>(1)));
  manifest.Set("pipeline_key",
               json::Value(static_cast<int64_t>(BackingKey(1))));
  auto ops = BackingOps();
  std::vector<std::unique_ptr<ops::Op>> first;
  first.push_back(std::move(ops[0]));
  auto state = core::Executor(core::Executor::Options{})
                   .Run(SmallCorpus(), first);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_TRUE(
      data::WriteFile(dir + "/checkpoint.djds",
                      data::SerializeDataset(state.value()))
          .ok());
  ASSERT_TRUE(data::WriteFile(dir + "/checkpoint.json",
                              json::Write(json::Value(std::move(manifest))))
                  .ok());
}

class OlderCheckpointTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(OlderCheckpointTest, IsNeverLoadedAndTheNextSaveRemovesIt) {
  const std::string dir = TempDir("older_" + std::to_string(GetParam()));
  obs::MetricsRegistry metrics;
  core::Executor::Options opts = CheckpointOptions(dir);
  opts.metrics = &metrics;
  WriteOlderLayout(opts.checkpoint_dir, GetParam());

  core::RunReport report;
  auto ops = BackingOps();
  auto result = core::Executor(opts).Run(SmallCorpus(), ops, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.op_reports.size(), ops.size());
  EXPECT_EQ(metrics.FindCounter("checkpoint.load_rejected"), nullptr);
  EXPECT_EQ(data::SerializeDataset(result.value()), CleanBackingResult());
  EXPECT_EQ(FilesIn(opts.checkpoint_dir),
            std::vector<std::string>{EntryName(BackingKey(ops.size()))});
}

// Clear removes the older files and the current entry, and no cache entry
// in a directory the cache shares. Neither Save nor Clear touches the
// user's files, even those whose names start with "checkpoint".
TEST_P(OlderCheckpointTest, ClearInADirectorySharedWithTheCacheKeepsTheCache) {
  const std::string dir = TempDir("older_clear_" + std::to_string(GetParam()));
  const std::vector<std::string> user_files = {
      "checkpoint-0000000000000008.djds.bak", "checkpoint-notes.djds",
      "checkpoint.cc", "checkpoint_notes.txt"};
  for (const std::string& name : user_files) {
    ASSERT_TRUE(data::WriteFile(dir + "/" + name, name).ok());
  }
  fs::create_directory(dir + "/checkpoints");
  const std::string djds =
      data::SerializeDataset(data::Dataset::FromTexts({"cached row"}));
  const core::CacheManager cache(dir, /*compression=*/true);
  ASSERT_TRUE(cache.Store(7, djds).ok());
  const core::CheckpointManager mgr(dir);
  ASSERT_TRUE(mgr.Save(9, djds).ok());
  ASSERT_TRUE(mgr.Save(8, djds).ok());
  WriteOlderLayout(dir, GetParam());
  EXPECT_EQ(FilesIn(dir).size(), user_files.size() + 5);

  mgr.Clear();
  std::vector<std::string> kept_files = user_files;
  kept_files.push_back("0000000000000007.djds.djlz");
  kept_files.push_back("checkpoints");
  std::sort(kept_files.begin(), kept_files.end());
  EXPECT_EQ(FilesIn(dir), kept_files);
  auto kept = cache.Load(7);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(kept.value().GetTextAt(0), "cached row");
}

INSTANTIATE_TEST_SUITE_P(OlderLayouts, OlderCheckpointTest,
                         ::testing::Values(0, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int64_t>& info) {
                           return info.param == 0
                                      ? std::string("pre_atomic")
                                      : "schema" + std::to_string(info.param);
                         });

// io.write.fail=n<k> fails the k-th cache store, and exec.op_abort kills
// the run right after that boundary. The boundary falls back to a
// checkpoint entry, the only file in the checkpoint directory, and the
// resumed run starts from it, byte-identical.
TEST(CheckpointBackingTest, FailedCacheStoreFallsBackToACheckpointEntry) {
  const std::string want = CleanBackingResult();
  const size_t units = BackingOps().size();
  for (size_t k = 1; k <= units; ++k) {
    SCOPED_TRACE("cache store " + std::to_string(k) + " fails");
    const std::string dir = TempDir("failed_store_" + std::to_string(k));
    const core::Executor::Options opts = CachedCheckpointOptions(dir);
    auto ops = BackingOps();
    auto crashed = [&] {
      probe::Scoped faults(probe::Faults(),
                           "io.write.fail=n" + std::to_string(k) +
                               ";exec.op_abort=n" + std::to_string(k + 1));
      EXPECT_TRUE(faults.status().ok());
      return core::Executor(opts).Run(SmallCorpus(), ops);
    }();
    // exec.op_abort is probed before each unit, so after the last one it
    // never fires.
    ASSERT_EQ(crashed.ok(), k == units) << crashed.status().ToString();
    EXPECT_EQ(FilesIn(opts.checkpoint_dir),
              std::vector<std::string>{EntryName(BackingKey(k))});

    core::RunReport report;
    auto resumed_ops = BackingOps();
    auto resumed =
        core::Executor(opts).Run(SmallCorpus(), resumed_ops, &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(report.resumed_from_checkpoint);
    EXPECT_EQ(report.cache_hits, 0u);
    EXPECT_EQ(report.op_reports.size(), units - k);
    EXPECT_EQ(data::SerializeDataset(resumed.value()), want);
  }
}

// io.write.short=n<k> tears the k-th cache store, which reports success, so
// no checkpoint entry is written; exec.op_abort kills the run right after.
// The scan evicts the torn entry and resumes from the previous boundary's,
// byte-identical, and the recomputed unit stores its entry whole.
TEST(CheckpointBackingTest, TornCacheEntryIsEvictedAndThePreviousOneResumes) {
  const std::string want = CleanBackingResult();
  const size_t units = BackingOps().size();
  for (size_t k = 1; k <= units; ++k) {
    SCOPED_TRACE("cache store " + std::to_string(k) + " is torn");
    const std::string dir = TempDir("torn_store_" + std::to_string(k));
    const core::Executor::Options opts = CachedCheckpointOptions(dir);
    auto ops = BackingOps();
    auto crashed = [&] {
      probe::Scoped faults(probe::Faults(),
                           "io.write.short=n" + std::to_string(k) +
                               ";exec.op_abort=n" + std::to_string(k + 1));
      EXPECT_TRUE(faults.status().ok());
      return core::Executor(opts).Run(SmallCorpus(), ops);
    }();
    ASSERT_EQ(crashed.ok(), k == units) << crashed.status().ToString();
    EXPECT_TRUE(FilesIn(opts.checkpoint_dir).empty());
    const core::CacheManager cache(opts.cache_dir, /*compression=*/true);
    EXPECT_FALSE(cache.Load(BackingKey(k)).ok());

    core::RunReport report;
    auto resumed_ops = BackingOps();
    auto resumed =
        core::Executor(opts).Run(SmallCorpus(), resumed_ops, &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(report.resumed_from_checkpoint, k > 1);
    EXPECT_EQ(report.cache_hits, k - 1);
    ASSERT_EQ(report.op_reports.size(), units);
    EXPECT_FALSE(report.op_reports[k - 1].cache_hit);
    EXPECT_EQ(data::SerializeDataset(resumed.value()), want);
    EXPECT_TRUE(cache.Load(BackingKey(k)).ok());
  }
}

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
    probe::Faults().Reset();
    core::Executor::Options opts =
        core::Executor::OptionsFromRecipe(recipe.value());
    opts.num_workers = 1;
    opts.cache_dir.clear();
    opts.checkpoint_dir.clear();
    core::Executor executor(opts);
    probe::Scoped faults(probe::Faults(), "seed=9;exec.op_abort=p0.4");
    EXPECT_TRUE(faults.status().ok());
    auto result = executor.Run(SmallCorpus(), ops.value());
    return result.ok() ? std::string("ok") : result.status().ToString();
  };
  const std::string outcome = run_once();
  EXPECT_EQ(outcome, run_once());
  // Pinned: seed 9 kills this recipe before the same unit on every build.
  EXPECT_EQ(outcome,
            "Aborted: fault injected: exec.op_abort before unit "
            "'clean_html_mapper'");
}

}  // namespace
}  // namespace dj
