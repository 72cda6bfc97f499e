#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/probe.h"
#include "common/string_util.h"
#include "common/swar.h"
#include "core/checkpoint.h"
#include "core/executor.h"
#include "data/io.h"
#include "json/parser.h"
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

// ------------------------------------------- checkpoint crash windows ----

// The two kinds of file a checkpoint manifest can name.
enum class Backing { kOwnBlob, kCacheEntry };

// Checkpoints `texts` the way the executor does: serialize, then, with a
// cache, store the entry and Save naming it; without one, Save writes the
// checkpoint's own blob.
Status SaveTexts(const core::CheckpointManager& mgr,
                 const core::CacheManager* cache, size_t next_op_index,
                 uint64_t key, std::vector<std::string> texts) {
  data::Dataset ds = data::Dataset::FromTexts(std::move(texts));
  const std::string djds = data::SerializeDataset(ds);
  if (cache == nullptr) return mgr.Save(next_op_index, key, ds.NumRows(), djds);
  DJ_ASSIGN_OR_RETURN(core::StoredFile entry, cache->Store(key, djds));
  return mgr.Save(next_op_index, key, ds.NumRows(), djds, &entry);
}

// Names of the files directly in `dir` whose name ends with `suffix`.
std::vector<std::string> FilesEndingWith(const std::string& dir,
                                         std::string_view suffix) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (EndsWith(name, suffix)) out.push_back(std::move(name));
  }
  return out;
}

class CheckpointCrashTest
    : public ::testing::TestWithParam<std::tuple<const char*, Backing>> {};

TEST_P(CheckpointCrashTest, CrashLeavesPreviousCheckpointLoadable) {
  const char* window = std::get<0>(GetParam());
  const bool cached = std::get<1>(GetParam()) == Backing::kCacheEntry;
  std::string dir = TempDir(std::string("crash_") + window +
                            (cached ? "_cache" : "_own"));
  core::CheckpointManager mgr(dir + "/ckpt");
  core::CacheManager cache_mgr(dir + "/cache", /*compression=*/true);
  const core::CacheManager* cache = cached ? &cache_mgr : nullptr;
  ASSERT_TRUE(SaveTexts(mgr, cache, 1, 111, {"one"}).ok());

  {
    probe::Scoped faults(probe::Faults(), std::string(window) + "=n1");
    ASSERT_TRUE(faults.status().ok());
    Status crashed = SaveTexts(mgr, cache, 2, 222, {"two", "extra"});
    EXPECT_FALSE(crashed.ok());
    EXPECT_NE(crashed.ToString().find(window), std::string::npos)
        << crashed.ToString();
  }

  // The interrupted Save must not have damaged the previous checkpoint.
  auto loaded = mgr.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().next_op_index, 1u);
  EXPECT_EQ(loaded.value().pipeline_key, 111u);
  EXPECT_EQ(loaded.value().dataset.NumRows(), 1u);

  // And a retried Save (fault cleared) wins cleanly.
  ASSERT_TRUE(SaveTexts(mgr, cache, 2, 222, {"two", "extra"}).ok());
  auto retried = mgr.LoadLatest();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value().next_op_index, 2u);
  EXPECT_EQ(retried.value().dataset.NumRows(), 2u);
  // Backed by a cache entry, the checkpoint writes no blob of its own.
  EXPECT_EQ(FilesEndingWith(dir + "/ckpt", ".djds").size(), cached ? 0u : 1u);
  EXPECT_TRUE(FilesEndingWith(dir + "/ckpt", ".tmp").empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashWindows, CheckpointCrashTest,
    ::testing::Combine(::testing::Values("ckpt.blob_write", "ckpt.after_blob",
                                         "ckpt.manifest_write"),
                       ::testing::Values(Backing::kOwnBlob,
                                         Backing::kCacheEntry)),
    [](const ::testing::TestParamInfo<CheckpointCrashTest::ParamType>& i) {
      std::string name = std::get<0>(i.param);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + (std::get<1>(i.param) == Backing::kCacheEntry
                         ? "_cache_entry"
                         : "_own_blob");
    });

TEST(CheckpointCorruptionTest, TruncatedBlobIsRejectedWithClearError) {
  std::string dir = TempDir("torn_blob");
  core::CheckpointManager mgr(dir);
  ASSERT_TRUE(
      SaveTexts(mgr, nullptr, 3, 42, {"alpha", "beta", "gamma"}).ok());

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
  ASSERT_TRUE(SaveTexts(mgr, nullptr, 1, 9, {"payload row"}).ok());

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
  ASSERT_TRUE(SaveTexts(mgr, nullptr, 1, 9, {"row"}).ok());
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
// schema 3 always wrote its own blob and recorded its swar::Hash64 under
// blob_* fields; schema 2 is the same crash-atomic layout with an FNV-1a
// blob checksum; the pre-atomic layout is a bare checkpoint.djds beside a
// manifest with no schema, blob name or checksum.
enum class OlderLayout { kSchema3, kSchema2, kPreAtomic };

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
  if (layout != OlderLayout::kPreAtomic) {
    const bool schema3 = layout == OlderLayout::kSchema3;
    char name[48];
    std::snprintf(name, sizeof(name), "checkpoint-%016llx.djds",
                  static_cast<unsigned long long>(key));
    blob_file = name;
    manifest.Set("schema", json::Value(static_cast<int64_t>(schema3 ? 3 : 2)));
    manifest.Set("blob_file", json::Value(blob_file));
    manifest.Set("blob_bytes", json::Value(static_cast<int64_t>(blob.size())));
    manifest.Set("blob_checksum",
                 json::Value(static_cast<int64_t>(
                     schema3 ? swar::Hash64(blob) : Fnv1a64(blob))));
  }
  ASSERT_TRUE(data::WriteFile(dir + "/" + blob_file, blob).ok());
  ASSERT_TRUE(data::WriteFile(dir + "/checkpoint.json",
                              json::Write(json::Value(std::move(manifest))))
                  .ok());
}

class OlderCheckpointTest : public ::testing::TestWithParam<OlderLayout> {
 protected:
  const char* SchemaText() const {
    switch (GetParam()) {
      case OlderLayout::kSchema3:
        return "schema 3";
      case OlderLayout::kSchema2:
        return "schema 2";
      case OlderLayout::kPreAtomic:
        break;
    }
    return "schema (none)";
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

  // The run's own schema-4 checkpoint replaced the older one, whose blob
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
    OlderLayouts, OlderCheckpointTest,
    ::testing::Values(OlderLayout::kSchema3, OlderLayout::kSchema2,
                      OlderLayout::kPreAtomic),
    [](const ::testing::TestParamInfo<OlderLayout>& info) {
      switch (info.param) {
        case OlderLayout::kSchema3:
          return std::string("schema3");
        case OlderLayout::kSchema2:
          return std::string("schema2");
        case OlderLayout::kPreAtomic:
          break;
      }
      return std::string("pre_atomic");
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

// Kills `recipe_path` at every OP boundary b (the b-th probe of
// exec.op_abort), resumes it, and requires output byte-identical to an
// uninterrupted run, resuming from the checkpoint for b > 1. With
// `use_cache`, the cache (compressed) is on beside the checkpoints, so each
// checkpoint names a cache entry, and the checkpoint directory must never
// hold a blob of its own.
void RunCrashMatrix(const std::string& recipe_path, bool use_cache) {
  auto recipe = core::Recipe::FromFile(recipe_path);
  ASSERT_TRUE(recipe.ok()) << recipe.status().ToString();
  auto ops = core::BuildOps(recipe.value(), ops::OpRegistry::Global());
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();

  core::Executor::Options base =
      core::Executor::OptionsFromRecipe(recipe.value());
  base.num_workers = 1;  // keep the matrix fast
  base.use_cache = false;
  base.use_checkpoint = false;

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
    opts.use_checkpoint = true;
    opts.checkpoint_dir = dir + "/ckpt";
    if (use_cache) {
      opts.use_cache = true;
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
    if (use_cache) {
      EXPECT_TRUE(FilesEndingWith(opts.checkpoint_dir, ".djds").empty())
          << recipe_path << " boundary " << b;
    }

    core::Executor resuming(opts);
    core::RunReport report;
    auto resumed = resuming.Run(SmallCorpus(), ops.value(), &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    // Boundary 1 aborts before the first unit: nothing was checkpointed,
    // so the resumed run legitimately starts from scratch.
    if (b > 1) {
      EXPECT_TRUE(report.resumed_from_checkpoint)
          << recipe_path << " boundary " << b;
    }
    ASSERT_EQ(data::SerializeDataset(resumed.value()), want_bytes)
        << recipe_path << ": resume after kill at boundary " << b
        << " diverged from the uninterrupted run";
    if (use_cache) {
      EXPECT_TRUE(FilesEndingWith(opts.checkpoint_dir, ".djds").empty())
          << recipe_path << " boundary " << b << " after resume";
    }
    fs::remove_all(dir);
  }
  EXPECT_GE(boundaries_hit, 1u) << "no boundary was ever hit — is "
                                   "exec.op_abort still probed per unit?";
}

class CrashMatrixTest : public ::testing::TestWithParam<std::string> {};

// Acceptance criterion: for every shipped recipe, a run killed at any OP
// boundary and resumed from its checkpoint produces byte-identical output
// to an uninterrupted run — with the cache off, and with it on.
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

// ------------------------------------------ the file a manifest names ----

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

// Cache (compressed) and checkpoints on, in `dir`.
core::Executor::Options CachedCheckpointOptions(const std::string& dir) {
  core::Executor::Options opts;
  opts.use_cache = true;
  opts.cache_dir = dir + "/cache";
  opts.cache_compression = true;
  opts.use_checkpoint = true;
  opts.checkpoint_dir = dir + "/ckpt";
  opts.dataset_source_id = "backing-corpus";
  return opts;
}

// The `file` field of the checkpoint manifest in `ckpt_dir`.
std::string NamedFile(const std::string& ckpt_dir) {
  auto text = data::ReadFile(ckpt_dir + "/checkpoint.json");
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  auto manifest = json::ParseStrict(text.ok() ? text.value() : "");
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return manifest.ok() ? manifest.value().GetString("file", "") : "";
}

std::string CleanBackingResult() {
  auto ops = BackingOps();
  auto clean = core::Executor(core::Executor::Options{})
                   .Run(SmallCorpus(), ops);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  return clean.ok() ? data::SerializeDataset(clean.value()) : "";
}

enum class Damage { kFlip, kTruncate, kDelete };

class BackingFileDamageTest : public ::testing::TestWithParam<Damage> {};

// A flipped byte, a truncation or a deletion of the cache entry a manifest
// names: LoadLatest refuses it with a Corruption error naming the entry,
// and the executor starts fresh (counting the rejection) and still
// produces the clean bytes.
TEST_P(BackingFileDamageTest, IsRejectedNamingThePathAndTheRunStartsFresh) {
  const std::string dir =
      TempDir("damage_" + std::to_string(static_cast<int>(GetParam())));
  const core::Executor::Options opts = CachedCheckpointOptions(dir);
  auto ops = BackingOps();
  ASSERT_TRUE(core::Executor(opts).Run(SmallCorpus(), ops).ok());

  const std::string entry = NamedFile(opts.checkpoint_dir);
  ASSERT_TRUE(fs::path(entry).is_absolute()) << entry;
  ASSERT_TRUE(EndsWith(entry, ".djds.djlz")) << entry;
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

  auto loaded = core::CheckpointManager(opts.checkpoint_dir).LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
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
  ASSERT_NE(metrics.FindCounter("checkpoint.load_rejected"), nullptr);
  EXPECT_EQ(metrics.FindCounter("checkpoint.load_rejected")->value(), 1u);
  EXPECT_EQ(data::SerializeDataset(rerun.value()), CleanBackingResult());
}

INSTANTIATE_TEST_SUITE_P(
    AllDamages, BackingFileDamageTest,
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

// io.write.fail=n<k> fails the k-th cache store, and exec.op_abort kills
// the run right after that boundary. The checkpoint there falls back to
// its own blob, which loads, and the resumed run is byte-identical.
TEST(CheckpointBackingTest, FailedCacheStoreStillLeavesALoadableCheckpoint) {
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

    auto loaded = core::CheckpointManager(opts.checkpoint_dir).LoadLatest();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().next_op_index, k);
    const std::string named = NamedFile(opts.checkpoint_dir);
    EXPECT_TRUE(StartsWith(named, "checkpoint-") && EndsWith(named, ".djds"))
        << named;

    core::RunReport report;
    auto resumed_ops = BackingOps();
    auto resumed =
        core::Executor(opts).Run(SmallCorpus(), resumed_ops, &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(report.resumed_from_checkpoint);
    EXPECT_EQ(data::SerializeDataset(resumed.value()), want);
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
    opts.use_cache = false;
    opts.use_checkpoint = false;
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
