// Tests for the always-on profiling stack: the thread-introspection
// substrate (span-tag stacks, heartbeats, held-lock mirror), the sampling
// profiler's per-OP CPU attribution, the stall watchdog, histogram
// quantiles, the /proc resource seams, and the bench-diff regression gate.
//
// Timing notes: the watchdog tests use generous thresholds (hundreds of
// milliseconds of deliberate stall against a sub-100ms detection window) so
// they stay deterministic on loaded machines. This suite is intentionally
// NOT part of the check.sh TSan re-run list — the seqlock readers are
// TSan-clean by design, but the tests' sleeps make them poor TSan money.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/probe.h"
#include "common/resource_monitor.h"
#include "common/thread_introspect.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "data/dataset.h"
#include "json/value.h"
#include "obs/bench_diff.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/watchdog.h"
#include "ops/registry.h"

namespace dj {
namespace {

using obs::BenchDiff;
using obs::BenchDiffOptions;
using obs::GuessDirection;
using obs::MetricDirection;
using obs::Profiler;
using obs::Watchdog;

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Spins until `pred` is true or `deadline_seconds` elapse; returns whether
/// the predicate became true.
template <typename Pred>
bool WaitFor(Pred pred, double deadline_seconds) {
  auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() > deadline_seconds) {
      return false;
    }
    SleepSeconds(0.005);
  }
  return true;
}

// ------------------------------------------------- thread introspection --

TEST(ThreadIntrospectTest, TagPushPopLifo) {
  introspect::ScopedIntrospection on;
  introspect::ThreadState* state = introspect::CurrentThreadState();
  std::vector<std::string> stack;
  {
    introspect::SpanTag a("alpha");
    {
      introspect::SpanTag b("beta");
      ASSERT_TRUE(state->ReadStack(&stack));
      ASSERT_EQ(stack.size(), 2u);
      EXPECT_EQ(stack[0], "alpha");
      EXPECT_EQ(stack[1], "beta");
    }
    ASSERT_TRUE(state->ReadStack(&stack));
    ASSERT_EQ(stack.size(), 1u);
    EXPECT_EQ(stack[0], "alpha");
  }
  ASSERT_TRUE(state->ReadStack(&stack));
  EXPECT_TRUE(stack.empty());
}

TEST(ThreadIntrospectTest, OverflowFramesCountedNotStored) {
  introspect::ScopedIntrospection on;
  introspect::ThreadState* state = introspect::CurrentThreadState();
  std::vector<std::unique_ptr<introspect::SpanTag>> tags;
  for (size_t i = 0; i < introspect::ThreadState::kMaxFrames + 4; ++i) {
    tags.push_back(
        std::make_unique<introspect::SpanTag>("frame" + std::to_string(i)));
  }
  std::vector<std::string> stack;
  ASSERT_TRUE(state->ReadStack(&stack));
  ASSERT_EQ(stack.size(),
            static_cast<size_t>(introspect::ThreadState::kMaxFrames) + 1);
  EXPECT_EQ(stack.back(), "(truncated)");
  tags.clear();  // pops must rebalance despite the overflow
  ASSERT_TRUE(state->ReadStack(&stack));
  EXPECT_TRUE(stack.empty());
}

TEST(ThreadIntrospectTest, LongTagNamesTruncateToFrameChars) {
  introspect::ScopedIntrospection on;
  std::string long_name(2 * introspect::ThreadState::kFrameChars, 'x');
  introspect::SpanTag tag(long_name);
  std::vector<std::string> stack;
  ASSERT_TRUE(introspect::CurrentThreadState()->ReadStack(&stack));
  ASSERT_EQ(stack.size(), 1u);
  EXPECT_EQ(stack[0],
            std::string(introspect::ThreadState::kFrameChars - 1, 'x'));
}

TEST(ThreadIntrospectTest, TagsAreNoopsWhenDisabled) {
  // No ScopedIntrospection: probes must leave no trace.
  introspect::ThreadState* state = introspect::CurrentThreadState();
  introspect::SpanTag tag("invisible");
  std::vector<std::string> stack;
  ASSERT_TRUE(state->ReadStack(&stack));
  EXPECT_TRUE(stack.empty());
}

TEST(ThreadIntrospectTest, CrossThreadReadSeesOtherThreadsStack) {
  introspect::ScopedIntrospection on;
  std::atomic<introspect::ThreadState*> victim_state{nullptr};
  std::atomic<bool> release{false};
  std::thread victim([&] {
    introspect::SpanTag tag("victim.work");
    victim_state.store(introspect::CurrentThreadState());
    while (!release.load()) SleepSeconds(0.001);
  });
  ASSERT_TRUE(WaitFor([&] { return victim_state.load() != nullptr; }, 5.0));
  std::vector<std::string> stack;
  ASSERT_TRUE(victim_state.load()->ReadStack(&stack));
  ASSERT_EQ(stack.size(), 1u);
  EXPECT_EQ(stack[0], "victim.work");
  release.store(true);
  victim.join();
  EXPECT_FALSE(victim_state.load()->alive());
}

TEST(ThreadIntrospectTest, HeldLockMirrorTracksDjMutex) {
  introspect::ScopedIntrospection on;
  introspect::ThreadState* state = introspect::CurrentThreadState();
  Mutex mu{"IntrospectTest.mutex"};
  std::vector<const char*> held;
  {
    MutexLock lock(&mu);
    ASSERT_TRUE(state->ReadHeldLocks(&held));
    ASSERT_EQ(held.size(), 1u);
    EXPECT_STREQ(held[0], "IntrospectTest.mutex");
  }
  ASSERT_TRUE(state->ReadHeldLocks(&held));
  EXPECT_TRUE(held.empty());
}

TEST(ThreadIntrospectTest, ThreadPoolWorkersTagAndRebalance) {
  introspect::ScopedIntrospection on;
  ThreadPool pool(4);
  std::atomic<int> tagged{0};
  pool.ParallelFor(64, [&](size_t begin, size_t end) {
    std::vector<std::string> stack;
    if (introspect::CurrentThreadState()->ReadStack(&stack) &&
        !stack.empty() && stack[0] == "threadpool.task") {
      tagged.fetch_add(static_cast<int>(end - begin));
    }
  });
  EXPECT_EQ(tagged.load(), 64);
  // After the join no chunk's tag may linger on a worker's stack.
  std::atomic<int> clean{0};
  pool.ParallelFor(4, [&](size_t, size_t) {
    if (introspect::CurrentThreadState()->tag_depth() == 1) {
      clean.fetch_add(1);  // exactly the chunk's own tag, nothing leaked
    }
  });
  EXPECT_EQ(clean.load(), 4);
}

// ------------------------------------------------------------- profiler --

TEST(ProfilerTest, AttributesBusyThreadsToInnermostUnitFrame) {
  std::atomic<bool> release{false};
  Profiler::Options options;
  options.interval_seconds = 0.005;
  Profiler profiler(options);
  profiler.Start();  // profiler enables introspection for its lifetime
  std::thread worker_a([&] {
    introspect::BusyScope busy;
    introspect::SpanTag tag("unit:op_a");
    while (!release.load()) SleepSeconds(0.001);
  });
  std::thread worker_b([&] {
    introspect::BusyScope busy;
    introspect::SpanTag outer("unit:op_b");
    introspect::SpanTag inner("batch:op_b");  // innermost unit: frame wins
    while (!release.load()) SleepSeconds(0.001);
  });
  ASSERT_TRUE(
      WaitFor([&] { return profiler.Snapshot().samples >= 20; }, 10.0));
  release.store(true);
  worker_a.join();
  worker_b.join();
  profiler.Stop();

  Profiler::Report report = profiler.Snapshot();
  EXPECT_GE(report.ticks, report.samples / 2);
  auto shares = report.OpCpuShares();
  double total = 0;
  for (const auto& [op, share] : shares) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);  // shares always sum to 1
  ASSERT_TRUE(shares.count("op_a"));
  ASSERT_TRUE(shares.count("op_b"));
  // Both spin loops run the whole window; each should get a real share.
  EXPECT_GT(shares["op_a"], 0.15);
  EXPECT_GT(shares["op_b"], 0.15);
}

TEST(ProfilerTest, CollapsedTextIsFlamegraphFormat) {
  Profiler::Report report;
  report.samples = 3;
  report.collapsed["executor.run;unit:clean_links"] = 2;
  report.collapsed["threadpool.task"] = 1;
  EXPECT_EQ(report.CollapsedText(),
            "executor.run;unit:clean_links 2\nthreadpool.task 1\n");
}

TEST(ProfilerTest, ReportJsonCarriesOpCpu) {
  Profiler::Report report;
  report.ticks = 10;
  report.samples = 4;
  report.interval_seconds = 0.002;
  report.collapsed["executor.run;unit:op_x"] = 3;
  report.collapsed["io.parse"] = 1;
  json::Value v = report.ToJson();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.as_object().Find("ticks")->as_double(), 10);
  const json::Value* op_cpu = v.as_object().Find("op_cpu");
  ASSERT_NE(op_cpu, nullptr);
  EXPECT_DOUBLE_EQ(op_cpu->as_object().Find("op_x")->as_double(), 0.75);
  EXPECT_DOUBLE_EQ(op_cpu->as_object().Find("(other)")->as_double(), 0.25);
}

// ------------------------------------------------------------- watchdog --

TEST(WatchdogTest, ParseSpecVariants) {
  Watchdog::Options options;
  bool enabled = true;
  ASSERT_TRUE(Watchdog::ParseSpec("off", &options, &enabled).ok());
  EXPECT_FALSE(enabled);
  ASSERT_TRUE(Watchdog::ParseSpec("12.5", &options, &enabled).ok());
  EXPECT_TRUE(enabled);
  EXPECT_DOUBLE_EQ(options.stall_seconds, 12.5);
  ASSERT_TRUE(Watchdog::ParseSpec("stall=3", &options, &enabled).ok());
  EXPECT_DOUBLE_EQ(options.stall_seconds, 3.0);
  // The poll interval derives from the threshold; it is no key.
  EXPECT_FALSE(
      Watchdog::ParseSpec("stall=3;poll=0.5", &options, &enabled).ok());
  EXPECT_FALSE(Watchdog::ParseSpec("soon", &options, &enabled).ok());
  EXPECT_FALSE(Watchdog::ParseSpec("stall=-1", &options, &enabled).ok());
  EXPECT_FALSE(Watchdog::ParseSpec("nap=3", &options, &enabled).ok());
}

TEST(WatchdogTest, QuietWhileThreadsBeatOrIdle) {
  Watchdog::Options options;
  options.stall_seconds = 0.05;
  Watchdog watchdog(options);
  watchdog.Start();
  std::atomic<bool> release{false};
  // A busy thread that beats faster than the threshold is healthy; an idle
  // thread that never beats must not count as stalled either.
  std::thread beating([&] {
    introspect::BusyScope busy;
    while (!release.load()) {
      introspect::Heartbeat();
      SleepSeconds(0.005);
    }
  });
  SleepSeconds(0.3);
  release.store(true);
  beating.join();
  watchdog.Stop();
  EXPECT_EQ(watchdog.stall_count(), 0u);
  EXPECT_TRUE(watchdog.LastDump().empty());
}

TEST(WatchdogTest, DumpsStalledThreadWithinTwiceThreshold) {
  Watchdog::Options options;
  options.stall_seconds = 0.15;
  Watchdog watchdog(options);
  watchdog.Start();
  Mutex mu{"StallVictim.mutex"};
  std::atomic<bool> entered{false};
  std::thread victim([&] {
    introspect::BusyScope busy;
    introspect::SpanTag tag("unit:hung_op");
    MutexLock lock(&mu);
    entered.store(true);
    SleepSeconds(0.8);  // busy, holding a lock, never beating
  });
  ASSERT_TRUE(WaitFor([&] { return entered.load(); }, 5.0));
  // Acceptance bound: detection within 2x the stall threshold.
  EXPECT_TRUE(WaitFor([&] { return watchdog.stall_count() > 0; },
                      2 * options.stall_seconds + 0.05));
  victim.join();
  watchdog.Stop();
  std::string dump = watchdog.LastDump();
  EXPECT_NE(dump.find("[STALLED]"), std::string::npos);
  EXPECT_NE(dump.find("unit:hung_op"), std::string::npos);
  EXPECT_NE(dump.find("StallVictim.mutex"), std::string::npos);
}

TEST(WatchdogTest, DumpSaysNeverBeatForAThreadThatNeverBeat) {
  Watchdog::Options options;
  options.stall_seconds = 0.05;
  Watchdog watchdog(options);
  watchdog.Start();
  std::atomic<bool> registered{false};
  std::atomic<bool> release{false};
  // Registered and idle, and never beats.
  std::thread idle([&] {
    introspect::CurrentThreadState()->SetRole("test.never_beats");
    registered.store(true);
    while (!release.load()) SleepSeconds(0.005);
  });
  ASSERT_TRUE(WaitFor([&] { return registered.load(); }, 5.0));
  std::thread victim([&] {
    introspect::BusyScope busy;
    SleepSeconds(0.3);
  });
  victim.join();
  release.store(true);
  idle.join();
  watchdog.Stop();
  const std::string dump = watchdog.LastDump();
  EXPECT_NE(dump.find("role=test.never_beats idle never beat\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("busy beat 0."), std::string::npos) << dump;
}

TEST(WatchdogTest, OneReportPerStallEpisode) {
  Watchdog::Options options;
  options.stall_seconds = 0.05;
  Watchdog watchdog(options);
  watchdog.Start();
  std::thread victim([&] {
    introspect::BusyScope busy;
    SleepSeconds(0.4);  // one long stall, polled many times
  });
  victim.join();
  watchdog.Stop();
  // ~30 polls saw the stall but it is one episode -> one report.
  EXPECT_EQ(watchdog.stall_count(), 1u);
}

TEST(WatchdogTest, ExecutorStallFaultTripsWatchdog) {
  probe::Scoped faults(probe::Faults(), "exec.stall=n1");
  Watchdog::Options options;
  options.stall_seconds = 0.1;
  Watchdog watchdog(options);
  watchdog.Start();

  auto op = ops::OpRegistry::Global().Create("document_exact_deduplicator",
                                             json::Value(json::Object{}));
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  std::vector<std::unique_ptr<ops::Op>> pipeline;
  pipeline.push_back(std::move(op).value());

  core::Executor executor(core::Executor::Options{});
  auto result = executor.Run(data::Dataset::FromTexts({"a", "b", "a"}),
                             pipeline, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  watchdog.Stop();
  EXPECT_GE(watchdog.stall_count(), 1u);
  EXPECT_NE(watchdog.LastDump().find("executor"), std::string::npos);
}

// ------------------------------------------------------------ quantiles --

TEST(HistogramQuantileTest, InterpolatesWithinBuckets) {
  obs::Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) h.Observe(0.5);   // bucket [0, 1]
  for (int i = 0; i < 10; ++i) h.Observe(1.5);   // bucket (1, 2]
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.0);   // 10th of 20 = end of bucket 0
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);   // 20th = end of bucket 1
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 0.5);  // 5th of 10 in [0,1] -> midpoint
}

TEST(HistogramQuantileTest, EdgeCases) {
  obs::Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), -1);  // no observations
  obs::Histogram h({1.0, 2.0});
  h.Observe(10.0);                            // overflow bucket
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);     // clamped to the last bound
  EXPECT_DOUBLE_EQ(h.Quantile(-0.1), -1);
  EXPECT_DOUBLE_EQ(h.Quantile(1.1), -1);
}

TEST(HistogramQuantileTest, SnapshotJsonCarriesQuantiles) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("h", {1.0, 2.0})->Observe(0.5);
  json::Value v = registry.SnapshotJson();
  const json::Value* h =
      v.as_object().Find("histograms")->as_object().Find("h");
  ASSERT_NE(h, nullptr);
  for (const char* key : {"p50", "p95", "p99"}) {
    ASSERT_TRUE(h->as_object().Contains(key)) << key;
  }
}

// ------------------------------------------------------ resource seams --

TEST(ResourceMonitorTest, ReadCpuSecondsFromStatFormat) {
  std::string path = ::testing::TempDir() + "/dj_stat_fixture";
  // comm contains spaces and parens — fields must count from the last ')'.
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "1234 (weird (comm) name) S 1 1 1 0 -1 4194304 100 0 0 0 "
      "200 100 0 0 20 0 1 0 12345 1000000 50 18446744073709551615\n",
      f);
  std::fclose(f);
  double cpu = ResourceMonitor::ReadCpuSecondsFrom(path.c_str());
  long ticks = sysconf(_SC_CLK_TCK);
  EXPECT_NEAR(cpu, 300.0 / static_cast<double>(ticks), 1e-9);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(ResourceMonitor::ReadCpuSecondsFrom("/nonexistent"), 0);
}

TEST(ResourceMonitorTest, ReadPeakRssFromStatusFormat) {
  std::string path = ::testing::TempDir() + "/dj_status_fixture";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("Name:\tdj\nVmPeak:\t  999 kB\nVmHWM:\t  256 kB\nVmRSS:\t 128 kB\n",
             f);
  std::fclose(f);
  EXPECT_EQ(ResourceMonitor::ReadPeakRssBytesFrom(path.c_str()),
            256u * 1024u);
  std::remove(path.c_str());
  EXPECT_EQ(ResourceMonitor::ReadPeakRssBytesFrom("/nonexistent"), 0u);
}

// Spins until this process has used `seconds` more CPU time (or 5 s of
// wall time have passed, so a descheduled host cannot hang the test).
void BurnCpu(double seconds) {
  const std::clock_t start = std::clock();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  volatile uint64_t sink = 1;
  while (static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC <
             seconds &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 100000; ++i) sink = sink * 6364136223846793005ULL + 1;
  }
}

TEST(ResourceMonitorTest, LiveCountersArePlausible) {
  EXPECT_GT(ResourceMonitor::CurrentPeakRssBytes(), 0u);
  EXPECT_GE(ResourceMonitor::CurrentPeakRssBytes(),
            ResourceMonitor::CurrentRssBytes() / 2);
  // /proc/self/stat counts CPU in clock ticks (10 ms at the usual 100 Hz),
  // and a test binary can finish in less than one. Burn several ticks so
  // the counter must read nonzero, and check that it moved forward.
  double before = ResourceMonitor::ReadCpuSecondsFrom("/proc/self/stat");
  BurnCpu(0.05);
  double after = ResourceMonitor::ReadCpuSecondsFrom("/proc/self/stat");
  EXPECT_GT(after, 0.0);
  EXPECT_GT(after, before);
}

// ----------------------------------------------------------- bench diff --

json::Value BenchDoc(const char* bench,
                     std::vector<std::pair<std::string, double>> metrics) {
  json::Object m;
  for (auto& [k, v] : metrics) m.Set(k, json::Value(v));
  json::Object doc;
  doc.Set("bench", json::Value(std::string(bench)));
  doc.Set("schema_version", json::Value(static_cast<int64_t>(1)));
  doc.Set("metrics", json::Value(std::move(m)));
  return json::Value(std::move(doc));
}

TEST(BenchDiffTest, DirectionHeuristic) {
  EXPECT_EQ(GuessDirection("parse_jsonl_serial_ms"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(GuessDirection("peak_rss_bytes"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(GuessDirection("parse_speedup_4t"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(GuessDirection("rows_per_sec"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(GuessDirection("checks_ok"), MetricDirection::kHigherIsBetter);
  // Environment metrics describe the host/run, not performance: a bench
  // from a box with fewer threads or a different kernel level must not
  // read as a regression.
  EXPECT_EQ(GuessDirection("determinism_ok"),
            MetricDirection::kInformational);
  EXPECT_EQ(GuessDirection("hardware_threads"),
            MetricDirection::kInformational);
  EXPECT_EQ(GuessDirection("simd_level"), MetricDirection::kInformational);
}

TEST(BenchDiffTest, SelfCompareHasNoRegression) {
  json::Value doc = BenchDoc("b", {{"x_ms", 10.0}, {"speedup", 2.0}});
  auto report = BenchDiff(doc, doc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().has_regression());
}

TEST(BenchDiffTest, DegradationBeyondToleranceRegresses) {
  json::Value base = BenchDoc("b", {{"x_ms", 100.0}, {"speedup", 2.0}});
  // 25% slower timing and 30% lower speedup, default tolerance 10%.
  json::Value cur = BenchDoc("b", {{"x_ms", 125.0}, {"speedup", 1.4}});
  auto report = BenchDiff(base, cur);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().has_regression());
  ASSERT_EQ(report.value().deltas.size(), 2u);
  for (const auto& d : report.value().deltas) EXPECT_TRUE(d.regression);
  EXPECT_NE(report.value().ToString().find("REGRESSED"), std::string::npos);
}

TEST(BenchDiffTest, ImprovementAndWithinToleranceBothPass) {
  json::Value base = BenchDoc("b", {{"x_ms", 100.0}, {"speedup", 2.0}});
  // 40% faster + 5% lower speedup: improvement never gates, and 5% < 10%.
  json::Value cur = BenchDoc("b", {{"x_ms", 60.0}, {"speedup", 1.9}});
  auto report = BenchDiff(base, cur);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().has_regression());
  // The change column is signed by value, worded by direction: the timing
  // fell 40% (better), the speedup fell 5% (worse, within tolerance).
  ASSERT_EQ(report.value().deltas.size(), 2u);
  const bool timing_first = report.value().deltas[0].key == "x_ms";
  const obs::MetricDelta& timing = report.value().deltas[timing_first ? 0 : 1];
  const obs::MetricDelta& speedup = report.value().deltas[timing_first ? 1 : 0];
  EXPECT_LT(timing.degradation, 0);  // improved
  EXPECT_NEAR(timing.change, -0.4, 1e-12);
  EXPECT_NEAR(speedup.change, -0.05, 1e-12);
  EXPECT_EQ(speedup.degradation, -speedup.change);
  std::string table = report.value().ToString();
  EXPECT_NE(table.find("-40.0% better"), std::string::npos) << table;
  EXPECT_NE(table.find("-5.0% worse"), std::string::npos) << table;
}

TEST(BenchDiffTest, ImprovedSpeedupPrintsPositiveChange) {
  // A speedup going 0.97 -> 3.20 is a +229.9% change and better; it used
  // to print as -229.9% (its degradation).
  json::Value base = BenchDoc("b", {{"compress_speedup_4t", 0.97}});
  json::Value cur = BenchDoc("b", {{"compress_speedup_4t", 3.20}});
  auto report = BenchDiff(base, cur);
  ASSERT_TRUE(report.ok());
  std::string table = report.value().ToString();
  EXPECT_NE(table.find("+229.9% better"), std::string::npos) << table;
  std::string same = BenchDiff(base, base).value().ToString();
  EXPECT_NE(same.find("+0.0% same"), std::string::npos) << same;
}

TEST(BenchDiffTest, PerMetricToleranceAndOverridesApply) {
  json::Value base = BenchDoc("b", {{"x_ms", 100.0}, {"mystery", 10.0}});
  json::Value cur = BenchDoc("b", {{"x_ms", 130.0}, {"mystery", 5.0}});
  BenchDiffOptions options;
  options.per_metric_tolerance["x_ms"] = 0.5;  // 30% worse but 50% allowed
  auto report = BenchDiff(base, cur, options);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().has_regression());  // mystery is informational
  options.direction_overrides["mystery"] = MetricDirection::kHigherIsBetter;
  report = BenchDiff(base, cur, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().has_regression());  // mystery halved
}

TEST(BenchDiffTest, MissingMetricIsRegressionNewMetricIsNot) {
  json::Value base = BenchDoc("b", {{"x_ms", 100.0}, {"y_ms", 5.0}});
  json::Value cur = BenchDoc("b", {{"x_ms", 100.0}, {"z_ms", 3.0}});
  auto report = BenchDiff(base, cur);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().has_regression());
  ASSERT_EQ(report.value().missing_in_current.size(), 1u);
  EXPECT_EQ(report.value().missing_in_current[0], "y_ms");
  ASSERT_EQ(report.value().missing_in_baseline.size(), 1u);
  EXPECT_EQ(report.value().missing_in_baseline[0], "z_ms");
}

TEST(BenchDiffTest, ShapeAndNameMismatchesAreErrors) {
  json::Value good = BenchDoc("b", {{"x_ms", 1.0}});
  json::Value other = BenchDoc("c", {{"x_ms", 1.0}});
  EXPECT_FALSE(BenchDiff(good, other).ok());
  EXPECT_FALSE(BenchDiff(json::Value(std::string("nope")), good).ok());
  json::Object no_metrics;
  no_metrics.Set("bench", json::Value(std::string("b")));
  EXPECT_FALSE(BenchDiff(good, json::Value(std::move(no_metrics))).ok());
}

TEST(BenchDiffTest, DifferentHostShapesAreNotComparable) {
  json::Value base = BenchDoc(
      "b", {{"x_ms", 10.0}, {"hardware_threads", 1.0}, {"simd_level", 2.0}});
  json::Value same_host = BenchDoc(
      "b", {{"x_ms", 10.0}, {"hardware_threads", 1.0}, {"simd_level", 2.0}});
  auto report = BenchDiff(base, same_host);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().HostShapeMismatches().empty());

  json::Value more_threads = BenchDoc(
      "b", {{"x_ms", 10.0}, {"hardware_threads", 4.0}, {"simd_level", 2.0}});
  report = BenchDiff(base, more_threads);
  ASSERT_TRUE(report.ok());
  auto mismatches = report.value().HostShapeMismatches();
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].key, "hardware_threads");
  EXPECT_EQ(mismatches[0].baseline, 1.0);
  EXPECT_EQ(mismatches[0].current, 4.0);

  // bench_e2e's env.* keys count too; a fact only one report carries does
  // not make the pair incomparable.
  report = BenchDiff(BenchDoc("b", {{"env.simd_level", 2.0}}),
                     BenchDoc("b", {{"env.simd_level", 0.0},
                                    {"hardware_threads", 8.0}}));
  ASSERT_TRUE(report.ok());
  mismatches = report.value().HostShapeMismatches();
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].key, "env.simd_level");
}

TEST(BenchDiffTest, LedgerBaselineIsPerMetricMedian) {
  std::vector<json::Value> runs;
  runs.push_back(BenchDoc("b", {{"x_ms", 10.0}}));
  runs.push_back(BenchDoc("b", {{"x_ms", 30.0}}));
  runs.push_back(BenchDoc("b", {{"x_ms", 20.0}}));
  runs.push_back(BenchDoc("other", {{"x_ms", 999.0}}));  // skipped
  auto baseline = obs::LedgerBaseline(runs, "b");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const json::Value* metrics =
      baseline.value().as_object().Find("metrics");
  EXPECT_DOUBLE_EQ(metrics->as_object().Find("x_ms")->as_double(), 20.0);
  EXPECT_FALSE(obs::LedgerBaseline(runs, "absent").ok());
}

}  // namespace
}  // namespace dj
