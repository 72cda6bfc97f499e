// Tests for the observability layer (src/obs): metrics registry, span
// recorder / Chrome trace output, and the run journal.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json/parser.h"
#include "json/value.h"
#include "obs/metrics.h"
#include "obs/run_journal.h"
#include "obs/span.h"

namespace dj::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(CounterTest, ConcurrentIncrements) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* c = registry.GetCounter("shared.counter");
      for (int i = 0; i < kIncrements; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared.counter")->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(CounterTest, SameNameSamePointer) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
}

TEST(GaugeTest, LastWriteWins) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("speed");
  g->Set(10.5);
  g->Set(42.25);
  EXPECT_DOUBLE_EQ(g->value(), 42.25);
}

TEST(HistogramTest, BucketingInclusiveUpperBounds) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0
  h.Observe(1.0);    // bucket 0 (inclusive)
  h.Observe(5.0);    // bucket 1
  h.Observe(100.0);  // bucket 2 (inclusive)
  h.Observe(101.0);  // overflow
  auto buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 101.0);
}

TEST(HistogramTest, ConcurrentObserves) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("lat", {0.5});
  constexpr int kThreads = 4;
  constexpr int kObserves = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kObserves; ++i) h->Observe(i % 2 == 0 ? 0.1 : 1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kObserves);
  auto buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0] + buckets[1], h->count());
}

TEST(MetricsRegistryTest, FindDoesNotRegister) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("nope"), nullptr);
  EXPECT_EQ(registry.FindGauge("nope"), nullptr);
  EXPECT_EQ(registry.FindHistogram("nope"), nullptr);
  registry.GetCounter("yes");
  EXPECT_NE(registry.FindCounter("yes"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotJsonShape) {
  MetricsRegistry registry;
  registry.GetCounter("c1")->Add(7);
  registry.GetGauge("g1")->Set(3.5);
  registry.GetHistogram("h1", {1.0})->Observe(0.2);
  json::Value snapshot = registry.SnapshotJson();
  ASSERT_TRUE(snapshot.is_object());
  const json::Value* counters = snapshot.as_object().Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->as_object().Find("c1")->as_int(), 7);
  const json::Value* gauges = snapshot.as_object().Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->as_object().Find("g1")->as_double(), 3.5);
  const json::Value* histograms = snapshot.as_object().Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* h1 = histograms->as_object().Find("h1");
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h1->as_object().Find("count")->as_int(), 1);
}

// ------------------------------------------------------------------ spans

TEST(SpanTest, NestedSpansAreContained) {
  SpanRecorder recorder;
  {
    Span outer(&recorder, "outer", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      Span inner(&recorder, "inner", "test");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(recorder.EventCount(), 2u);
  json::Value trace = recorder.ToJson();
  const json::Value* events = trace.as_object().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  const json::Value* outer_ev = nullptr;
  const json::Value* inner_ev = nullptr;
  for (const json::Value& e : events->as_array()) {
    const std::string& name = e.as_object().Find("name")->as_string();
    if (name == "outer") outer_ev = &e;
    if (name == "inner") inner_ev = &e;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // Inner is strictly contained in outer on the timeline.
  auto field = [](const json::Value* e, const char* key) {
    return e->as_object().Find(key)->as_int();
  };
  EXPECT_LT(field(outer_ev, "ts"), field(inner_ev, "ts"));
  EXPECT_GT(field(outer_ev, "ts") + field(outer_ev, "dur"),
            field(inner_ev, "ts") + field(inner_ev, "dur"));
}

TEST(SpanTest, JsonRoundTripsThroughStrictParser) {
  SpanRecorder recorder;
  { Span s(&recorder, "work", "test"); }
  recorder.EmitCounter("rss_mib", 10, 128.5);
  recorder.EmitInstant("cache.hit:op", "cache", 20);
  std::string path = ::testing::TempDir() + "/obs_trace.json";
  ASSERT_TRUE(recorder.WriteTo(path).ok());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  auto parsed = json::ParseStrict(content);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed.value().as_object().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->as_array().size(), 3u);
  for (const json::Value& e : events->as_array()) {
    EXPECT_TRUE(e.as_object().Contains("name"));
    EXPECT_TRUE(e.as_object().Contains("ph"));
    EXPECT_TRUE(e.as_object().Contains("ts"));
    EXPECT_TRUE(e.as_object().Contains("tid"));
  }
}

TEST(SpanTest, ThreadsGetDistinctLanes) {
  SpanRecorder recorder;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&recorder] { Span s(&recorder, "thread-work", "test"); });
  }
  for (auto& t : threads) t.join();
  json::Value trace = recorder.ToJson();
  const json::Value* events = trace.as_object().Find("traceEvents");
  ASSERT_EQ(events->as_array().size(), static_cast<size_t>(kThreads));
  std::vector<int64_t> tids;
  for (const json::Value& e : events->as_array()) {
    tids.push_back(e.as_object().Find("tid")->as_int());
  }
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end())
      << "each thread must land on its own lane";
}

TEST(SpanTest, ExplicitLanePlacement) {
  SpanRecorder recorder;
  recorder.EmitCompleteOnLane("shard-work", "dist", 5, 10, 101);
  json::Value trace = recorder.ToJson();
  const json::Value& e = trace.as_object().Find("traceEvents")->as_array()[0];
  EXPECT_EQ(e.as_object().Find("tid")->as_int(), 101);
  EXPECT_EQ(e.as_object().Find("ts")->as_int(), 5);
  EXPECT_EQ(e.as_object().Find("dur")->as_int(), 10);
}

TEST(SpanTest, NullRecorderIsNoOp) {
  // Must not crash and must not record anywhere.
  Span s(nullptr, "nothing");
}

TEST(GlobalRecorderTest, InstallUninstall) {
  EXPECT_EQ(GlobalRecorder(), nullptr);
  {
    SpanRecorder recorder;
    InstallGlobalRecorder(&recorder);
    EXPECT_EQ(GlobalRecorder(), &recorder);
    { DJ_OBS_SPAN("macro-span"); }
    EXPECT_EQ(recorder.EventCount(), 1u);
    InstallGlobalRecorder(nullptr);
  }
  EXPECT_EQ(GlobalRecorder(), nullptr);
  { DJ_OBS_SPAN("dropped"); }  // no recorder: silently ignored
}

TEST(SpanTest, SecondRecorderDoesNotInheritBuffers) {
  // Thread-local buffers are keyed by recorder id: a new recorder on the
  // same thread must start empty rather than aliasing the old one's lane.
  auto first = std::make_unique<SpanRecorder>();
  { Span s(first.get(), "one"); }
  EXPECT_EQ(first->EventCount(), 1u);
  first.reset();
  SpanRecorder second;
  { Span s(&second, "two"); }
  EXPECT_EQ(second.EventCount(), 1u);
}

// ------------------------------------------------------------ run journal

TEST(RunJournalTest, MetricsJsonCarriesAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("cache.hit")->Add(3);
  registry.GetCounter("cache.miss")->Add(5);
  SpanRecorder recorder;
  RunJournal journal(&registry, &recorder);
  journal.SetRunInfo("recipe.yaml", "data.jsonl");
  journal.AddOp({"text_length_filter", "filter", 100, 80, 0.5, false});
  RunTotals totals;
  totals.total_seconds = 0.5;
  totals.rows_in = 100;
  totals.rows_out = 80;
  journal.SetTotals(totals);
  ResourceReport usage;
  usage.wall_seconds = 1.0;
  usage.peak_rss_bytes = 1 << 20;
  journal.SetResources(usage);
  journal.AddResourceSample(0.1, 1 << 20, 0.05);

  json::Value report = journal.MetricsJson();
  ASSERT_TRUE(report.is_object());
  for (const char* key : {"schema_version", "run", "ops", "totals", "cache",
                          "resources", "metrics"}) {
    EXPECT_TRUE(report.as_object().Contains(key)) << key;
  }
  const json::Value* run = report.as_object().Find("run");
  EXPECT_EQ(run->as_object().Find("recipe")->as_string(), "recipe.yaml");
  const json::Value* ops = report.as_object().Find("ops");
  ASSERT_EQ(ops->as_array().size(), 1u);
  const json::Value& op = ops->as_array()[0];
  EXPECT_EQ(op.as_object().Find("rows_in")->as_int(), 100);
  EXPECT_EQ(op.as_object().Find("rows_out")->as_int(), 80);
  EXPECT_GT(op.as_object().Find("rows_per_sec")->as_double(), 0.0);
  // Cache counters come from the registry, not the totals.
  const json::Value* cache = report.as_object().Find("cache");
  EXPECT_EQ(cache->as_object().Find("hits")->as_int(), 3);
  EXPECT_EQ(cache->as_object().Find("misses")->as_int(), 5);
  // The resource sample became trace counter events.
  EXPECT_EQ(recorder.EventCount(), 2u);  // rss_mib + cpu_seconds
}

TEST(RunJournalTest, RunErrorIsSetOnlyForAFailedRun) {
  RunJournal journal(nullptr, nullptr);
  journal.SetRunInfo("recipe.yaml", "data.jsonl");
  const json::Value ok = journal.MetricsJson();
  EXPECT_FALSE(ok.as_object().Find("run")->as_object().Contains("error"));
  journal.SetRunError("load", "IoError: no such file");
  const json::Value failed = journal.MetricsJson();
  const json::Value* error =
      failed.as_object().Find("run")->as_object().Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->as_object().Find("stage")->as_string(), "load");
  EXPECT_EQ(error->as_object().Find("status")->as_string(),
            "IoError: no such file");
  EXPECT_TRUE(failed.as_object().Find("ops")->as_array().empty());
}

TEST(RunJournalTest, WriteTraceWithoutRecorderFails) {
  MetricsRegistry registry;
  RunJournal journal(&registry, nullptr);
  EXPECT_FALSE(journal.WriteTrace("/tmp/never.json").ok());
}

TEST(RunJournalTest, NullRegistryFallsBackToTotals) {
  RunJournal journal(nullptr, nullptr);
  RunTotals totals;
  totals.cache_hits = 9;
  journal.SetTotals(totals);
  json::Value report = journal.MetricsJson();
  const json::Value* cache = report.as_object().Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->as_object().Find("hits")->as_int(), 9);
}

}  // namespace
}  // namespace dj::obs
